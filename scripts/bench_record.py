#!/usr/bin/env python3
"""Record benchmark runs of one or more checkouts into BENCH_<label>.json.

Runs the unchanged ``bench/run.py`` of each checkout for every workload and
seed, one process at a time, each for the ``run_seconds`` that
BENCHMARK.json sets. The checkouts take turns seed by seed, and which one
goes first alternates from seed to seed, so that a drift in host speed hits
them alike. For each run the file keeps the stamp line and the final JSON
object that ``run.py`` prints; a summary gives each metric's median and
quartiles per checkout, workload and trace mode, with the seed syntax and
quartile method of ``bench/spread.py``. Uses the standard library only.

Usage (from the root of a checkout; the parent is a second checkout):

    python3 scripts/bench_record.py --label example \\
        --checkout parent=../parent --checkout change=. \\
        --workload cli-session --seeds 1-10
    python3 scripts/bench_record.py --label example --append \\
        --checkout parent=../parent --checkout change=. \\
        --workload depth contour coords --seeds 11-20

``--append`` adds the runs to an existing file and recomputes its summary.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

_spread_spec = importlib.util.spec_from_file_location("bench_spread", ROOT / "bench" / "spread.py")
spread = importlib.util.module_from_spec(_spread_spec)
_spread_spec.loader.exec_module(spread)


def checkout(text: str) -> tuple[str, Path]:
    """``NAME=PATH``, PATH the root of a checkout holding bench/run.py."""
    name, sep, path = text.partition("=")
    root = Path(path).resolve()
    if not sep or not name or not (root / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME=PATH to a checkout with bench/run.py")
    return name, root


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    stamp_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"stamp": json.loads(stamp_line)["stamp"], "result": json.loads(result_line)}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, the quartiles as ``bench/spread.py`` takes them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """checkout -> workload -> trace mode -> metric -> median and quartiles."""
    values: dict = {}
    for run in runs:
        key = (run["checkout"], run["stamp"]["workload"], f"trace{run['stamp']['trace']}")
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    summary: dict = {}
    for (name, workload, mode), metrics in sorted(values.items()):
        summary.setdefault(name, {}).setdefault(workload, {})[mode] = {
            metric: quartiles(vals) for metric, vals in metrics.items()
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--checkout", type=checkout, action="append", required=True,
                        help="NAME=PATH; repeat to compare checkouts")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=spread.seed_list, default=[1], help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", action="store_true", help="add to an existing file")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    path = args.out_dir / f"BENCH_{args.label}.json"
    runs = json.loads(path.read_text())["runs"] if args.append and path.is_file() else []
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for name, root in args.checkout[::-1] if i % 2 else args.checkout:
                run = run_once(root, workload, seed, args.trace)
                runs.append({"checkout": name, **run})
                ok = run["result"]["metrics"].get("ok_frac", {}).get("value")
                print(f"{name} {workload} seed {seed} trace {args.trace}: ok_frac {ok}", file=sys.stderr)
                path.write_text(json.dumps({"label": args.label, "runs": runs,
                                            "summary": summarize(runs)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
