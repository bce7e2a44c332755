#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its end-to-end metrics.

Run from the root of a checkout:

    python3 bench/spread.py --workloads depth coords --seeds 11-20 --held-out 99 --out summary.json

For each workload and metric it reports the median of the seeds' values,
their quartiles as ``statistics.quantiles(values, n=4)`` gives them, and
the spread: the distance between the quartiles as a share of the median.
A held-out seed, run after the others, is compared with that median: it
is within bounds when it is no worse than the median by more than the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(value: float, median: float, better: str) -> float:
    """How much worse than the median ``value`` is, as a share of the median."""
    return (value - median) / median if better == "lower" else (median - value) / median


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("11-20"), help="e.g. 11-20 or 1,5,9")
    parser.add_argument("--held-out", type=int, help="seed run once more after the others")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        for seed in args.seeds:
            for name, value in run_once(workload, seed, spec["run_seconds"]).items():
                values[name].append(value)
        held = run_once(workload, args.held_out, spec["run_seconds"]) if args.held_out is not None else None
        rows = {}
        for name, m in metrics.items():
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": m["bound"], "values": v}
            if held is not None:
                worse = worse_by(held[name], med, m["better"])
                row.update(held_out=held[name], held_out_worse_by=worse, held_out_within=worse <= m["bound"])
            rows[name] = row
            print(f"{workload:12s} {name:12s} median {med:12.5g} {m['unit']:6s} spread {row['spread']:.4f}"
                  f" (bound {m['bound']})" + (f"  held-out worse by {worse:+.4f}" if held is not None else ""))
        summary[workload] = {"seeds": args.seeds, "held_out_seed": args.held_out, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
