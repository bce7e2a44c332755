"""The README's runnable experiments run to the end on small inputs.

Each script runs in a fresh interpreter, as a user starts it; a change to
the API it uses fails here instead of at the next manual run.
"""

import json
import os
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def _run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(SCRIPTS), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_depth_contours(tmp_path):
    out = tmp_path / "contours"
    proc = _run(str(SCRIPTS / "depth_contours.py"), "--n", "200", "--directions", "16",
                "--alphas", "0.25,0.5", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["alpha", "r(alpha)", "mean", "|B|", "max", "gap"]
    rows = [line.split() for line in lines[1:3]]
    assert [r[0] for r in rows] == ["0.25", "0.50"]
    for row in rows:
        # the empirical contour of a 200-atom cloud stays near the exact circle
        radius, mean_norm, gap = map(float, row[1:])
        assert abs(mean_norm - radius) < 0.1 * radius and 0.0 < gap < radius
    assert lines[3] == f"wrote 2 files under {out}"
    assert len(list(out.iterdir())) == 2


def test_barycenter_convergence(tmp_path):
    proc = _run(str(SCRIPTS / "barycenter_convergence.py"), "--sizes", "1000,4000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["offset", "N", "kept", "error", "4s/sqrt(k)", "inside"]
    rows = [line.split() for line in lines[1:]]
    # three default offsets times two sizes
    assert [(r[0], r[1]) for r in rows] == [(a, n) for a in ("-1.00", "0.00", "1.00")
                                            for n in ("1000", "4000")]
    for row in rows:
        assert 0 < int(row[2]) <= int(row[1]) and row[5] == "yes"


def test_depth_scaling(tmp_path):
    # one small cloud in place of the three large ones
    proc = _run("-c", "import depth_scaling as s; s.CLOUDS = ((2, 2000),); s.main()", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"numpy", "cpu", "clouds"}
    (row,) = report["clouds"]
    assert set(row) == {"d", "n", "queries", "ms", "ms_median", "iterations", "ratio_test_share"}
    assert (row["d"], row["n"], row["queries"]) == (2, 2000, 6)
    assert len(row["ms"]) == len(row["iterations"]) == 6
    assert 0 < row["ratio_test_share"] < 1


def test_index_reads(tmp_path):
    # one small planar cloud, just above the index cutoff, and a few directions
    proc = _run("-c", "import index_reads as s; s.N = 20_000; s.CASES = ((2, 'gauss'),); s.DIRECTIONS = 3; "
                "s.BUILDS = 1; s.main()", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"numpy", "n", "directions", "alphas", "cases"}
    (row,) = report["cases"]
    assert set(row) == {"d", "shape", "build_ms", "split_atoms", "conversion_atoms"}
    assert (row["d"], row["shape"], report["n"]) == (2, "gauss", 20_000)
    assert row["build_ms"] > 0
    # a split reads some atoms, but far fewer than the full scan
    assert 0 < row["split_atoms"] < 0.5 * 20_000 and 0 < row["conversion_atoms"] < 0.5 * 20_000
