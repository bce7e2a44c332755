"""Smoke test of the benchmark harness: every workload runs and checks out.

Runs ``bench/run.py`` for about a second per workload in a fresh process
and reads the JSON object on the last line of its output. The timings
are not checked, only that every operation's output passed the
harness's independent reference check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["depth", "contour", "coords", "cli-session"])
def test_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
