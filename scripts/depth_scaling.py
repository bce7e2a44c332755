#!/usr/bin/env python3
"""Time zonoid_depth on large Gaussian clouds, with the ratio test's share.

Draws seed-1 standard Gaussian clouds at d = 2 with n = 10^4 and 10^5, and
at d = 10 with n = 10^4, and queries each at 6 points: the first six atoms
pulled halfway to the origin. One query per cloud is run first and not
timed. The run uses one BLAS thread and is pinned to one CPU. The simplex's
ratio test is timed by wrapping ``simplex._ratio_test``. Prints one JSON
object: per cloud, the milliseconds and basis changes of each query, and
the ratio test's share of the timed depth calls.

Usage: PYTHONPATH=src python scripts/depth_scaling.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import json
import statistics
import time

import numpy as np

from liftzonoid import EmpiricalMeasure, zonoid_depth
from liftzonoid import simplex

CLOUDS = ((2, 10_000), (2, 100_000), (10, 10_000))
QUERIES = 6


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ratio_s = 0.0
    plain = simplex._ratio_test

    def timed(*args):
        nonlocal ratio_s
        start = time.perf_counter()
        try:
            return plain(*args)
        finally:
            ratio_s += time.perf_counter() - start

    simplex._ratio_test = timed
    rows = []
    for d, n in CLOUDS:
        pts = np.random.default_rng(1).standard_normal((n, d))
        mu = EmpiricalMeasure.uniform(pts)
        queries = 0.5 * pts[:QUERIES]
        zonoid_depth(mu, queries[-1])  # warm-up; caches the span rank
        ratio_s = 0.0
        ms, iterations = [], []
        for x in queries:
            start = time.perf_counter()
            cert = zonoid_depth(mu, x)
            ms.append(1e3 * (time.perf_counter() - start))
            iterations.append(cert.iterations)
        rows.append({
            "d": d,
            "n": n,
            "queries": QUERIES,
            "ms": [round(t, 2) for t in ms],
            "ms_median": round(statistics.median(ms), 2),
            "iterations": iterations,
            "ratio_test_share": round(1e3 * ratio_s / sum(ms), 3),
        })
    print(json.dumps({"numpy": np.__version__, "cpu": os.sched_getaffinity(0).pop(), "clouds": rows}, indent=1))


if __name__ == "__main__":
    main()
