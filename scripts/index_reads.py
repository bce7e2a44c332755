#!/usr/bin/env python3
"""Count the atoms the block index reads, on five cloud shapes in d = 2 and 3.

Draws seed-1 uniform clouds of N = 10^5 atoms: a standard Gaussian, a
randomly rotated Gaussian with axis scales 1, 0.05 and 0.01, Student t
with 2 degrees of freedom, a mix of 8 tight Gaussian clusters, and a tied
integer grid with coordinates in -20..20. For each, builds the block index
(the median of BUILDS builds is reported) and, along DIRECTIONS random
directions at each of ALPHAS, counts the atoms projected through the index
by one split (``trimmed_boundary_point``) and by one conversion of its
support to a depth (``convert_coords``). The run uses one BLAS thread.
Prints one JSON object: per case, the build time and the mean atoms read
per split and per conversion.

Usage: PYTHONPATH=src python scripts/index_reads.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import json
import statistics
import time

import numpy as np

from liftzonoid import (
    BarycentricCoords,
    CoordKind,
    Direction,
    EmpiricalMeasure,
    TrimmedRegionQuery,
    convert_coords,
    support_trimmed,
    trimmed_boundary_point,
)
from liftzonoid import measures

N = 100_000
CASES = tuple((d, shape) for d in (2, 3) for shape in ("gauss", "aniso", "t2", "mix", "grid"))
DIRECTIONS = 60
ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
BUILDS = 5


def cloud(shape: str, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    if shape == "gauss":
        return rng.standard_normal((n, d))
    if shape == "aniso":
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        return (rng.standard_normal((n, d)) * np.array([1.0, 0.05, 0.01])[:d]) @ rotation.T
    if shape == "t2":
        return rng.standard_t(2.0, size=(n, d))
    if shape == "mix":
        centers = 4.0 * rng.standard_normal((8, d))
        return centers[rng.integers(0, 8, n)] + 0.3 * rng.standard_normal((n, d))
    return rng.integers(-20, 21, size=(n, d)).astype(float)


def main() -> None:
    read = []
    plain = measures._BlockIndex.cut

    def counted(self, vec, whole, cut):
        out = plain(self, vec, whole, cut)
        read.append(out.values.size)
        return out

    measures._BlockIndex.cut = counted
    rows = []
    for d, shape in CASES:
        rng = np.random.default_rng(1)
        mu = EmpiricalMeasure.uniform(cloud(shape, rng, N, d))
        ms = []
        for _ in range(BUILDS):
            start = time.perf_counter()
            measures._BlockIndex.build(mu.points, mu.weights)
            ms.append(1e3 * (time.perf_counter() - start))
        assert mu._blocks is not None, "the cloud is below the index cutoff"
        splits, conversions = [], []
        for _ in range(DIRECTIONS):
            u = Direction.of(rng.standard_normal(d))
            for alpha in ALPHAS:
                query = TrimmedRegionQuery(alpha, u)
                coords = BarycentricCoords(CoordKind.SUPPORT, support_trimmed(mu, query), u)
                read.clear()
                trimmed_boundary_point(mu, query)
                splits.append(sum(read))
                read.clear()
                convert_coords(mu, coords, CoordKind.DEPTH)
                conversions.append(sum(read))
        rows.append({
            "d": d,
            "shape": shape,
            "build_ms": round(statistics.median(ms), 2),
            "split_atoms": round(statistics.fmean(splits)),
            "conversion_atoms": round(statistics.fmean(conversions)),
        })
    print(json.dumps({"numpy": np.__version__, "n": N, "directions": DIRECTIONS, "alphas": list(ALPHAS),
                      "cases": rows}, indent=1))


if __name__ == "__main__":
    main()
