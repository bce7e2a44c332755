"""Verification suites behind the CLI ``verify`` subcommand.

Each suite returns a JSON-able report: a list of named properties with
the measured worst error and its tolerance. Reports are deterministic
functions of (suite, measure, seed, samples); the worker count only
changes how tasks are scheduled, never the bytes of the report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .barycentric import CoordKind, coords_from_point, point_from_coords
from .depth import depth_bruteforce_oracle, zonoid_depth
from .errors import DegenerateMeasure, InputFormatError
from .measures import (
    Direction,
    EmpiricalMeasure,
    GaussianMeasure,
    HalfSpace,
)
from .normal import g_inverse, g_ratio, normal_cdf, normal_quantile, radius
from .sampling import direction_grid, task_stream
from .zonoid import TrimmedRegionQuery, support_trimmed, support_zonoid, trimmed_boundary_point

# a Monte-Carlo property fails when any of its tasks keeps fewer draws
MIN_KEPT = 100
# random small clouds the oracle suite checks the LP depth on
_ORACLE_INSTANCES = 25


def _map_tasks(fn, args, workers: int):
    if workers <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


def _prop(name: str, max_error: float, tolerance: float, enough: bool = True, **extra) -> dict:
    out = {
        "name": name,
        "max_error": float(max_error),
        "tolerance": float(tolerance),
        "passed": bool(enough and max_error <= tolerance),
    }
    out.update(extra)
    return out


def _finish(suite: str, seed: int, props: list, **extra) -> dict:
    report = {"suite": suite, "seed": seed}
    report.update(extra)
    report["properties"] = props
    report["passed"] = all(p["passed"] for p in props)
    return report


def _random_empirical(seed: int, task: int) -> EmpiricalMeasure:
    rng = task_stream(seed, task)
    d = int(rng.integers(1, 6))
    n = int(rng.integers(20, 121))
    points = rng.uniform(-1.0, 1.0, size=(n, d))
    weights = rng.uniform(0.2, 1.0, size=n)
    return EmpiricalMeasure(points, weights / weights.sum())


def _theorem1_single(arg):
    mu, seed, task = arg
    dirs = direction_grid(mu.dim, 24, seed=seed + 7 * task)
    mean = mu.mean()
    err_support = 0.0
    err_nesting = 0.0
    err_reflect = 0.0
    err_cont = 0.0
    err_limit = 0.0
    centered = mu.affine_image(np.eye(mu.dim), -mean)
    alphas = np.linspace(0.05, 1.0, 20)
    for row in dirs:
        u = Direction.of(row)
        minus = Direction.of(-row)
        gap = support_zonoid(mu, u) - support_zonoid(mu, minus) - float(mean @ u.vec)
        err_support = max(err_support, abs(gap))
        values = [support_trimmed(mu, TrimmedRegionQuery(float(a), u)) for a in alphas]
        rises = np.diff(values)
        err_nesting = max(err_nesting, float(max(0.0, rises.max())))
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            left = a * support_trimmed(centered, TrimmedRegionQuery(a, u))
            right = (1.0 - a) * support_trimmed(centered, TrimmedRegionQuery(1.0 - a, minus))
            err_reflect = max(err_reflect, abs(left - right))
        for a in (0.35, 0.5, 0.75):
            base = support_trimmed(mu, TrimmedRegionQuery(a, u))
            for da in (-1e-4, 1e-4):
                near = support_trimmed(mu, TrimmedRegionQuery(a + da, u))
                err_cont = max(err_cont, abs(near - base))
        if isinstance(mu, EmpiricalMeasure):
            proj = mu.points @ u.vec
            order = np.argsort(proj)
            if proj[order[-1]] - proj[order[-2]] > 1e-6:
                far = mu.points[order[-1]]
                bp = trimmed_boundary_point(mu, TrimmedRegionQuery(1e-4, u))
                err_limit = max(err_limit, float(np.linalg.norm(bp - far)))
    return err_support, err_nesting, err_reflect, err_cont, err_limit


def _theorem1(measure, seed: int, samples: int, workers: int) -> dict:
    measures = [_random_empirical(seed, i) for i in range(6)] if measure is None else [measure]
    rows = _map_tasks(
        _theorem1_single, [(mu, seed, i) for i, mu in enumerate(measures)], workers
    )
    agg = [max(col) for col in zip(*rows)]
    props = [
        _prop("zonoid-support-mean-identity", agg[0], 1e-10),
        _prop("trimmed-nesting", agg[1], 1e-12),
        _prop("centered-reflection", agg[2], 1e-10),
        _prop("support-continuity-in-alpha", agg[3], 1e-3),
    ]
    if not isinstance(measures[0], GaussianMeasure):  # a Gaussian has no farthest atom
        props.append(_prop("small-alpha-farthest-atom", agg[4], 1e-6))
    return _finish("theorem1", seed, props, n_measures=len(measures))


def _mc_barycenter_task(arg):
    """(worst error over the 4-sigma bound, number of kept draws)."""
    seed, task, samples, offset = arg
    mu = GaussianMeasure.standard(2)
    u = Direction.of((math.cos(0.7 * (task + 1)), math.sin(0.7 * (task + 1))))
    hs = HalfSpace(u, offset)
    exact = mu.halfspace_barycenter(hs)
    kept = []
    drawn = 0
    chunk = 250_000
    k = 0
    while drawn < samples:
        take = min(chunk, samples - drawn)
        z = task_stream(seed, 1000 * (task + 1) + k).standard_normal((take, 2))
        kept.append(z[z @ u.vec >= offset])
        drawn += take
        k += 1
    sample = np.vstack(kept)
    count = sample.shape[0]
    if count < 2:
        return 0.0, count
    err = np.abs(sample.mean(axis=0) - exact)
    bound = 4.0 * sample.std(axis=0, ddof=1) / math.sqrt(count)
    return float(np.max(err / bound)), count


def _gaussian(measure, seed: int, samples: int, workers: int) -> dict:
    alphas = np.linspace(0.01, 0.99, 49)
    chain = max(
        abs(g_ratio(normal_quantile(float(a))) - radius(float(a))) for a in alphas
    )
    half = abs(radius(0.5) - math.sqrt(2.0 / math.pi))
    rng = task_stream(seed, 0)
    trimmed = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 6))
        a = float(rng.uniform(0.02, 0.98))
        u = Direction.of(rng.standard_normal(d))
        mu = GaussianMeasure.standard(d)
        trimmed = max(
            trimmed, abs(support_trimmed(mu, TrimmedRegionQuery(a, u)) - radius(a))
        )
    ps = np.concatenate(
        [[1e-10, 1e-6], np.linspace(0.001, 0.999, 59), [1.0 - 1e-6, 1.0 - 1e-10]]
    )
    quant = max(abs(normal_cdf(normal_quantile(float(p))) - p) for p in ps)
    us = np.linspace(-8.0, 8.0, 33)
    ground = max(abs(g_inverse(g_ratio(float(u))) - u) for u in us)
    mc_tasks = [(seed, t, samples, off) for t, off in enumerate((-0.85, 0.0, 0.85))]
    mc, kept = zip(*_map_tasks(_mc_barycenter_task, mc_tasks, workers))
    props = [
        _prop("chain-ratio-equals-radius", chain, 1e-10),
        _prop("radius-at-half", half, 1e-10),
        _prop("trimmed-support-equals-radius", trimmed, 1e-9),
        _prop("quantile-roundtrip", quant, 1e-12),
        _prop("g-inverse-roundtrip", ground, 1e-9),
        _prop(
            "mc-barycenter-within-4-sigma",
            max(mc),
            1.0,
            enough=min(kept) >= MIN_KEPT,
            kept=min(kept),
        ),
    ]
    return _finish("gaussian", seed, props, samples=samples)


def _roundtrip_single(arg):
    mu, seed, task = arg
    rng = task_stream(seed, 100 + task)
    u = rng.standard_normal(mu.dim)
    u /= np.linalg.norm(u)
    x = mu.mean() + (mu.factor @ u) * float(rng.uniform(0.05, 3.0))
    worst = 0.0
    for kind in CoordKind:
        c = coords_from_point(mu, x, kind)
        back = point_from_coords(mu, c)
        worst = max(worst, float(np.linalg.norm(back - x)) / (1.0 + float(np.linalg.norm(x))))
    return worst


def _roundtrip(measure, seed: int, samples: int, workers: int) -> dict:
    mu = GaussianMeasure.standard(2) if measure is None else measure
    rows = _map_tasks(
        _roundtrip_single, [(mu, seed, i) for i in range(100)], workers
    )
    props = [_prop("coordinate-roundtrips", max(rows), 1e-7)]
    return _finish("roundtrip", seed, props, n_points=len(rows))


def _oracle_single(arg):
    seed, task = arg
    rng = task_stream(seed, 300 + task)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(d + 1, 11))
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    w = rng.uniform(0.3, 1.0, size=n)
    try:
        mu = EmpiricalMeasure(pts, w / w.sum())
        if task % 3 == 2:
            x = pts[int(rng.integers(0, n))] * 1.9  # usually lands outside
        else:
            lam = rng.uniform(0.0, 1.0, size=n)
            lam /= lam.sum()
            x = lam @ pts
        fast = zonoid_depth(mu, x).depth
    except DegenerateMeasure:  # atoms collapsed onto a subspace: skip the draw
        return None
    return abs(fast - depth_bruteforce_oracle(mu, x))


def _oracle(measure, seed: int, samples: int, workers: int) -> dict:
    two_atom = EmpiricalMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    exact = abs(zonoid_depth(two_atom, [0.5]).depth - 2.0 / 3.0)
    rows = _map_tasks(_oracle_single, [(seed, i) for i in range(_ORACLE_INSTANCES)], workers)
    errors = [e for e in rows if e is not None]
    props = [
        _prop("two-atom-worked-example", exact, 1e-12),
        _prop(
            "lp-depth-matches-bruteforce",
            max(errors, default=0.0),
            1e-6,
            enough=len(errors) > 0,
            checked=len(errors),
        ),
    ]
    return _finish("oracle", seed, props, n_instances=_ORACLE_INSTANCES)


# suite name -> (runner, the measure classes it accepts; none: built-in data only)
_SUITES = {
    "theorem1": (_theorem1, (EmpiricalMeasure, GaussianMeasure)),
    "gaussian": (_gaussian, ()),
    "roundtrip": (_roundtrip, (GaussianMeasure,)),
    "oracle": (_oracle, ()),
}
SUITES = tuple(_SUITES)


def run_suite(
    name: str,
    measure=None,
    seed: int = 0,
    samples: int = 1_000_000,
    workers: int = 1,
) -> dict:
    """Run suite ``name``; ``measure`` replaces the built-in data of a suite that takes one."""
    if name not in _SUITES:
        raise InputFormatError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    runner, takes = _SUITES[name]
    if measure is not None and not isinstance(measure, takes):
        if not takes:
            raise InputFormatError(f"the {name} suite runs on built-in data and takes no measure")
        kinds = " or ".join(k.__name__.removesuffix("Measure") for k in takes)
        raise InputFormatError(f"the {name} suite needs a {kinds} measure")
    return runner(measure, seed, samples, workers)
