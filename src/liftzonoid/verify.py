"""Verification suites behind the CLI ``verify`` subcommand.

Each suite returns a JSON-able report: a list of named properties with
the measured worst error and its tolerance. Reports are deterministic
functions of (suite, measure, seed, samples); the worker count only
changes how tasks are scheduled, never the bytes of the report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np

from .barycentric import CoordKind, coords_from_point, point_from_coords
from .depth import zonoid_depth
from .errors import DegenerateMeasure, InputFormatError
from .measures import (
    Direction,
    EmpiricalMeasure,
    GaussianMeasure,
    HalfSpace,
)
from .normal import g_inverse, g_ratio, isoperimetric, normal_cdf, normal_quantile, radius
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


def _scales(mu) -> tuple[float, float]:
    """(spread, reach): the measure's length scale, and that plus |mean|.

    Errors are divided by one of them, so a property's verdict does not
    depend on the units of the data.
    """
    if isinstance(mu, EmpiricalMeasure):
        spread = mu.radius
    else:
        spread = float(np.linalg.norm(mu.factor, 2))
    return spread, spread + float(np.linalg.norm(mu.mean()))


def _theorem1_single(arg):
    mu, seed, task = arg
    dirs = direction_grid(mu.dim, 24, seed=seed + 7 * task)
    mean = mu.mean()
    spread, reach = _scales(mu)
    err_support = 0.0
    err_nesting = 0.0
    err_reflect = 0.0
    err_cont = 0.0
    err_limit = 0.0
    checked = 0
    centered = mu.affine_image(np.eye(mu.dim), -mean)
    alphas = np.linspace(0.05, 1.0, 20)
    for row in dirs:
        u = Direction.of(row)
        minus = Direction.of(-row)
        gap = support_zonoid(mu, u) - support_zonoid(mu, minus) - float(mean @ u.vec)
        err_support = max(err_support, abs(gap) / reach)
        values = [support_trimmed(mu, TrimmedRegionQuery(float(a), u)) for a in alphas]
        rises = np.diff(values)
        err_nesting = max(err_nesting, float(max(0.0, rises.max())) / reach)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            left = a * support_trimmed(centered, TrimmedRegionQuery(a, u))
            right = (1.0 - a) * support_trimmed(centered, TrimmedRegionQuery(1.0 - a, minus))
            err_reflect = max(err_reflect, abs(left - right) / reach)
        for a in (0.35, 0.5, 0.75):
            base = support_trimmed(mu, TrimmedRegionQuery(a, u))
            for da in (-1e-4, 1e-4):
                near = support_trimmed(mu, TrimmedRegionQuery(a + da, u))
                err_cont = max(err_cont, abs(near - base) / spread)
        if isinstance(mu, EmpiricalMeasure):
            proj = mu.points @ u.vec
            order = np.argsort(proj)
            if proj[order[-1]] > proj[order[-2]]:
                # below the farthest atom's weight the upper tail is that atom alone
                far = order[-1]
                bp = trimmed_boundary_point(mu, TrimmedRegionQuery(0.5 * mu.weights[far], u))
                err_limit = max(err_limit, float(np.linalg.norm(bp - mu.points[far])) / reach)
                checked += 1
    return err_support, err_nesting, err_reflect, err_cont, err_limit, checked


def _theorem1(measure, seed: int, samples: int, workers: int) -> dict:
    if isinstance(measure, EmpiricalMeasure) and measure.affine_rank == 0:
        raise DegenerateMeasure("all atoms coincide; no direction has a farthest atom")
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
        checked = sum(row[5] for row in rows)
        props.append(
            _prop("small-alpha-farthest-atom", agg[4], 1e-6, enough=checked > 0, checked=checked)
        )
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
    chain = max(abs(isoperimetric(float(a)) / float(a) - radius(float(a))) for a in alphas)
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
    reach = _scales(mu)[1]
    worst = 0.0
    for kind in CoordKind:
        c = coords_from_point(mu, x, kind)
        back = point_from_coords(mu, c)
        worst = max(worst, float(np.linalg.norm(back - x)) / reach)
    return worst


def _roundtrip(measure, seed: int, samples: int, workers: int) -> dict:
    mu = GaussianMeasure.standard(2) if measure is None else measure
    rows = _map_tasks(
        _roundtrip_single, [(mu, seed, i) for i in range(100)], workers
    )
    props = [_prop("coordinate-roundtrips", max(rows), 1e-7)]
    return _finish("roundtrip", seed, props, n_points=len(rows))


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices by cofactor expansion, k! products each.

    Products and sums of small integers are exact, so a singular integer
    matrix gets determinant 0 exactly; numpy's ``det`` factors the matrix
    and rounds even a 1 x 1 one.
    """
    k = a.shape[-1]
    if k == 1:
        return a[..., 0, 0]
    cols = np.arange(k)
    return sum((-1.0) ** j * a[..., 0, j] * _det(a[..., 1:, cols != j]) for j in range(k))


def _facet_depth(mu: EmpiricalMeasure, x: np.ndarray) -> float:
    """Depth of x read off the facets of the lift zonotope, with no solver.

    The lift zonoid of mu is the zonotope sum_i [0, g_i] with generators
    g_i = w_i (1, x_i), and the depth of x is sup {t : t (1, x) in it}.
    Every facet normal n is the generalized cross product (signed cofactor
    determinants) of d generators, taken with both signs, and has support
    sum_i max(0, <n, g_i>); the depth is the least ratio of that support
    to <n, (1, x)> > 0, capped at 1. A positive factor per generator
    leaves each normal's direction and so its ratio unchanged, so the
    normals are taken from the lifts (1, x_i) themselves. It takes C(n, d)
    normals and O(C(n, d) n d) work, so it serves the suite's small clouds
    (d <= 3) only. The cofactors are sums of products, exact on
    small-integer atoms, so there a facet through an integer query has
    height exactly 0; on other atoms such a facet keeps a rounding-sized
    height of either sign, and a query on the span of d atoms' lifts can
    read a wrong depth.
    """
    lifts = np.column_stack([np.ones(mu.size), mu.points])
    faces = lifts[np.array(list(combinations(range(mu.size), mu.dim)))]
    cols = np.arange(mu.dim + 1)
    normals = np.stack([(-1.0) ** k * _det(faces[:, :, cols != k]) for k in cols], axis=1)
    normals = np.vstack([normals, -normals])
    height = normals @ np.append(1.0, x)
    support = np.maximum(normals @ lifts.T, 0.0) @ mu.weights
    up = height > 0.0
    return float((support[up] / height[up]).min(initial=1.0))


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
    return abs(fast - _facet_depth(mu, x))


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
            1e-12,
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
# the suites that draw Monte-Carlo samples; the others ignore ``samples``
SAMPLED_SUITES = ("gaussian",)


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
