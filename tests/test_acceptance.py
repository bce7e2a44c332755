"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line (visible with pytest -s or in
captured output) and enforces both the numeric tolerance and a wall-clock
budget.
"""

import time

import numpy as np
import pytest

from liftzonoid import (
    Direction,
    EmpiricalMeasure,
    GaussianMeasure,
    TrimmedRegionQuery,
    depth_bruteforce_oracle,
    g_ratio,
    gaussian_represent,
    normal_quantile,
    radius,
    support_trimmed,
    support_zonoid,
    zonoid_depth,
    zonotope_polygon_2d,
)
from liftzonoid.cli import main
from liftzonoid.sampling import direction_grid, task_stream
from liftzonoid.verify import run_suite


def _report(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[criterion {num}] {verdict} {name} ({detail}, "
          f"{elapsed:.2f}s < {budget:.0f}s)", flush=True)
    assert ok, f"criterion {num}: {name}: {detail}"
    assert elapsed < budget, f"criterion {num}: budget exceeded ({elapsed:.2f}s)"


def _random_gaussian(rng, d):
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    return GaussianMeasure.from_covariance(rng.standard_normal(d), cov)


def test_criterion_1_gaussian_trimmed_radius():
    start = time.perf_counter()
    err_half = abs(radius(0.5) - np.sqrt(2.0 / np.pi))
    ok = err_half <= 1e-10
    max_err = err_half
    rng = np.random.default_rng(101)
    std = {d: GaussianMeasure.standard(d) for d in (2, 3)}
    for _ in range(20):
        d = int(rng.choice([2, 3]))
        alpha = float(rng.uniform(0.02, 0.98))
        u = Direction.of(rng.standard_normal(d))
        got = support_trimmed(std[d], TrimmedRegionQuery(alpha, u))
        err = abs(got - radius(alpha))
        max_err = max(max_err, err)
        ok = ok and err <= 1e-9
    _report(1, "gaussian-trimmed-radius", ok, f"max_err={max_err:.2e}",
            time.perf_counter() - start, 1.0)


def test_criterion_2_representation_closure():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    dims = [1] * 17 + [2] * 17 + [5] * 16
    max_resid = 0.0
    mc_ok = True
    for i, d in enumerate(dims):
        mu = _random_gaussian(rng, d)
        x = mu.location + mu.factor @ (0.9 * rng.standard_normal(d))
        if np.linalg.norm(mu.whiten(x)) < 1e-3:
            x = mu.location + mu.factor @ np.full(d, 0.5)
        res = gaussian_represent(mu, x)
        b = mu.halfspace_barycenter(res.halfspace)
        max_resid = max(max_resid, float(np.linalg.norm(b - x)))
        # Monte-Carlo closure: conditional mean of 1e6 draws, componentwise
        # within four standard errors of the retained sample
        gen = task_stream(7000, i)
        u, a = res.halfspace.direction.vec, res.halfspace.offset
        count = 0
        acc = np.zeros(d)
        acc2 = np.zeros(d)
        for _ in range(4):
            z = gen.standard_normal((250_000, d))
            pts = mu.location + z @ mu.factor.T
            keep = pts @ u >= a
            kept = pts[keep]
            count += kept.shape[0]
            acc += kept.sum(axis=0)
            acc2 += (kept * kept).sum(axis=0)
        mean = acc / count
        var = np.maximum(acc2 / count - mean * mean, 0.0) * count / (count - 1)
        se = np.sqrt(var / count)
        mc_ok = mc_ok and bool(np.all(np.abs(mean - x) <= 4.0 * se))
    ok = max_resid <= 1e-8 and mc_ok
    _report(2, "representation-closure", ok,
            f"max_residual={max_resid:.2e} mc_ok={mc_ok}",
            time.perf_counter() - start, 60.0)


def test_criterion_3_depth_lp_vs_oracle():
    start = time.perf_counter()
    two = EmpiricalMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    err_example = abs(zonoid_depth(two, [0.5]).depth - 2.0 / 3.0)
    ok = err_example <= 1e-12
    rng = np.random.default_rng(303)
    max_err = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 12))
        pts = rng.standard_normal((n, d))
        w = rng.uniform(0.2, 1.0, n)
        mu = EmpiricalMeasure(pts, w / w.sum())
        lam = float(rng.uniform(0.0, 1.3))
        x = (1 - lam) * mu.mean() + lam * pts[int(rng.integers(n))]
        lp = zonoid_depth(mu, x).depth
        oracle = depth_bruteforce_oracle(mu, x)
        max_err = max(max_err, abs(lp - oracle))
    ok = ok and max_err <= 1e-6
    _report(3, "depth-lp-vs-oracle", ok,
            f"example_err={err_example:.1e} max_err={max_err:.2e}",
            time.perf_counter() - start, 30.0)


def test_criterion_4_trimmed_region_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = {"identity": 0.0, "nesting": 0.0, "reflection": 0.0,
             "continuity": 0.0, "small-alpha": 0.0}
    tols = {"identity": 1e-10, "nesting": 1e-12, "reflection": 1e-10,
            "continuity": 1e-3, "small-alpha": 1e-6}
    ok = True
    for k in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(30, 201))
        pts = rng.uniform(-1.0, 1.0, (n, d))
        w = rng.uniform(0.2, 1.0, n)
        mu = EmpiricalMeasure(pts, w / w.sum())
        m = mu.mean()
        dirs = direction_grid(d, 16, seed=900 + k)
        centered = mu.affine_image(np.eye(d), -m)
        for uv in dirs:
            u = Direction(uv)
            # (b): alpha-weighted supports difference telescopes to the mean
            h1 = support_trimmed(mu, TrimmedRegionQuery(1.0, u))
            worst["identity"] = max(worst["identity"],
                                    abs(h1 - float(m @ uv)))
            # (e): supports shrink as alpha grows
            levels = np.linspace(0.05, 1.0, 12)
            vals = [support_trimmed(mu, TrimmedRegionQuery(a, u))
                    for a in levels]
            incr = max(0.0, max(b - a for a, b in zip(vals, vals[1:])))
            worst["nesting"] = max(worst["nesting"], incr)
            # (f): for a centered measure the top-alpha and bottom-(1-alpha)
            # mass means balance: alpha h(D_a, u) = (1-alpha) h(D_{1-a}, -u)
            for a in (0.25, 0.5, 0.75):
                left = a * support_trimmed(centered, TrimmedRegionQuery(a, u))
                right = (1.0 - a) * support_trimmed(
                    centered, TrimmedRegionQuery(1.0 - a, -u))
                worst["reflection"] = max(worst["reflection"],
                                          abs(left - right))
            # (g): support is continuous in alpha
            for a in (0.35, 0.5, 0.75):
                lo = support_trimmed(mu, TrimmedRegionQuery(a - 1e-4, u))
                hi = support_trimmed(mu, TrimmedRegionQuery(a + 1e-4, u))
                mid = support_trimmed(mu, TrimmedRegionQuery(a, u))
                gap = max(abs(lo - mid), abs(hi - mid))
                worst["continuity"] = max(worst["continuity"], gap)
            # (h): as alpha -> 0 the support approaches the farthest atom
            v = pts @ uv
            top = np.sort(v)[::-1]
            if top.size > 1 and top[0] - top[1] > 1e-6:
                got = support_trimmed(mu, TrimmedRegionQuery(1e-4, u))
                worst["small-alpha"] = max(worst["small-alpha"],
                                           abs(got - top[0]))
    for key, val in worst.items():
        ok = ok and val <= tols[key]
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(4, "trimmed-region-properties", ok, detail,
            time.perf_counter() - start, 60.0)


def test_criterion_5_zonoid_support_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    pts = rng.standard_normal((40, 2))
    w = rng.uniform(0.2, 1.0, 40)
    mu = EmpiricalMeasure(pts, w / w.sum())
    m = mu.mean()
    max_identity = 0.0
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    for t in angles:
        u = Direction(np.array([np.cos(t), np.sin(t)]) /
                      np.hypot(np.cos(t), np.sin(t)))
        gap = support_zonoid(mu, u) - support_zonoid(mu, -u) - float(m @ u.vec)
        max_identity = max(max_identity, abs(gap))
    poly = zonotope_polygon_2d(mu)
    max_poly = 0.0
    for t in angles:
        uv = np.array([np.cos(t), np.sin(t)])
        uv /= np.linalg.norm(uv)
        max_poly = max(max_poly, abs(poly.support(uv) -
                                     support_zonoid(mu, Direction(uv))))
    ok = max_identity <= 1e-12 and max_poly <= 1e-10
    _report(5, "zonoid-support-identity", ok,
            f"identity={max_identity:.1e} polygon={max_poly:.1e}",
            time.perf_counter() - start, 5.0)


def test_criterion_6_coordinate_roundtrips():
    from liftzonoid import CoordKind, coords_from_point, point_from_coords

    start = time.perf_counter()
    rng = np.random.default_rng(606)
    mu = GaussianMeasure.from_covariance(
        [1.0, -2.0], [[2.0, 0.6], [0.6, 1.5]]
    )
    max_rel = 0.0
    count = 0
    while count < 100:
        x = mu.location + mu.factor @ rng.standard_normal(2)
        if np.linalg.norm(mu.whiten(x)) < 0.05:
            continue
        count += 1
        for kind in CoordKind:
            c = coords_from_point(mu, x, kind)
            back = point_from_coords(mu, c)
            rel = float(np.linalg.norm(back - x) / np.linalg.norm(x))
            max_rel = max(max_rel, rel)
    max_chain = 0.0
    for a in np.linspace(0.02, 0.98, 49):
        max_chain = max(max_chain,
                        abs(g_ratio(normal_quantile(a)) - radius(a)))
    ok = max_rel <= 1e-7 and max_chain <= 1e-10
    _report(6, "coordinate-roundtrips", ok,
            f"max_rel={max_rel:.2e} chain={max_chain:.1e}",
            time.perf_counter() - start, 5.0)


def test_criterion_7_verify_determinism(tmp_path, capsys):
    start = time.perf_counter()
    payloads = {}
    for suite in ("gaussian", "oracle"):
        for run in (0, 1):
            for workers in (1, 4):
                out = tmp_path / f"{suite}-{run}-{workers}.json"
                code = main(["verify", "--suite", suite, "--seed", "42",
                             "--samples", "400000", "--workers", str(workers),
                             "--out", str(out)])
                capsys.readouterr()
                assert code == 0
                payloads[(suite, run, workers)] = out.read_bytes()
    ok = True
    for suite in ("gaussian", "oracle"):
        ref = payloads[(suite, 0, 1)]
        for run in (0, 1):
            for workers in (1, 4):
                ok = ok and payloads[(suite, run, workers)] == ref
    with capsys.disabled():
        _report(7, "verify-determinism", ok,
                f"{len(payloads)} runs byte-identical={ok}",
                time.perf_counter() - start, 60.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
