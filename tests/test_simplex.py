"""Bounded dual simplex against scipy's HiGHS solver on random programs.

The LP form throughout is max c'x subject to Ax = b, lower <= x <= upper.
"""

import numpy as np
import pytest
import scipy.optimize

from liftzonoid import simplex
from liftzonoid.errors import NotConverged
from liftzonoid.measures import _SELECT_BASE
from liftzonoid.simplex import solve_bounded_lp


def _random_feasible_lp(rng, m, n):
    """Build an equality-constrained box LP that is feasible by construction."""
    A = rng.standard_normal((m, n))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    x0 = lower + (upper - lower) * rng.uniform(0.1, 0.9, n)
    b = A @ x0
    c = rng.standard_normal(n)
    return A, b, c, lower, upper


def _highs_optimum(A, b, c, lower, upper):
    res = scipy.optimize.linprog(
        -c, A_eq=A, b_eq=b, bounds=list(zip(lower, upper)), method="highs"
    )
    return res


@pytest.mark.parametrize("seed", range(20))
def test_matches_highs_on_random_programs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, m + 9))
    A, b, c, lower, upper = _random_feasible_lp(rng, m, n)
    res = solve_bounded_lp(A, b, c, lower, upper)
    ref = _highs_optimum(A, b, c, lower, upper)
    assert ref.status == 0
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-ref.fun, abs=1e-8, rel=1e-8)
    # returned point is feasible
    np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
    assert np.all(res.x >= lower - 1e-9)
    assert np.all(res.x <= upper + 1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_strong_duality_certificate(seed):
    # max c'x = y'b + sum_i bound contribution of nonbasic variables:
    # for rc = c - y'A, the optimum equals y'b + sum rc_i>0 rc_i u_i
    #                                            + sum rc_i<0 rc_i l_i
    rng = np.random.default_rng(100 + seed)
    A, b, c, lower, upper = _random_feasible_lp(rng, 2, 7)
    res = solve_bounded_lp(A, b, c, lower, upper)
    assert res.status == "optimal"
    rc = c - res.dual @ A
    dual_value = (
        float(res.dual @ b)
        + float(np.sum(np.maximum(rc, 0.0) * upper))
        + float(np.sum(np.minimum(rc, 0.0) * lower))
    )
    assert dual_value == pytest.approx(res.objective, abs=1e-8)


def test_depth_lp_worked_example():
    # two atoms at -1 and 1 with weight 1/2 each, probed at x = 0.5:
    # max d1 + d2, -1.5 d1 + 0.5 d2 = 0, 0 <= di <= 1/2
    A = np.array([[-1.5, 0.5]])
    res = solve_bounded_lp(A, np.array([0.0]), np.array([1.0, 1.0]),
                           np.zeros(2), np.full(2, 0.5))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0 / 3.0, abs=1e-14)
    np.testing.assert_allclose(res.x, [1.0 / 6.0, 0.5], atol=1e-14)
    # dual bound sum_i w_i (1 - y (x_i - x))_+ collapses to the same value
    rc = 1.0 - res.dual @ A
    assert np.sum(0.5 * np.maximum(rc, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0 has no solution
    res = solve_bounded_lp(np.array([[1.0, 1.0]]), np.array([-1.0]),
                           np.array([1.0, 0.0]), np.zeros(2), np.ones(2))
    assert res.status == "infeasible"


@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_infinite_bound_rejected(bound):
    # every box must be finite, so an unbounded LP cannot be posed
    lower, upper = np.zeros(2), np.ones(2)
    if bound == "lower":
        lower[0] = -np.inf
    else:
        upper[0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve_bounded_lp(np.array([[0.0, 1.0]]), np.array([0.0]),
                         np.array([1.0, 0.0]), lower, upper)


def test_fixed_variables():
    # l = u pins a variable; the solver must treat it as a constant
    A = np.array([[1.0, 1.0]])
    res = solve_bounded_lp(A, np.array([1.5]), np.array([0.0, 1.0]),
                           np.array([0.5, 0.0]), np.array([0.5, 2.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.5, abs=1e-12)
    assert res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_basis_flagged():
    # equality already satisfied at the bounds: a basic variable sits on 0
    A = np.array([[1.0, -1.0]])
    res = solve_bounded_lp(A, np.array([0.0]), np.array([0.0, 0.0]),
                           np.zeros(2), np.ones(2))
    assert res.status == "optimal"
    assert res.degenerate_basis


def test_negative_lower_bounds():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 5))
    lower = np.full(5, -3.0)
    upper = np.full(5, -1.0)
    x0 = np.full(5, -2.0)
    b = A @ x0
    c = rng.standard_normal(5)
    res = solve_bounded_lp(A, b, c, lower, upper)
    ref = _highs_optimum(A, b, c, lower, upper)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-ref.fun, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_smallest_index_rule_on_tied_depth_lps(monkeypatch, seed):
    # duplicated integer atoms make many dual steps zero-length; switching
    # to the smallest-index rule after the first one must keep the optimum
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
    rng = np.random.default_rng(300 + seed)
    n = 200
    pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
    x = pts.mean(axis=0) + rng.uniform(0.0, 1.5) * (pts[rng.integers(n)] - pts.mean(axis=0))
    A, b, c = (pts - x).T, np.zeros(2), np.ones(n)
    lower, upper = np.zeros(n), np.full(n, 1.0 / n)
    res = solve_bounded_lp(A, b, c, lower, upper)
    ref = scipy.optimize.linprog(
        -c, A_eq=A, b_eq=b, bounds=np.column_stack([lower, upper]), method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-ref.fun, abs=1e-9)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-12)


def test_iteration_cap_raises_not_converged():
    A = np.array([[-1.5, 0.5]])  # the worked example needs one basis change
    with pytest.raises(NotConverged):
        solve_bounded_lp(A, np.array([0.0]), np.array([1.0, 1.0]),
                         np.zeros(2), np.full(2, 0.5), max_iterations=0)


def _full_sort_ratio_test(alpha, rc, slope, free, at_upper, width, excess, tol_p, tol_d, bland):
    """The ratio test with a full stable sort of every breakpoint (test-only reference)."""
    for pivot_tol in (simplex._PIVOT_TOL, 0.0):
        cand = np.flatnonzero(free & (slope > pivot_tol))
        gap = np.where(at_upper[cand], rc[cand], -rc[cand])
        ratio = np.maximum(gap, 0.0) / np.abs(alpha[cand])
        order = np.argsort(ratio, kind="stable")
        cand, ratio = cand[order], ratio[order]
        descent = excess - np.cumsum(np.abs(alpha[cand]) * width[cand])
        passed = np.flatnonzero(descent <= tol_p)
        if passed.size:
            break
    else:
        return None
    k = int(passed[0])
    tail = cand[k:]
    harris = float(np.min((np.abs(rc[tail]) + tol_d) / np.abs(alpha[tail])))
    window = tail[ratio[k:] <= harris]
    q = int(window.min()) if bland else int(window[np.argmax(np.abs(alpha[window]))])
    return cand[:k], q


def _depth_lp(rng, kind, d, n):
    """The depth LP of a Gaussian, weighted or integer-grid cloud at a random query."""
    if kind == "grid":  # few integer sites, so atoms repeat and ratios tie
        pts = rng.integers(-3, 4, size=(n, d)).astype(float)
        w = np.full(n, 1.0 / n)
    else:
        pts = rng.standard_normal((n, d))
        w = rng.uniform(0.05, 1.0, n) if kind == "weighted" else np.ones(n)
        w = w / w.sum()
    mean = w @ pts
    x = mean + rng.uniform(0.0, 1.6) * (pts[rng.integers(n)] - mean)
    return (pts - x).T, np.zeros(d), np.ones(n), np.zeros(n), w


def _solve_or_error(lp):
    try:
        return solve_bounded_lp(*lp)
    except (NotConverged, np.linalg.LinAlgError) as exc:
        return type(exc)


def _assert_same_solution(res, ref):
    if isinstance(ref, type):
        assert res is ref
        return
    assert (res.status, res.iterations, res.bound_flips) == (ref.status, ref.iterations, ref.bound_flips)
    assert (res.dual_degenerate, res.degenerate_basis) == (ref.dual_degenerate, ref.degenerate_basis)
    assert res.objective == ref.objective
    if ref.x is None:
        assert res.x is None and res.dual is None
    else:
        np.testing.assert_array_equal(res.x, ref.x)
        np.testing.assert_array_equal(res.dual, ref.dual)


@pytest.mark.parametrize("chunk", range(10))
def test_prefix_ratio_test_matches_full_sort(monkeypatch, chunk):
    # 100 depth LPs a chunk, 1000 in all, d 2 to 5: n below 300, or one in
    # ten log-uniform up to 5000; odd chunks switch to the smallest-index
    # rule after the first zero-length dual step
    if chunk % 2:
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
    rng = np.random.default_rng([500, chunk])
    lps = []
    for _ in range(100):
        d = int(rng.integers(2, 6))
        n = int(np.exp(rng.uniform(np.log(max(5, d + 2)), np.log(5000))) if rng.uniform() < 0.1
                else rng.integers(max(5, d + 2), 300))
        lps.append(_depth_lp(rng, ["gaussian", "weighted", "grid"][int(rng.integers(3))], d, n))
    results = [_solve_or_error(lp) for lp in lps]
    monkeypatch.setattr(simplex, "_ratio_test", _full_sort_ratio_test)
    for lp, res in zip(lps, results):
        _assert_same_solution(res, _solve_or_error(lp))


@pytest.mark.parametrize("kind", ["gaussian", "weighted", "grid"])
def test_prefix_ratio_test_widens_past_the_first_prefix(monkeypatch, kind):
    # large clouds pass more than _SELECT_BASE breakpoints on the first
    # iterations, so the prefix must widen, here at least twice
    rng = np.random.default_rng(["gaussian", "weighted", "grid"].index(kind))
    lps = [_depth_lp(rng, kind, d, 5000) for d in (2, 5)]
    results = [_solve_or_error(lp) for lp in lps]
    passed = []

    def recording(*args):
        step = _full_sort_ratio_test(*args)
        passed.append(0 if step is None else step[0].size)
        return step

    monkeypatch.setattr(simplex, "_ratio_test", recording)
    for lp, res in zip(lps, results):
        _assert_same_solution(res, _solve_or_error(lp))
    assert max(passed) > 2 * _SELECT_BASE
