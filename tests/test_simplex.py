"""Bounded dual simplex on depth LPs, against scipy's HiGHS solver.

The LP form throughout is the depth LP: max sum(x) subject to A x = 0 and
0 <= x <= w, where column i of A is x_i - x for atoms x_i of weight w_i.
"""

import numpy as np
import pytest
from highs_oracle import highs_depth_lp

from liftzonoid import simplex
from liftzonoid.errors import NotConverged
from liftzonoid.measures import _SELECT_BASE
from liftzonoid.simplex import solve_bounded_lp


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
    return (pts - x).T, w


def _small_depth_lp(rng):
    """A depth LP with d in 1..4 and up to a few dozen atoms, of a random kind."""
    d = int(rng.integers(1, 5))
    n = int(rng.integers(d + 2, 40))
    return _depth_lp(rng, ["gaussian", "weighted", "grid"][int(rng.integers(3))], d, n)


@pytest.mark.parametrize("seed", range(20))
def test_matches_highs_on_random_programs(seed):
    A, w = _small_depth_lp(np.random.default_rng(seed))
    res = solve_bounded_lp(A, w)
    assert res.objective == pytest.approx(highs_depth_lp(A, w), abs=1e-9)
    # returned point is feasible
    np.testing.assert_allclose(A @ res.x, 0.0, atol=1e-12)
    assert np.all(res.x >= -1e-12)
    assert np.all(res.x <= w + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_strong_duality_certificate(seed):
    # the dual objective at the returned y is the lift-zonoid support
    # function sum_i w_i max(0, 1 - <y, a_i>), and it meets the optimum
    A, w = _small_depth_lp(np.random.default_rng(100 + seed))
    res = solve_bounded_lp(A, w)
    dual_value = float(w @ np.maximum(1.0 - res.dual @ A, 0.0))
    assert dual_value == pytest.approx(res.objective, abs=1e-12)


def test_depth_lp_worked_example():
    # two atoms at -1 and 1 with weight 1/2 each, probed at x = 0.5:
    # max d1 + d2, -1.5 d1 + 0.5 d2 = 0, 0 <= di <= 1/2
    A = np.array([[-1.5, 0.5]])
    res = solve_bounded_lp(A, np.full(2, 0.5))
    assert res.objective == pytest.approx(2.0 / 3.0, abs=1e-14)
    np.testing.assert_allclose(res.x, [1.0 / 6.0, 0.5], atol=1e-14)
    # dual bound sum_i w_i (1 - y (x_i - x))_+ collapses to the same value
    rc = 1.0 - res.dual @ A
    assert np.sum(0.5 * np.maximum(rc, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_degenerate_basis_flagged():
    # two atoms at -1 and 1 probed at their mean: both loadings reach their
    # weights, so the one atom in the basis sits on its upper bound
    res = solve_bounded_lp(np.array([[-1.0, 1.0]]), np.full(2, 0.5))
    assert res.objective == pytest.approx(1.0, abs=1e-15)
    assert res.degenerate_basis


def test_unrepairable_row_raises_not_converged(monkeypatch, near_flat_fuzz):
    # the 75th cloud of the near-flat fuzz (n = 6, d = 2, thickness 2.6e-8)
    # at its first atom:
    # rounding leaves a basic row that stays out of its box after every flip
    pts = near_flat_fuzz(74)
    moves = []

    def recording(*args):
        moves.append(ratio_test(*args))
        return moves[-1]

    ratio_test = simplex._ratio_test
    monkeypatch.setattr(simplex, "_ratio_test", recording)
    with pytest.raises(NotConverged, match="lost feasibility to rounding"):
        solve_bounded_lp((pts - pts[0]).T, np.full(len(pts), 1.0 / len(pts)))
    assert moves[-1] is None


def test_singular_basis_raises_not_converged(monkeypatch, near_flat_fuzz):
    # the 248th cloud of the near-flat fuzz (n = 9, d = 5, thickness 4.6e-8)
    # at the midpoint
    # of its first two atoms meets a basis singular to working precision
    pts = near_flat_fuzz(247)
    failed = []

    def recording(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            failed.append(a)
            raise

    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", recording)
    with pytest.raises(NotConverged, match="lost feasibility to rounding"):
        solve_bounded_lp((pts - 0.5 * (pts[0] + pts[1])).T, np.full(len(pts), 1.0 / len(pts)))
    assert len(failed) == 1


def test_iteration_cap_raises_not_converged(monkeypatch):
    monkeypatch.setattr(simplex, "_ITERATION_CAP", 0)
    A = np.array([[-1.5, 0.5]])  # the worked example needs one basis change
    with pytest.raises(NotConverged, match="exceeded 0 iterations"):
        solve_bounded_lp(A, np.full(2, 0.5))


@pytest.mark.parametrize("seed", range(6))
def test_smallest_index_rule_on_tied_depth_lps(monkeypatch, seed):
    # duplicated integer atoms make many dual steps zero-length; switching
    # to the smallest-index rule after the first one must keep the optimum
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
    rng = np.random.default_rng(300 + seed)
    n = 200
    pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
    x = pts.mean(axis=0) + rng.uniform(0.0, 1.5) * (pts[rng.integers(n)] - pts.mean(axis=0))
    A, w = (pts - x).T, np.full(n, 1.0 / n)
    res = solve_bounded_lp(A, w)
    assert res.objective == pytest.approx(highs_depth_lp(A, w), abs=1e-9)
    np.testing.assert_allclose(A @ res.x, 0.0, atol=1e-12)


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


def _solve_or_error(lp):
    try:
        return solve_bounded_lp(*lp)
    except NotConverged as exc:
        return type(exc)


def _assert_same_solution(res, ref):
    if isinstance(ref, type):
        assert res is ref
        return
    assert (res.iterations, res.bound_flips) == (ref.iterations, ref.bound_flips)
    assert (res.dual_degenerate, res.degenerate_basis) == (ref.dual_degenerate, ref.degenerate_basis)
    assert res.objective == ref.objective
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
