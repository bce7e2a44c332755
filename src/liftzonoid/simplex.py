"""Bounded dual simplex with a bound-flipping ratio test.

Solves  max c'x  subject to  A x = b,  l <= x <= u,  for LPs with few rows
and possibly many columns. Every bound must be finite.

The start is the signed artificial basis, with the artificials boxed at
[0, 0], and every nonbasic column on the bound its reduced-cost sign asks
for. In an all-finite box LP every basis is then dual feasible, so there
is no phase one: each iteration picks a basic row outside its box and
minimizes the piecewise-linear dual function

    D(y) = b'y + sum_j max(l_j rc_j(y), u_j rc_j(y)),  rc_j(y) = c_j - y'a_j,

exactly along that row's dual direction. The long-step ratio test passes
every breakpoint at which D still descends, flipping those columns to
their other bound, and the column at the last breakpoint enters the basis
(Koberstein, "The dual simplex method, techniques for a fast and stable
implementation", 2005). For the depth LP, D(y) is the lift-zonoid support
function E(1 + <v, X - x>)_+ at v = -y. A row that stays out of its box
after every flip proves the LP infeasible.

The m x m basis is inverted afresh every iteration, which is cheap at
these row counts and sidesteps update drift. Leaving rows follow exact
dual steepest-edge pricing until a streak of zero-length dual steps, after
which the smallest-index rule takes over to guarantee termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import NotConverged

_PIVOT_TOL = 1e-9  # smaller |alpha_rj| defines no breakpoint
_PRIMAL_TOL = 1e-11  # box violation accepted, relative to the largest bound
_DUAL_TOL = 1e-11  # reduced-cost slack, relative to the largest cost
_DEGENERATE_STREAK = 30


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    dual: np.ndarray | None
    objective: float
    iterations: int  # dual basis changes
    bound_flips: int  # nonbasic columns moved to their other bound
    dual_degenerate: bool
    # a basic variable sits on one of its bounds, so neighboring bases
    # (and with them the dual vector) may be equally optimal
    degenerate_basis: bool = False


def solve_bounded_lp(
    A,
    b,
    c,
    lower,
    upper,
    *,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Maximize c'x subject to A x = b and l <= x <= u, all bounds finite."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("solve_bounded_lp needs finite lower and upper bounds")
    m, n = A.shape
    if max_iterations is None:
        max_iterations = 200 + 50 * (n + m)
    # equilibrate rows so that the tolerances below mean the same at any scale
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    b = b / row_scale

    # columns n.. are signed artificials boxed at [0, 0]; once they leave
    # the basis they are fixed, like every column with l = u
    at_upper = np.concatenate([c > 0.0, np.zeros(m, dtype=bool)])
    residual = b - A @ np.where(at_upper[:n], upper, lower)
    cols = np.hstack([A, np.where(residual >= 0.0, 1.0, -1.0) * np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.zeros(m)])
    width = hi - lo
    movable = width > 0.0
    basis = np.arange(n, n + m)
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False
    tol_p = _PRIMAL_TOL * (1.0 + max(float(np.abs(lo).max()), float(np.abs(hi).max())))
    tol_d = _DUAL_TOL * (1.0 + float(np.abs(c).max(initial=0.0)))

    iterations = flips = degenerate_run = 0
    bland = False
    while True:
        binv = np.linalg.inv(cols[:, basis])
        y = cost[basis] @ binv
        rc = cost - y @ cols
        # rounding may leave a reduced cost on the wrong side of its bound
        wrong = nonbasic & movable & np.where(at_upper, rc < -tol_d, rc > tol_d)
        if wrong.any():
            at_upper ^= wrong
            flips += int(wrong.sum())
        x = np.where(nonbasic & at_upper, hi, np.where(nonbasic, lo, 0.0))
        x[basis] = binv @ (b - cols @ x)
        below = lo[basis] - x[basis]
        above = x[basis] - hi[basis]
        excess = np.maximum(below, above)
        rows = np.flatnonzero(excess > tol_p)
        if rows.size == 0:
            break
        if iterations >= max_iterations:
            raise NotConverged(f"dual simplex exceeded {max_iterations} iterations")

        if bland:
            r = int(rows[np.argmin(basis[rows])])
        else:  # dual steepest edge: the edge norms are the rows of B^-1
            r = int(rows[np.argmax(excess[rows] ** 2 / np.sum(binv[rows] ** 2, axis=1))])
        # the leaving variable heads for the bound it violates; along the
        # dual step rc_j falls by sign * alpha_j per unit length
        sign = 1.0 if below[r] > 0.0 else -1.0
        alpha = binv[r] @ cols
        slope = np.where(at_upper, sign * alpha, -sign * alpha)
        # tiny pivots are taken only when the row cannot be repaired without
        # them; if it cannot be repaired with them either, D descends forever
        for pivot_tol in (_PIVOT_TOL, 0.0):
            cand = np.flatnonzero(nonbasic & movable & (slope > pivot_tol))
            gap = np.where(at_upper[cand], rc[cand], -rc[cand])
            ratio = np.maximum(gap, 0.0) / np.abs(alpha[cand])
            order = np.argsort(ratio, kind="stable")
            cand, ratio = cand[order], ratio[order]
            # descent rate of D after passing each breakpoint
            descent = excess[r] - np.cumsum(np.abs(alpha[cand]) * width[cand])
            passed = np.flatnonzero(descent <= tol_p)
            if passed.size:
                break
        else:
            return SimplexResult("infeasible", None, None, -np.inf, iterations, flips, False)
        k = int(passed[0])
        # Harris window: among breakpoints within tolerance of the first
        # one that stops the descent, enter the most stable column
        tail = cand[k:]
        harris = float(np.min((np.abs(rc[tail]) + tol_d) / np.abs(alpha[tail])))
        window = tail[ratio[k:] <= harris]
        q = int(window.min()) if bland else int(window[np.argmax(np.abs(alpha[window]))])

        at_upper[cand[:k]] ^= True
        flips += k
        leaving = basis[r]
        at_upper[leaving] = sign < 0.0
        nonbasic[leaving] = True
        nonbasic[q] = False
        at_upper[q] = False
        basis[r] = q
        iterations += 1
        if abs(rc[q]) <= tol_d:
            degenerate_run += 1
            bland = bland or degenerate_run >= _DEGENERATE_STREAK
        else:
            degenerate_run = 0

    free = nonbasic & movable
    free[n:] = False  # degeneracy is judged over real columns only
    dual_degenerate = bool(np.any(np.abs(rc[free]) <= DEFAULT_TOLS.dual_degenerate))
    xb, lb, ub = x[basis], lo[basis], hi[basis]
    on_bound = np.minimum(np.abs(xb - lb), np.abs(xb - ub)) <= 1e-9 * (1.0 + np.abs(xb))
    degenerate_basis = bool(np.any(on_bound))  # a basic artificial is always on [0, 0]
    x = x[:n].copy()
    return SimplexResult(
        "optimal", x, y / row_scale, float(c @ x), iterations, flips,
        dual_degenerate, degenerate_basis,
    )
