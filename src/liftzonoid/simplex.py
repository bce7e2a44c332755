"""Bounded dual simplex with a bound-flipping ratio test, for the depth LP.

Solves the zonoid depth LP  max sum(x)  subject to  A x = 0,  0 <= x <= u,
where column i of A is x_i - x and u_i = w_i > 0, so A has few rows and
possibly many columns.

The start is the signed artificial basis, with the artificials boxed at
[0, 0], and every column at its upper bound, as its unit cost asks. Every
basis is then dual feasible, so there is no phase one: each iteration
picks a basic row outside its box and minimizes the piecewise-linear dual
function

    D(y) = sum_j u_j max(0, rc_j(y)),  rc_j(y) = 1 - y'a_j,

exactly along that row's dual direction. At v = -y, D(y) is the
lift-zonoid support function E(1 + <v, X - x>)_+. The long-step ratio
test passes every breakpoint at which D still descends, flipping those
columns to their other bound, and the column at the last breakpoint
enters the basis (Koberstein, "The dual simplex method, techniques for a
fast and stable implementation", 2005).

The LP is feasible at x = 0, so a row that stays out of its box after
every flip, or a basis singular to working precision, is an artifact of
rounding. The solver raises NotConverged where it meets either one, and
when the iteration cap runs out; it returns only optimal solutions.

The descent usually stops after a few dozen of its thousands of
breakpoints, so only a prefix of them is ordered: the ``_SELECT_BASE``
smallest ratios by ``np.partition``, then every breakpoint at or below that
pivot, in index order, stable-sorted. That prefix and its running sum are
exactly the first entries of a full stable sort's. The prefix doubles
while the descent has not stopped, up to the full set. The weighted
selection of ``measures.upper_mass_split`` is not used here: at a few
thousand breakpoints its per-round Python overhead costs as much as the
sort it would save.

The m x m basis is inverted afresh every iteration, which is cheap at
these row counts and sidesteps update drift. Leaving rows follow exact
dual steepest-edge pricing until a streak of zero-length dual steps, after
which the smallest-index rule takes over. That rule does not break every
cycle: on near-flat clouds a query can alternate between two bases until
the iteration cap ends it with NotConverged (ROADMAP item 18).

``dual_degenerate`` flags a nonbasic reduced cost at 0 and
``degenerate_basis`` a basic variable on a bound. ``zonoid_depth`` reports
the first alone on an OUTSIDE certificate, their OR on an INTERIOR or
BOUNDARY one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import NotConverged
from .measures import _SELECT_BASE

_PIVOT_TOL = 1e-9  # smaller |alpha_rj| defines no breakpoint
_PRIMAL_TOL = 1e-11  # box violation accepted, relative to the largest bound
_DUAL_TOL = 2e-11  # reduced-cost slack: 1e-11 relative to 1 + the unit cost
_DEGENERATE_STREAK = 30
_ITERATION_CAP = 50  # basis changes allowed per column, counting four spare columns
# only rounding makes the always-feasible depth LP look infeasible
_LOST_FEASIBILITY = (
    "depth LP lost feasibility to rounding; the atoms lie numerically close to a hyperplane"
)


@dataclass
class SimplexResult:
    x: np.ndarray
    dual: np.ndarray
    objective: float
    iterations: int  # dual basis changes
    bound_flips: int  # nonbasic columns moved to their other bound
    dual_degenerate: bool
    # a basic variable sits on one of its bounds, so neighboring bases
    # (and with them the dual vector) may be equally optimal
    degenerate_basis: bool = False


def solve_bounded_lp(A, upper) -> SimplexResult:
    """Maximize sum(x) subject to A x = 0 and 0 <= x <= upper.

    Raises NotConverged when rounding leaves a row no ratio test can
    repair or a basis singular to working precision, or after
    ``_ITERATION_CAP`` basis changes per column.
    """
    A = np.asarray(A, dtype=float)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    m, n = A.shape
    max_iterations = _ITERATION_CAP * (n + m + 4)
    # equilibrate rows so that the tolerances below mean the same at any scale
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]

    # every column starts at its upper bound; columns n.. are signed
    # artificials boxed at [0, 0], fixed once they leave the basis
    at_upper = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    cols = np.hstack([A, np.where(A @ upper <= 0.0, 1.0, -1.0) * np.eye(m)])
    cost = np.concatenate([np.ones(n), np.zeros(m)])
    hi = np.concatenate([upper, np.zeros(m)])
    movable = hi > 0.0
    basis = np.arange(n, n + m)
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False
    tol_p = _PRIMAL_TOL * (1.0 + float(hi.max()))

    iterations = flips = degenerate_run = 0
    bland = False
    while True:
        try:
            binv = np.linalg.inv(cols[:, basis])
        except np.linalg.LinAlgError:
            raise NotConverged(_LOST_FEASIBILITY) from None
        y = cost[basis] @ binv
        rc = cost - y @ cols
        # rounding may leave a reduced cost on the wrong side of its bound
        wrong = nonbasic & movable & np.where(at_upper, rc < -_DUAL_TOL, rc > _DUAL_TOL)
        if wrong.any():
            at_upper ^= wrong
            flips += int(wrong.sum())
        x = np.where(nonbasic & at_upper, hi, 0.0)
        x[basis] = binv @ -(cols @ x)
        below = -x[basis]
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
        move = _ratio_test(
            alpha, rc, slope, nonbasic & movable, at_upper, hi, excess[r], tol_p, _DUAL_TOL, bland
        )
        if move is None:
            raise NotConverged(_LOST_FEASIBILITY)
        flipped, q = move
        at_upper[flipped] ^= True
        flips += flipped.size
        leaving = basis[r]
        at_upper[leaving] = sign < 0.0
        nonbasic[leaving] = True
        nonbasic[q] = False
        at_upper[q] = False
        basis[r] = q
        iterations += 1
        if abs(rc[q]) <= _DUAL_TOL:
            degenerate_run += 1
            bland = bland or degenerate_run >= _DEGENERATE_STREAK
        else:
            degenerate_run = 0

    # degeneracy is judged over real columns only: artificials never move
    dual_degenerate = bool(np.any(np.abs(rc[nonbasic & movable]) <= DEFAULT_TOLS.degenerate))
    xb = x[basis]
    on_bound = np.minimum(np.abs(xb), np.abs(xb - hi[basis])) <= DEFAULT_TOLS.degenerate * (1.0 + np.abs(xb))
    degenerate_basis = bool(np.any(on_bound))  # a basic artificial is always on [0, 0]
    x = x[:n].copy()
    return SimplexResult(
        x, y / row_scale, float(np.ones(n) @ x), iterations, flips, dual_degenerate, degenerate_basis
    )


def _ratio_test(alpha, rc, slope, free, at_upper, width, excess, tol_p, tol_d, bland):
    """Long-step ratio test along the dual direction of one leaving row.

    Returns ``(flipped, q)``: the columns whose breakpoints the descent
    passes, which move to their other bound, and the entering column q;
    or None when D descends past every breakpoint. Only the passed prefix
    of the breakpoints is ordered (see the module docstring).
    """
    # tiny pivots are taken only when the row cannot be repaired without
    # them; if it cannot be repaired with them either, D descends forever
    for pivot_tol in (_PIVOT_TOL, 0.0):
        cand = np.flatnonzero(free & (slope > pivot_tol))
        size = np.abs(alpha[cand])
        gap = np.where(at_upper[cand], rc[cand], -rc[cand])
        ratio = np.maximum(gap, 0.0) / size
        step = size * width[cand]
        m = _SELECT_BASE
        while True:
            if m < cand.size:
                prefix = np.flatnonzero(ratio <= np.partition(ratio, m - 1)[m - 1])
            else:
                prefix = np.arange(cand.size)
            prefix = prefix[np.argsort(ratio[prefix], kind="stable")]
            # descent rate of D after passing each breakpoint
            passed = np.flatnonzero(excess - np.cumsum(step[prefix]) <= tol_p)
            if passed.size or prefix.size == cand.size:
                break
            m *= 2
        if passed.size:
            break
    else:
        return None
    flipped, stop = prefix[: passed[0]], prefix[passed[0]]
    # Harris window: among the breakpoints not passed that lie within
    # tolerance of the first one that stops the descent, enter the most
    # stable column; ties go to the smaller ratio, then the smaller index,
    # as in a stable sort. A breakpoint's tolerance bound is at least its
    # ratio, so none above the stopping one's bound can set the window.
    near = np.ones(cand.size, dtype=bool)
    near[flipped] = False
    near = np.flatnonzero(near & (ratio <= (abs(rc[cand[stop]]) + tol_d) / size[stop]))
    harris = float(np.min((np.abs(rc[cand[near]]) + tol_d) / size[near]))
    window = near[ratio[near] <= harris]
    if bland:
        return cand[flipped], int(cand[window[0]])
    best = window[size[window] == size[window].max()]
    return cand[flipped], int(cand[best[np.argmin(ratio[best])]])
