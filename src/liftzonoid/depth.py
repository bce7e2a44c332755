"""Zonoid data depth for empirical measures.

The depth of x is the largest alpha such that x lies in the alpha-trimmed
region; equivalently the optimal value of

    max sum(delta_i)  s.t.  sum_i delta_i (x_i - x) = 0,  0 <= delta_i <= w_i,

solved here with the in-package bounded dual simplex, whose line searches
run on the LP dual, the lift-zonoid support function
min_v E(1 + <v, X - x>)_+. The optimal delta, normalized by its total
mass, is a convex representation gamma of x with max_i gamma_i / w_i =
1/depth. All but at most d atoms sit at 0 or at full weight, so the
certificate packs gamma into a bit mask plus the fractional entries. The
simplex multipliers y on the balance rows give the supporting direction
of the trimmed region at x: u = -y/||y||.

A brute-force oracle (bisection over alpha with grid support checks and
exact membership feasibility solved by an unrelated LP backend) is kept
deliberately independent of the simplex path for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DegenerateMeasure, NoDual, NonFinite, NotConverged, TooLarge
from .measures import Direction, EmpiricalMeasure, as_vector
from .sampling import direction_grid
from .simplex import solve_bounded_lp

_ORACLE_MAX_ATOMS = 12
_ORACLE_MAX_DIM = 3


class DepthStatus(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"
    MEAN = "mean"


@dataclass(frozen=True, eq=False, slots=True)
class _PackedLoading:
    """delta / mass; delta is w on a packed mask, value at index, else 0."""

    weights: np.ndarray
    full: np.ndarray  # np.packbits of delta == weights
    index: np.ndarray
    value: np.ndarray
    mass: float

    @classmethod
    def pack(cls, weights: np.ndarray, delta: np.ndarray, mass: float) -> "_PackedLoading":
        full = delta == weights
        index = np.flatnonzero((delta != 0.0) & ~full)
        return cls(weights, np.packbits(full), index, delta[index], mass)

    def unpack(self) -> np.ndarray:
        full = np.unpackbits(self.full, count=self.weights.size).view(bool)
        delta = np.where(full, self.weights, 0.0)
        delta[self.index] = self.value
        return delta / self.mass


@dataclass(frozen=True, eq=False, slots=True)
class DepthCertificate:
    """Depth value with its witnessing data.

    ``atom_weights`` is the convex representation gamma of the query
    point (None when outside), rebuilt on each access; ``dual_direction``
    supports the trimmed region at the query point (None at the mean or
    outside); ``max_weight_ratio`` is max_i gamma_i / w_i = 1/depth.
    ``iterations`` counts dual simplex basis changes and ``bound_flips``
    the atoms the long-step ratio test moved between 0 and full weight.
    """

    depth: float
    status: DepthStatus
    dual_direction: Direction | None
    max_weight_ratio: float | None
    iterations: int
    bound_flips: int
    dual_degenerate: bool
    loading: _PackedLoading | None = field(default=None, repr=False)

    @property
    def atom_weights(self) -> np.ndarray | None:
        return None if self.loading is None else self.loading.unpack()

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "status": self.status.value,
            "dual_direction": None
            if self.dual_direction is None
            else self.dual_direction.vec.tolist(),
            "max_weight_ratio": self.max_weight_ratio,
            "iterations": self.iterations,
            "bound_flips": self.bound_flips,
            "dual_degenerate": self.dual_degenerate,
        }


def check_affine_span(mu: EmpiricalMeasure) -> None:
    """Raise DegenerateMeasure unless the atoms affinely span the space."""
    rank = mu.affine_rank  # computed once per measure
    if rank == 0:
        raise DegenerateMeasure("all atoms coincide; no affine span")
    if rank < mu.dim:
        raise DegenerateMeasure(
            f"atoms affinely span a {rank}-dimensional subspace of R^{mu.dim}"
        )


def zonoid_depth(mu: EmpiricalMeasure, point) -> DepthCertificate:
    """Depth of ``point`` in ``mu`` with representation and dual certificate."""
    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError("zonoid_depth expects an empirical measure")
    x = as_vector(point, dim=mu.dim, name="point")
    check_affine_span(mu)
    mean = mu.mean()
    scale = 1.0 + float(np.abs(mu.points).max())
    if float(np.linalg.norm(x - mean)) <= DEFAULT_TOLS.mean_radius:
        return DepthCertificate(
            depth=1.0,
            status=DepthStatus.MEAN,
            dual_direction=None,
            max_weight_ratio=1.0,
            iterations=0,
            bound_flips=0,
            dual_degenerate=False,
            loading=_PackedLoading.pack(mu.weights, mu.weights, 1.0),
        )
    n = mu.size
    A = (mu.points - x).T  # (d, n)
    res = solve_bounded_lp(A, np.zeros(mu.dim), np.ones(n), np.zeros(n), mu.weights)
    if res.status != "optimal":  # b = 0 is feasible: only rounding gets here
        raise NotConverged(
            "depth LP lost feasibility to rounding; the atoms lie numerically "
            "close to a hyperplane"
        )
    alpha = float(res.objective)
    if alpha <= DEFAULT_TOLS.lp_feasibility:
        return DepthCertificate(
            depth=0.0,
            status=DepthStatus.OUTSIDE,
            dual_direction=None,
            max_weight_ratio=None,
            iterations=res.iterations,
            bound_flips=res.bound_flips,
            dual_degenerate=res.dual_degenerate,
        )
    alpha = min(alpha, 1.0)
    delta = np.maximum(res.x, 0.0)
    mass = float(delta.sum())
    y = res.dual
    norm_y = float(np.linalg.norm(y))
    direction = Direction(-y / norm_y) if norm_y > 1e-14 else None
    status = DepthStatus.INTERIOR
    if direction is not None:
        proj = mu.points @ direction.vec
        if float(proj.max()) - float(x @ direction.vec) <= 1e-9 * scale:
            status = DepthStatus.BOUNDARY
    return DepthCertificate(
        depth=alpha,
        status=status,
        dual_direction=direction,
        max_weight_ratio=float(np.max(delta / mass / mu.weights)),
        iterations=res.iterations,
        bound_flips=res.bound_flips,
        dual_degenerate=res.dual_degenerate or res.degenerate_basis,
        loading=_PackedLoading.pack(mu.weights, delta, mass),
    )


def depth_dual_direction(certificate: DepthCertificate) -> Direction:
    """Supporting direction from a certificate; raises NoDual when absent."""
    if certificate.dual_direction is None:
        raise NoDual(f"no dual direction for status {certificate.status.value!r}")
    return certificate.dual_direction


def _grid_tail_tables(proj: np.ndarray, w: np.ndarray):
    """Per-direction descending projections with cumulative masses and sums."""
    order = np.argsort(-proj, axis=1, kind="stable")
    v_sorted = np.take_along_axis(proj, order, axis=1)
    w_sorted = w[order]
    cum_w = np.cumsum(w_sorted, axis=1)
    cum_vw = np.cumsum(v_sorted * w_sorted, axis=1)
    return v_sorted, cum_w, cum_vw


def _grid_supports(tables, alpha: float) -> np.ndarray:
    """h(D_alpha, u) for every grid direction, via the tail tables."""
    v_sorted, cum_w, cum_vw = tables
    k = np.argmax(cum_w >= alpha - 1e-12, axis=1)
    rows = np.arange(v_sorted.shape[0])
    below = np.where(k > 0, cum_vw[rows, np.maximum(k - 1, 0)], 0.0)
    mass_below = np.where(k > 0, cum_w[rows, np.maximum(k - 1, 0)], 0.0)
    residual = alpha - mass_below
    return (below + residual * v_sorted[rows, k]) / alpha


def depth_bruteforce_oracle(mu: EmpiricalMeasure, point, grid: int) -> float:
    """Depth by bisection over alpha, independent of the simplex path.

    Membership of x in the alpha-trimmed region is tested first against a
    quasi-uniform direction grid (a support-function violation proves
    non-membership) and then exactly as a feasibility LP handed to the
    HiGHS backend. Restricted to small instances.
    """
    import scipy.optimize  # the oracle's HiGHS backend; kept off the start-up path

    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError("depth_bruteforce_oracle expects an empirical measure")
    if mu.size > _ORACLE_MAX_ATOMS or mu.dim > _ORACLE_MAX_DIM:
        raise TooLarge(
            f"oracle accepts at most {_ORACLE_MAX_ATOMS} atoms in dimension <= {_ORACLE_MAX_DIM}"
        )
    x = as_vector(point, dim=mu.dim, name="point")
    if not np.all(np.isfinite(x)):
        raise NonFinite("query point contains non-finite entries")
    pts, w = mu.points, mu.weights
    n = mu.size
    scale = 1.0 + float(np.abs(pts).max())

    grid_dirs = direction_grid(mu.dim, max(int(grid), 1), seed=0)
    proj = grid_dirs @ pts.T  # (k, n)
    tables = _grid_tail_tables(proj, w)
    x_proj = grid_dirs @ x

    a_eq = np.vstack([pts.T, np.ones(n)])

    def member(alpha: float) -> bool:
        supports = _grid_supports(tables, alpha)
        if np.min(supports - x_proj) < -1e-12 * scale:
            return False
        b_eq = np.concatenate([alpha * x, [alpha]])
        lp = scipy.optimize.linprog(
            c=np.zeros(n),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0.0, float(wi)) for wi in w],
            method="highs",
            options={"primal_feasibility_tolerance": 1e-9},
        )
        return lp.status == 0

    # outside the convex hull entirely?
    hull = scipy.optimize.linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=np.concatenate([x, [1.0]]),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9},
    )
    if hull.status != 0:
        return 0.0
    lo, hi = 0.0, 1.0
    if member(1.0):
        return 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo
