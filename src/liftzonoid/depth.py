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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DegenerateMeasure
from .measures import Direction, EmpiricalMeasure, as_vector
from .simplex import solve_bounded_lp


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


# a depth LP optimum at or below this mass puts the point outside the hull
_LP_FEASIBILITY = 1e-9
# a dual |y| * radius at or below this is too short to give a direction
_NO_DIRECTION = 1e-14
# x within this many radii of the farthest atom along the direction is on the hull
_BOUNDARY_WINDOW = 1e-9


def zonoid_depth(mu: EmpiricalMeasure, point) -> DepthCertificate:
    """Depth of ``point`` in ``mu`` with representation and dual certificate."""
    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError("zonoid_depth expects an empirical measure")
    x = as_vector(point, dim=mu.dim, name="point")
    check_affine_span(mu)
    if float(np.linalg.norm(x - mu.mean())) <= DEFAULT_TOLS.mean_radius * mu.radius:
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
    res = solve_bounded_lp((mu.points - x).T, mu.weights)
    alpha = float(res.objective)
    if alpha <= _LP_FEASIBILITY:
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
    direction = Direction(-y / norm_y) if norm_y * mu.radius > _NO_DIRECTION else None  # y is 1/length
    status = DepthStatus.INTERIOR
    if direction is not None:
        proj = mu.points @ direction.vec
        if float(proj.max()) - float(x @ direction.vec) <= _BOUNDARY_WINDOW * mu.radius:
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
