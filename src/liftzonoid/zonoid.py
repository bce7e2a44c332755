"""Support functions of zonoids, lift zonoids, and trimmed regions.

The zonoid of a measure is the set of vectors E[g(X) X] over measurable
g with values in [0, 1]; its support function in direction u is
E<X, u>_+. The lift zonoid prepends the mass coordinate E[g(X)] and has
support E(t + <X, u>)_+ along a lifted direction (t, u). The trimmed
region at level alpha collects the normalized barycenters (1/alpha)
E[g(X) X] with E[g(X)] = alpha; its support function integrates the
upper-alpha tail of the projection. For finite measures everything is
explicit: zonoids are zonotopes and tail integrals are greedy partial
sums with a fractional marginal atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DimensionMismatch, DomainError, NonFinite, WrongDimension
from .measures import (
    Direction,
    EmpiricalMeasure,
    as_vector,
    length,
    _check_alpha,
    _freeze,
)


@dataclass(frozen=True, eq=False)
class LiftDirection:
    """Direction (t, u) in lifted space, normalized to unit Euclidean norm."""

    t: float
    spatial: np.ndarray

    def __post_init__(self):
        u = as_vector(self.spatial, name="lift direction")
        t = float(self.t)
        if math.isnan(t):
            raise NonFinite("lift direction has NaN mass component")
        n = math.hypot(t, float(length(u)))
        if abs(n - 1.0) > DEFAULT_TOLS.unit_norm:
            raise DomainError(f"lift direction norm {n!r} is not 1 within {DEFAULT_TOLS.unit_norm}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "spatial", _freeze(u))

    @classmethod
    def of(cls, t: float, spatial) -> "LiftDirection":
        t = float(t)
        if not math.isfinite(t):  # an infinite t would normalize to a NaN
            raise NonFinite(f"lift coordinate t must be finite, got {t!r}")
        u = as_vector(spatial, name="lift direction")
        n = math.hypot(t, float(length(u)))
        if n == 0.0:
            raise DomainError("cannot normalize the zero lift direction")
        return cls(t / n, u / n)


@dataclass(frozen=True)
class TrimmedRegionQuery:
    """A trimming level alpha in (0, 1] paired with a query direction."""

    alpha: float
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))


@dataclass(frozen=True, eq=False)
class Polygon2D:
    """Convex polygon as counterclockwise vertices, shape (k, 2)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] == 0:
            raise DimensionMismatch(f"polygon vertices must be (k, 2), got {v.shape}")
        object.__setattr__(self, "vertices", _freeze(v))

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def support(self, u) -> float:
        """Support function max over vertices of <v, u>."""
        u = as_vector(u, dim=2, name="direction")
        return float(np.max(self.vertices @ u))


def support_zonoid(mu, direction: Direction) -> float:
    """Support function of the zonoid: E <X, u>_+."""
    return mu.project(direction.vec).positive_part_mean(0.0)


def support_lift_zonoid(mu, lift: LiftDirection) -> float:
    """Support function of the lift zonoid along the normalized (t, u)."""
    return mu.project(lift.spatial).positive_part_mean(lift.t)


def support_trimmed(mu, query: TrimmedRegionQuery) -> float:
    """Support function of the alpha-trimmed region.

    Equals (1/alpha) times the integral of the projection over its
    upper-alpha mass; decreasing in alpha, with value <mean, u> at
    alpha = 1.
    """
    return mu.project(query.direction.vec).tail_mean(query.alpha)


def trimmed_boundary_point(mu, query: TrimmedRegionQuery) -> np.ndarray:
    """Boundary point of the trimmed region attaining the support in u.

    Empirical measures include atoms above the marginal projection value
    fully and split the residual mass over the tied marginal atoms in
    proportion to their weights. Gaussian measures reduce to the
    half-space barycenter at the upper-alpha quantile.
    """
    u = query.direction
    return mu.tail_barycenter(mu.project(u.vec).split(query.alpha), u)


# zonotope_polygon_2d's cutoffs. A generator shorter than this share of the
# largest generator coordinate is a few ulps of rounding and spans no edge
_NULL_GENERATOR = 1e-15
# generators whose angles differ by at most this many radians are parallel up to rounding: one edge
_SAME_ANGLE = 1e-12
# a vertex within this share of the largest generator coordinate of its predecessor repeats it
_SAME_VERTEX = 1e-12


def zonotope_polygon_2d(mu: EmpiricalMeasure) -> Polygon2D:
    """Exact vertex polygon of the zonotope of a planar empirical measure.

    Classical construction: each weighted atom contributes the segment
    [0, w_i x_i]; generators are reflected into the upper half-plane
    (tracking the translation), merged when collinear, sorted by angle,
    and walked around the boundary. Runs in O(n log n); the polygon has
    at most 2n vertices.
    """
    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError("zonotope_polygon_2d expects an empirical measure")
    if mu.dim != 2:
        raise WrongDimension(f"zonotope polygon is defined for dimension 2, not {mu.dim}")
    gens = mu.weights[:, None] * mu.points
    scale = float(np.abs(gens).max()) if gens.size else 0.0
    keep = length(gens, axis=1) > _NULL_GENERATOR * scale
    gens = gens[keep]
    if gens.shape[0] == 0:
        return Polygon2D(np.zeros((1, 2)))
    flip = (gens[:, 1] < 0.0) | ((gens[:, 1] == 0.0) & (gens[:, 0] < 0.0))
    base = gens[flip].sum(axis=0)  # translation from re-rooting flipped segments
    upper = np.where(flip[:, None], -gens, gens)
    angles = np.arctan2(upper[:, 1], upper[:, 0])
    order = np.argsort(angles, kind="stable")
    upper, angles = upper[order], angles[order]
    # merge generators that point the same way (collinear edges)
    starts = np.flatnonzero(np.r_[True, np.diff(angles) > _SAME_ANGLE])
    edges = np.add.reduceat(upper, starts, axis=0)
    verts = np.cumsum(np.vstack([base, edges, -edges]), axis=0)[:-1]  # the last step returns to base
    # drop a vertex that repeats its predecessor; at the wrap, the last one goes
    dup = np.all(np.abs(verts - np.roll(verts, 1, axis=0)) <= _SAME_VERTEX * scale, axis=1)
    dup[-1] |= dup[0]
    dup[0] = False
    return Polygon2D(verts[~dup])
