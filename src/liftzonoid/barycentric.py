"""Half-space barycenter representations and barycentric coordinates.

Every interior point x of the convex support admits a half-space H with
barycenter(H) = x; for continuous measures H is unique up to null sets,
for empirical measures the marginal atom makes it non-unique and the
solver says so. A point is equivalently identified by three coordinate
pairs sharing one direction u: the half-space offset a, the support
value h = <x, u> of the trimmed region through x, and the depth alpha.

The empirical solver runs the depth LP and reads the supporting
direction off the dual; the Gaussian solver delegates to the closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLS
from .depth import DepthStatus, zonoid_depth
from .errors import (
    DomainError,
    MeanPoint,
    NoDual,
    OutsideSupport,
    ZeroMass,
)
from .gaussian import RepresentationResult, gaussian_represent
from .measures import (
    Direction,
    EmpiricalMeasure,
    GaussianMeasure,
    HalfSpace,
    as_vector,
    length,
)
from .zonoid import TrimmedRegionQuery, support_trimmed, trimmed_boundary_point


class CoordKind(str, Enum):
    OFFSET = "offset"
    SUPPORT = "support"
    DEPTH = "depth"


@dataclass(frozen=True)
class BarycentricCoords:
    """One of the three (scalar, direction) identifications of a point.

    OFFSET pairs the half-space offset a with u, SUPPORT the support
    value h of the trimmed region through the point, DEPTH the depth
    alpha in (0, 1].
    """

    kind: CoordKind
    scalar: float
    direction: Direction

    def __post_init__(self):
        kind = CoordKind(self.kind)
        object.__setattr__(self, "kind", kind)
        s = float(self.scalar)
        if kind is CoordKind.DEPTH:
            if not 0.0 < s <= 1.0:
                raise DomainError(f"depth coordinate {s!r} outside (0, 1]")
        elif kind is CoordKind.SUPPORT:
            if not math.isfinite(s):
                raise DomainError(f"support coordinate must be finite, got {s!r}")
        elif not (math.isfinite(s) or s == -math.inf):
            raise DomainError(f"offset coordinate must be finite or -inf, got {s!r}")
        object.__setattr__(self, "scalar", s)

    def to_json_dict(self) -> dict:
        s = "-inf" if self.scalar == -math.inf else self.scalar
        return {"kind": self.kind.value, "scalar": s, "u": self.direction.vec.tolist()}


def represent(mu, point) -> RepresentationResult:
    """Half-space whose barycenter is ``point``, with honesty flags.

    Gaussian measures use the exact closed form. Empirical measures take
    the depth LP dual direction and the upper quantile offset; the
    reported residual is the gap between the closed half-space
    barycenter and the point, which is genuinely nonzero when a marginal
    atom must be split, and ``unique`` is false in that case.
    """
    x = as_vector(point, dim=mu.dim, name="point")
    if isinstance(mu, GaussianMeasure):
        return gaussian_represent(mu, x)
    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError(f"unsupported measure type {type(mu).__name__}")
    if mu.is_mean(x):  # before the depth LP's span check, which a flat cloud fails
        return RepresentationResult.at_mean(mu, x)
    cert = zonoid_depth(mu, x)
    if cert.status is DepthStatus.OUTSIDE or cert.depth < DEFAULT_TOLS.alpha_floor:
        raise OutsideSupport(
            f"depth {cert.depth:.3g} below representable floor {DEFAULT_TOLS.alpha_floor}"
        )
    if cert.dual_direction is None:
        raise NoDual("depth LP produced no usable dual direction")
    alpha = cert.depth
    u = cert.dual_direction
    offset = mu.upper_quantile(u, alpha)
    hs = HalfSpace(u, offset)
    residual = float(length(mu.halfspace_barycenter(hs) - x))
    inclusion = cert.loading.fractional_inclusion(alpha)  # of the at most d fractional atoms
    tol = DEFAULT_TOLS.degenerate
    fractional = bool(np.any((inclusion > tol) & (inclusion < 1.0 - tol)))
    unique = not (fractional or cert.dual_degenerate)
    return RepresentationResult(
        halfspace=hs, alpha=alpha, residual=residual, unique=unique, method="lp-dual"
    )


def coords_from_point(mu, point, kind) -> BarycentricCoords:
    """Barycentric coordinates of an interior point in the requested form.

    Raises ``MeanPoint`` where ``represent`` answers with the whole space.
    """
    kind = CoordKind(kind)
    x = as_vector(point, dim=mu.dim, name="point")
    rep = represent(mu, x)
    if rep.halfspace.is_whole_space:
        raise MeanPoint("the mean has no direction; every form degenerates there")
    u = rep.halfspace.direction
    if kind is CoordKind.OFFSET:
        scalar = rep.halfspace.offset
    elif kind is CoordKind.SUPPORT:
        scalar = float(x @ u.vec)
    else:
        scalar = rep.alpha
    return BarycentricCoords(kind=kind, scalar=scalar, direction=u)


def point_from_coords(mu, coords: BarycentricCoords) -> np.ndarray:
    """Invert a coordinate pair back to the point it identifies."""
    u = coords.direction
    if coords.kind is CoordKind.OFFSET:
        return mu.halfspace_barycenter(HalfSpace(u, coords.scalar))
    if coords.kind is CoordKind.DEPTH:
        if coords.scalar >= 1.0:
            return mu.mean()
        return trimmed_boundary_point(mu, TrimmedRegionQuery(coords.scalar, u))
    # the inversion's split at the support level fixes the boundary point
    split = mu.project(u.vec).split_at_level(coords.scalar)
    return mu.mean() if split.alpha >= 1.0 else mu.tail_barycenter(split, u)


def convert_coords(mu, coords: BarycentricCoords, kind) -> BarycentricCoords:
    """Convert between the three forms keeping the direction fixed.

    The scalars are linked through alpha: mass of the offset half-space,
    inverse of the support map, or the depth itself. From a support value
    the inversion's split also gives the offset, its threshold.
    """
    kind = CoordKind(kind)
    if kind is coords.kind:
        return coords
    u = coords.direction
    split = None
    if coords.kind is CoordKind.OFFSET:
        alpha = mu.halfspace_mass(HalfSpace(u, coords.scalar))
        if alpha <= 0.0:
            raise ZeroMass("offset half-space carries no mass")
    elif coords.kind is CoordKind.SUPPORT:
        split = mu.project(u.vec).split_at_level(coords.scalar)
        alpha = split.alpha
    else:
        alpha = coords.scalar
    if kind is CoordKind.DEPTH:
        scalar = alpha
    elif kind is CoordKind.SUPPORT:
        scalar = support_trimmed(mu, TrimmedRegionQuery(alpha, u))
    else:
        scalar = mu.upper_quantile(u, alpha) if split is None else split.threshold
    return BarycentricCoords(kind=kind, scalar=scalar, direction=u)
