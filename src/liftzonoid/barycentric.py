"""Half-space barycenter representations and barycentric coordinates.

Every interior point x of the convex support admits a half-space H with
barycenter(H) = x; for continuous measures H is unique up to null sets,
for empirical measures the marginal atom makes it non-unique and the
solver says so. A point is equivalently identified by three coordinate
pairs sharing one direction u: the half-space offset a, the support
value h = <x, u> of the trimmed region through x, and the depth alpha.

The empirical solver runs the depth LP and reads the supporting
direction off the dual; the Gaussian solver delegates to the closed
forms. An optional single Gauss-Newton polish over (u, a) is available
for empirical measures that approximate a continuous one by sampling.
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
    NotConverged,
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
)
from .normal import normal_cdf, normal_sf
from .zonoid import TrimmedRegionQuery, support_trimmed, trimmed_boundary_point

_FRACTION_TOL = 1e-9


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


def _mean_result(mu, x: np.ndarray) -> RepresentationResult:
    return RepresentationResult(
        halfspace=HalfSpace.whole_space(mu.dim),
        alpha=1.0,
        residual=float(np.linalg.norm(mu.mean() - x)),
        unique=True,
        method="closed-form",
    )


def _barycenter_gap(mu, u_raw: np.ndarray, a: float, x: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(u_raw))
    if norm == 0.0:
        raise ZeroMass("degenerate direction during refinement")
    return mu.halfspace_barycenter(HalfSpace(Direction(u_raw / norm), a)) - x


def _refine(mu, x: np.ndarray, hs: HalfSpace, residual: float):
    """One Gauss-Newton step on (u, a); returns (halfspace, residual, accepted)."""
    d = mu.dim
    u0 = np.array(hs.direction.vec)
    a0 = hs.offset
    step = DEFAULT_TOLS.refine_step
    try:
        gap0 = _barycenter_gap(mu, u0, a0, x)
        jac = np.empty((d, d + 1))
        for j in range(d):
            probe = np.array(u0)
            probe[j] += step
            jac[:, j] = (_barycenter_gap(mu, probe, a0, x) - gap0) / step
        jac[:, d] = (_barycenter_gap(mu, u0, a0 + step, x) - gap0) / step
        delta = np.linalg.lstsq(jac, -gap0, rcond=None)[0]
        u1 = u0 + delta[:d]
        a1 = a0 + float(delta[d])
        gap1 = _barycenter_gap(mu, u1, a1, x)
    except (ZeroMass, np.linalg.LinAlgError):
        return hs, residual, False
    res1 = float(np.linalg.norm(gap1))
    if not math.isfinite(res1) or res1 >= residual:
        return hs, residual, False
    norm = float(np.linalg.norm(u1))
    return HalfSpace(Direction(u1 / norm), a1), res1, True


def represent(mu, point, refine: bool = False, residual_tol: float | None = None) -> RepresentationResult:
    """Half-space whose barycenter is ``point``, with honesty flags.

    Gaussian measures use the exact closed form. Empirical measures take
    the depth LP dual direction and the upper quantile offset; the
    reported residual is the gap between the strict half-space
    barycenter and the point, which is genuinely nonzero when a marginal
    atom must be split, and ``unique`` is false in that case. With
    ``refine`` a single Gauss-Newton step polishes (u, a); pass
    ``residual_tol`` to turn a still-large residual into NotConverged.
    """
    x = as_vector(point, dim=mu.dim, name="point")
    if isinstance(mu, GaussianMeasure):
        return gaussian_represent(mu, x)
    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError(f"unsupported measure type {type(mu).__name__}")
    if float(np.linalg.norm(x - mu.mean())) <= DEFAULT_TOLS.mean_radius:
        return _mean_result(mu, x)
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
    residual = float(np.linalg.norm(mu.halfspace_barycenter(hs) - x))
    # inclusion gamma_i alpha / w_i read off the packed loading: the common
    # ratio of the full atoms and the at most d fractional entries
    loading = cert.loading
    inclusion = loading.value / loading.mass * alpha / mu.weights[loading.index]
    if loading.full.any():
        inclusion = np.append(inclusion, alpha / loading.mass)
    fractional = bool(
        np.any((inclusion > _FRACTION_TOL) & (inclusion < 1.0 - _FRACTION_TOL))
    )
    unique = not (fractional or cert.dual_degenerate)
    method = "lp-dual"
    if refine:
        hs, residual, accepted = _refine(mu, x, hs, residual)
        if accepted:
            method = "refined"
    if residual_tol is not None and residual > residual_tol:
        raise NotConverged(
            f"representation residual {residual:.3g} exceeds tolerance {residual_tol:.3g}"
        )
    return RepresentationResult(
        halfspace=hs, alpha=alpha, residual=residual, unique=unique, method=method
    )


def coords_from_point(mu, point, kind) -> BarycentricCoords:
    """Barycentric coordinates of an interior point in the requested form."""
    kind = CoordKind(kind)
    x = as_vector(point, dim=mu.dim, name="point")
    if float(np.linalg.norm(x - mu.mean())) <= DEFAULT_TOLS.mean_radius:
        raise MeanPoint("the mean has no direction; every form degenerates there")
    rep = represent(mu, x)
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
    if coords.kind is CoordKind.SUPPORT:
        alpha = mu.project(u.vec).tail_mean_level(coords.scalar)
    else:
        alpha = coords.scalar
    if alpha >= 1.0:
        return mu.mean()
    return trimmed_boundary_point(mu, TrimmedRegionQuery(alpha, u))


def convert_coords(mu, coords: BarycentricCoords, kind) -> BarycentricCoords:
    """Convert between the three forms keeping the direction fixed.

    The scalars are linked through alpha: mass of the offset half-space,
    inverse of the support map, or the depth itself.
    """
    kind = CoordKind(kind)
    if kind is coords.kind:
        return coords
    u = coords.direction
    if coords.kind is CoordKind.OFFSET:
        alpha = mu.halfspace_mass(HalfSpace(u, coords.scalar))
        if alpha <= 0.0:
            raise ZeroMass("offset half-space carries no mass")
    elif coords.kind is CoordKind.SUPPORT:
        alpha = mu.project(u.vec).tail_mean_level(coords.scalar)
    else:
        alpha = coords.scalar
    if kind is CoordKind.DEPTH:
        scalar = alpha
    elif kind is CoordKind.SUPPORT:
        scalar = support_trimmed(mu, TrimmedRegionQuery(alpha, u))
    else:
        scalar = mu.upper_quantile(u, alpha)
    return BarycentricCoords(kind=kind, scalar=scalar, direction=u)


def _upper_orthant(c1: float, c2: float, rho: float) -> float:
    """P(Z1 >= c1, Z2 >= c2) for standard normals with correlation |rho| < 1.

    Owen's T form of the bivariate normal orthant (Owen 1956). A zero
    offset takes the limit from above: T(0, +-inf) = +-1/4.
    """
    if c1 == 0.0 and c2 == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    from scipy.special import owens_t  # no CLI command reaches this; kept off the start-up path

    root = math.sqrt(1.0 - rho * rho)

    def term(c, other):
        slope = other - rho * c
        if c == 0.0:
            return math.copysign(0.25, slope)
        return float(owens_t(c, slope / (c * root)))

    beta = 0.5 if (c1 < 0.0) != (c2 < 0.0) else 0.0
    return 0.5 * (normal_sf(c1) + normal_sf(c2)) - term(c1, c2) - term(c2, c1) - beta


def verify_uniqueness(mu, first: HalfSpace, second: HalfSpace) -> float:
    """Mass of the symmetric difference of two half-spaces under ``mu``.

    Exact for every measure: a finite sum for empirical measures; for
    Gaussians sf(c1) + sf(c2) - 2 P(Z1 >= c1, Z2 >= c2) at the
    standardized offsets, with the orthant probability from Owen's T.
    """
    if isinstance(mu, EmpiricalMeasure):
        # the whole space's offset -inf is below every value
        in_first = mu.project(first.direction.vec).values >= first.offset
        in_second = mu.project(second.direction.vec).values >= second.offset
        return float(mu.weights[in_first != in_second].sum())
    if not isinstance(mu, GaussianMeasure):
        raise TypeError(f"unsupported measure type {type(mu).__name__}")
    if first.is_whole_space or second.is_whole_space:
        if first.is_whole_space and second.is_whole_space:
            return 0.0
        other = second if first.is_whole_space else first
        return 1.0 - mu.halfspace_mass(other)
    p1 = mu.project(first.direction.vec)
    p2 = mu.project(second.direction.vec)
    c1 = (first.offset - p1.mean) / p1.std
    c2 = (second.offset - p2.mean) / p2.std
    cov = mu.covariance
    corr = float(first.direction.vec @ cov @ second.direction.vec) / (p1.std * p2.std)
    if corr >= 1.0 - 1e-12:
        return abs(normal_cdf(c1) - normal_cdf(c2))
    if corr <= -1.0 + 1e-12:
        both = max(0.0, normal_cdf(-c2) - normal_cdf(c1))
        return normal_sf(c1) + normal_sf(c2) - 2.0 * both
    return normal_sf(c1) + normal_sf(c2) - 2.0 * _upper_orthant(c1, c2, corr)
