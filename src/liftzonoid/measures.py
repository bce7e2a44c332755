"""Measure models: weighted point clouds and nondegenerate Gaussians.

Almost everything downstream is a function of the law of V = <X, v>.
``mu.project(v)`` returns it for any spatial vector v (lift directions
have non-unit spatial parts) with five operations: the lift-zonoid
support ``positive_part_mean(t)`` = E(t + V)_+ (the zonoid's at t = 0),
the trimmed support ``tail_mean(alpha)``, the mean of the upper-alpha
mass, its offset ``upper_quantile(alpha)``, the half-space mass
``mass_above(a)`` = P(V >= a), and ``tail_mean_level(h)``, the alpha
whose tail mean is h. Only barycenters need the whole measure. Both
measure classes implement the same method surface, so callers can stay
agnostic where the math allows it.

File formats: point clouds are CSV (one atom per row, optional final
``weight`` column when a header is present), Gaussians are JSON with
``mean`` and ``covariance`` entries. The whole space is encoded as a
half-space with offset -infinity, serialized as the string ``"-inf"``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLS
from .errors import (
    DegenerateMeasure,
    DimensionMismatch,
    DomainError,
    InputFormatError,
    NonFinite,
    NoSolution,
    ZeroMass,
)
from .normal import g_inverse, g_ratio, isoperimetric, normal_cdf, normal_pdf, normal_quantile, normal_sf

log = logging.getLogger("liftzonoid")


def as_vector(x, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally of fixed dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"{name}: expected a nonempty 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name}: expected {dim} entries, got {v.size}")
    if not np.isfinite(v).all():
        raise NonFinite(f"{name}: contains non-finite entries")
    return v


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit vector; the norm is validated to 1 within the unit_norm tolerance."""

    vec: np.ndarray

    def __post_init__(self):
        v = as_vector(self.vec, name="direction")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > DEFAULT_TOLS.unit_norm:
            raise DomainError(f"direction norm {n!r} is not 1 within {DEFAULT_TOLS.unit_norm}")
        object.__setattr__(self, "vec", _freeze(v))

    @classmethod
    def of(cls, coords) -> "Direction":
        """Normalize arbitrary nonzero coordinates into a Direction."""
        v = as_vector(coords, name="direction")
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise DomainError("cannot normalize the zero vector into a direction")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.vec.size

    def __neg__(self) -> "Direction":
        return Direction(-self.vec)

    def __repr__(self) -> str:
        return f"Direction({self.vec.tolist()!r})"


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Closed upper half-space {y : <y, direction> >= offset}.

    ``offset = -inf`` encodes the whole space (the direction is then
    carried along but irrelevant).
    """

    direction: Direction
    offset: float

    def __post_init__(self):
        off = float(self.offset)
        if math.isnan(off) or off == math.inf:
            raise DomainError(f"half-space offset {off!r} must be finite or -inf")
        object.__setattr__(self, "offset", off)

    @classmethod
    def whole_space(cls, dim: int) -> "HalfSpace":
        e1 = np.zeros(dim)
        e1[0] = 1.0
        return cls(Direction(e1), -math.inf)

    @property
    def is_whole_space(self) -> bool:
        return self.offset == -math.inf

    def to_json_dict(self) -> dict:
        return {
            "u": self.direction.vec.tolist(),
            "a": "-inf" if self.is_whole_space else self.offset,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HalfSpace":
        try:
            u = obj["u"]
            a = obj["a"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"half-space JSON needs 'u' and 'a': {exc}") from exc
        offset = -math.inf if a == "-inf" else float(a)
        return cls(Direction.of(u), offset)


@dataclass(frozen=True, eq=False)
class EmpiricalProjection:
    """Law of V = <X, v> under an empirical measure.

    ``values`` holds <x_i, v> in atom order, unsorted, and ``weights`` the
    atom weights. Every operation is O(n).
    """

    values: np.ndarray
    weights: np.ndarray

    def positive_part_mean(self, t: float) -> float:
        """E(t + V)_+."""
        return float(self.weights @ np.maximum(t + self.values, 0.0))

    def tail_mean(self, alpha: float) -> float:
        """Mean of the upper-alpha mass of V, splitting the marginal atoms."""
        alpha = _check_alpha(alpha)
        threshold, full, _, residual = upper_mass_split(self.values, self.weights, alpha)
        return (float((self.weights * full) @ self.values) + residual * threshold) / alpha

    def upper_quantile(self, alpha: float) -> float:
        """Atom value at which the closed upper mass of V first reaches alpha."""
        threshold, _, _, _ = upper_mass_split(self.values, self.weights, _check_alpha(alpha))
        return threshold

    def mass_above(self, a: float) -> float:
        """P(V >= a)."""
        return float(self.weights[self.values >= a].sum())

    def tail_mean_level(self, h: float) -> float:
        """Invert the strictly decreasing alpha -> tail_mean(alpha) map exactly.

        The trimmed support is a tail mean, alpha h = min_t [E(V - t)_+ +
        alpha t], so the depth of a level is alpha = min_{t<h} E(V - t)_+ /
        (h - t), attained at the marginal atom value v_k: the largest atom
        value below h at which the running deficit sum_{h > v_i >= v_k}
        w_i (h - v_i) reaches the excess P = E(V - h)_+. That is a weighted
        selection (``upper_mass_split`` over the atoms below h, weights
        w_i (h - v_i)/P, level 1), O(n) expected, not a sort. Then alpha =
        W_> + sum_{v_i > v_k} w_i (v_i - h) / (h - v_k), clipped to [W_>,
        W_>=], the masses above and at v_k. A level at the farthest
        projection returns 1e-12, one at the mean returns 1.0; a level more
        than 1e-9 (relative) outside that range raises NoSolution.
        """
        proj, w = self.values, self.weights
        top, low = float(proj.max()), float(proj.min())
        mean = float(w @ proj)
        scale = 1.0 + max(top, -low)
        if h - top > 1e-9 * scale:
            raise NoSolution("support level exceeds the farthest atom projection")
        if mean - h > 1e-9 * scale:
            raise NoSolution("support level lies below the mean projection")
        if h >= top:
            return 1e-12
        if h <= mean + 1e-13 * scale:  # the mean, up to the rounding of its sum
            return 1.0
        gap = proj - h
        excess = float(w @ np.maximum(gap, 0.0))
        if excess <= np.finfo(float).tiny * (h - low):
            # P underflowed (h a few ulps below a top near 0), or dividing by it
            # would overflow: alpha is the mass at or above h, up to P / (h - v_k)
            return float(w @ (gap >= 0.0))
        below = np.flatnonzero(gap < 0.0)
        # normalised by P, the kernel's absolute 1e-12 slack is relative: a
        # neighbouring segment moves alpha by at most 1e-12, as P/(h - v_k) <= alpha
        vk, _, _, _ = upper_mass_split(proj[below], w[below] * (gap[below] / -excess), 1.0)
        w_gt = w * (proj > vk)
        mass_gt = float(w_gt.sum())
        mass_ge = mass_gt + float(w[proj == vk].sum())
        alpha = mass_gt + float(w_gt @ gap) / (h - vk)
        return min(max(alpha, mass_gt), mass_ge, 1.0)


@dataclass(frozen=True)
class GaussianProjection:
    """Law of V = <X, v> under a Gaussian measure: N(mean, std^2); std = 0 for v = 0."""

    mean: float
    std: float

    def positive_part_mean(self, t: float) -> float:
        """E(t + V)_+ = std pdf(c) + s cdf(c), with s = t + mean and c = s / std."""
        s = t + self.mean
        if self.std == 0.0:
            return max(s, 0.0)
        c = s / self.std
        return self.std * normal_pdf(c) + s * normal_cdf(c)

    def tail_mean(self, alpha: float) -> float:
        """mean + std isoperimetric(alpha) / alpha; the mean at alpha = 1."""
        alpha = _check_alpha(alpha)
        if alpha == 1.0:
            return self.mean
        return self.mean + self.std * isoperimetric(alpha) / alpha

    def upper_quantile(self, alpha: float) -> float:
        """The a with P(V >= a) = alpha; -inf when alpha = 1."""
        alpha = _check_alpha(alpha)
        if alpha == 1.0:
            return -math.inf
        return self.mean + self.std * normal_quantile(1.0 - alpha)

    def mass_above(self, a: float) -> float:
        """P(V >= a)."""
        if self.std == 0.0:
            return float(self.mean >= a)
        return normal_sf((a - self.mean) / self.std)

    def tail_mean_level(self, h: float) -> float:
        """Invert the strictly decreasing alpha -> tail_mean(alpha) map: Phi(G^-1((h - mean)/std))."""
        if self.std == 0.0:
            raise NoSolution("direction carries no variance")
        rho = (h - self.mean) / self.std
        if rho < 0.0:
            raise NoSolution("support level lies below the mean projection")
        if rho == 0.0:
            return 1.0
        alpha = normal_cdf(g_inverse(rho))
        if alpha <= 0.0:
            raise NoSolution("support level exceeds every representable trimmed region")
        return alpha


# candidate sets this small are finished by a stable sort and a cumsum;
# larger ones are sampled at this many evenly strided positions
_SELECT_BASE = 256
_SAMPLE = np.arange(_SELECT_BASE)
# sorted-sample positions kept either side of the estimated crossing: two
# standard deviations of the sample count above a median-mass crossing
_MARGIN = 16


def upper_mass_split(values: np.ndarray, weights: np.ndarray, alpha: float):
    """Split atoms of a 1-D law at the upper-``alpha`` mass level.

    Returns ``(threshold, full, tie, residual)``: atoms with value strictly
    above ``threshold`` are fully included and carry mass at most alpha;
    atoms at the threshold share the residual mass ``alpha - mass(full)``.
    ``threshold`` is always one of the atom values (the upper quantile):
    the largest one whose closed upper mass reaches ``alpha - 1e-12``, or
    the smallest one when none does. Weights must be positive.

    The threshold comes from a weighted selection, not a full sort, with
    the sampled pivots of Floyd and Rivest (1975). Each round reads the
    candidates at ``_SELECT_BASE`` evenly strided positions. When those
    weights are all equal, one ``np.partition`` pivots at the rank where
    equal weights reach the missing mass, which ends equal-weight input
    in one round. Otherwise the sorted sample's running weight, scaled to
    the candidates' mass, estimates the crossing, and the sample values
    ``_MARGIN`` positions either side of it bracket a band. The round sums
    the mass above the bracket, and the mass inside it unless the crossing
    lies above; it then keeps the band (carrying its mass), or the side
    that holds the crossing when the estimate missed, or returns a
    one-value bracket that holds it. The support inversion's deficit
    weights at n = 10^5 typically take three rounds. Worst case: a
    round that keeps more than half of its candidates makes the next
    pivot the median, so the candidates halve at least every second
    round, O(log n) rounds and O(n) work for any weights and any order.
    At most ``_SELECT_BASE`` candidates are left to a stable sort.
    """
    target = alpha - 1e-12
    cv, cw = values, weights
    above = 0.0  # mass of the atoms above every candidate
    mass = float(cw.sum())  # mass of the candidates
    median_next = False
    while cv.size > _SELECT_BASE:
        m = cv.size
        share = min(max((target - above) / mass, 0.0), 1.0)
        sample = _SAMPLE * m // _SELECT_BASE
        sw = cw.take(sample)
        if median_next or sw.min() == sw.max():
            # median, or the descending rank at which equal weights reach the target
            rank = m // 2 if median_next else max(math.ceil(share * m) - 1, 0)
            kth = m - 1 - rank
            hi = lo = float(np.partition(cv, kth)[kth])
        else:
            sv = cv.take(sample)
            order = np.argsort(-sv)
            cum = np.cumsum(sw.take(order))
            j = int(np.searchsorted(cum, share * cum[-1]))
            hi = float(sv[order[max(j - _MARGIN, 0)]])
            lo = float(sv[order[min(j + _MARGIN, _SELECT_BASE - 1)]])
        gt = cv > hi
        mass_gt = float((cw * gt).sum())
        if mass_gt > 0.0 and above + mass_gt >= target:  # the crossing is above hi
            keep, mass = np.flatnonzero(gt), mass_gt
        else:
            band = cv >= lo
            band ^= gt  # lo <= cv <= hi
            keep = np.flatnonzero(band)
            mass_band = float(cw.take(keep).sum())
            if above + mass_gt + mass_band < target and (below := np.flatnonzero(cv < lo)).size:
                keep, mass = below, None
                above += mass_gt + mass_band
            elif hi == lo:  # the crossing is at the pivot, or the pivot is the smallest atom
                threshold, mass_full, mass_tie = hi, above + mass_gt, mass_band
                break
            else:  # the crossing is inside the bracket
                mass = mass_band
                above += mass_gt
        median_next = 2 * keep.size > m
        cv, cw = cv.take(keep), cw.take(keep)
        if mass is None:
            mass = float(cw.sum())
    else:
        order = np.argsort(-cv, kind="stable")
        cum = above + np.cumsum(cw[order])
        k = min(int(np.searchsorted(cum, target)), cv.size - 1)
        threshold = float(cv[order[k]])
        mass_full = above + float(cw[cv > threshold].sum())
        mass_tie = float(cw[cv == threshold].sum())
    residual = min(max(alpha - mass_full, 0.0), mass_tie)
    return threshold, values > threshold, values == threshold, residual


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    return alpha


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finite measure sum(w_i * delta_{x_i}) with positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise DimensionMismatch(f"points must be (n, d) with n,d >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("points contain non-finite entries")
        w = as_vector(self.weights, name="weights")
        if w.size != pts.shape[0]:
            raise DimensionMismatch(f"{w.size} weights for {pts.shape[0]} points")
        if np.any(w <= 0.0):
            raise DomainError("weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOLS.weight_sum:
            raise DomainError(f"weights sum to {total!r}, not 1 within {DEFAULT_TOLS.weight_sum}")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @classmethod
    def uniform(cls, points) -> "EmpiricalMeasure":
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _mean(self) -> np.ndarray:
        return _freeze(self.weights @ self.points)

    def mean(self) -> np.ndarray:
        """Weighted average of the atoms."""
        return self._mean

    @cached_property
    def affine_rank(self) -> int:
        """Dimension of the atoms' affine span; 0 when all atoms coincide.

        Counts the singular values of the centered atoms above the rank
        tolerance times the largest centered atom norm.
        """
        # compared exactly: the mean of coincident atoms may round away from them
        if np.all(self.points == self.points[0]):
            return 0
        centered = self.points - self.mean()  # (n, d)
        top = float(np.linalg.norm(centered, axis=1).max())
        # the small triangular factor has the singular values of the whole matrix
        sv = np.linalg.svd(np.linalg.qr(centered, mode="r"), compute_uv=False)
        return int(np.sum(sv > DEFAULT_TOLS.rank * top))

    def project(self, vec) -> EmpiricalProjection:
        """Law of <X, vec> for any spatial vector: values in atom order."""
        v = as_vector(vec, dim=self.dim, name="direction")
        return EmpiricalProjection(self.points @ v, self.weights)

    def upper_quantile(self, direction: Direction, alpha: float) -> float:
        """Atom value at which the closed upper mass of <X,u> first reaches alpha."""
        return self.project(direction.vec).upper_quantile(alpha)

    def halfspace_mass(self, halfspace: HalfSpace) -> float:
        """Total weight of atoms inside the closed half-space."""
        if halfspace.is_whole_space:
            return 1.0
        return self.project(halfspace.direction.vec).mass_above(halfspace.offset)

    def halfspace_barycenter(self, halfspace: HalfSpace) -> np.ndarray:
        """Barycenter of the measure restricted to the half-space."""
        if halfspace.is_whole_space:
            return np.array(self.mean())
        inside = self.project(halfspace.direction.vec).values >= halfspace.offset
        mass = float(self.weights[inside].sum())
        if mass <= 0.0:
            raise ZeroMass(f"half-space at offset {halfspace.offset!r} carries no mass")
        return (self.weights[inside] @ self.points[inside]) / mass

    def affine_image(self, matrix, shift=None) -> "EmpiricalMeasure":
        """Push-forward under y = M x + b; weights are unchanged."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.dim:
            raise DimensionMismatch(f"matrix shape {m.shape} does not act on dimension {self.dim}")
        b = np.zeros(m.shape[0]) if shift is None else as_vector(shift, dim=m.shape[0], name="shift")
        return EmpiricalMeasure(self.points @ m.T + b, self.weights)


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Nondegenerate Gaussian with mean ``location`` and factor ``factor``.

    The covariance is factor @ factor.T; the factor must be square and
    invertible. Use :meth:`from_covariance` to build from a covariance
    matrix via its Cholesky factor.
    """

    location: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        m = as_vector(self.location, name="mean")
        a = np.asarray(self.factor, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != m.size:
            raise DimensionMismatch(f"factor shape {a.shape} does not match mean dimension {m.size}")
        if not np.all(np.isfinite(a)):
            raise NonFinite("factor contains non-finite entries")
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise DegenerateMeasure("covariance factor is numerically singular")
        object.__setattr__(self, "location", _freeze(m))
        object.__setattr__(self, "factor", _freeze(a))

    @classmethod
    def from_covariance(cls, mean, covariance) -> "GaussianMeasure":
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {cov.shape}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMeasure(f"covariance is not positive definite: {exc}") from exc
        return cls(as_vector(mean, dim=cov.shape[0], name="mean"), chol)

    @classmethod
    def standard(cls, dim: int) -> "GaussianMeasure":
        return cls(np.zeros(dim), np.eye(dim))

    @property
    def dim(self) -> int:
        return self.location.size

    @cached_property
    def covariance(self) -> np.ndarray:
        return _freeze(self.factor @ self.factor.T)

    def mean(self) -> np.ndarray:
        return np.array(self.location)

    def whiten(self, x) -> np.ndarray:
        """Coordinates of x in the whitened frame z = factor^{-1} (x - mean)."""
        x = as_vector(x, dim=self.dim, name="point")
        return np.linalg.solve(self.factor, x - self.location)

    def unwhiten(self, z) -> np.ndarray:
        z = as_vector(z, dim=self.dim, name="point")
        return self.location + self.factor @ z

    def project(self, vec) -> GaussianProjection:
        """Law of <X, vec> for any spatial vector: N(<mean, vec>, |factor^T vec|^2)."""
        v = as_vector(vec, dim=self.dim, name="direction")
        return GaussianProjection(float(self.location @ v), float(np.linalg.norm(self.factor.T @ v)))

    def upper_quantile(self, direction: Direction, alpha: float) -> float:
        """The a with P(<X,u> >= a) = alpha; -inf when alpha = 1."""
        return self.project(direction.vec).upper_quantile(alpha)

    def halfspace_mass(self, halfspace: HalfSpace) -> float:
        return self.project(halfspace.direction.vec).mass_above(halfspace.offset)

    def halfspace_barycenter(self, halfspace: HalfSpace) -> np.ndarray:
        """Conditional mean given the half-space, via the Mills-ratio closed form."""
        if halfspace.is_whole_space:
            return self.mean()
        u = halfspace.direction.vec
        law = self.project(u)
        c = (halfspace.offset - law.mean) / law.std
        if normal_sf(c) <= 0.0:
            raise ZeroMass(f"half-space at standardized offset {c!r} carries no mass")
        # with v = factor^T u and sigma = |v| = std: E[Z | <Z, v/sigma> >= c] =
        # (v/sigma) * pdf(c)/sf(c), pushed through the factor
        return self.location + (self.factor @ (self.factor.T @ u)) * (g_ratio(-c) / law.std)

    def affine_image(self, matrix, shift=None) -> "GaussianMeasure":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.dim:
            raise DimensionMismatch(f"matrix shape {m.shape} does not act on dimension {self.dim}")
        if m.shape[0] != m.shape[1]:
            raise DegenerateMeasure("Gaussian affine images require a square invertible matrix")
        b = np.zeros(m.shape[0]) if shift is None else as_vector(shift, dim=m.shape[0], name="shift")
        return GaussianMeasure(m @ self.location + b, m @ self.factor)


Measure = EmpiricalMeasure | GaussianMeasure


# what str.strip() removes, plus the separator and the quote: a row made
# only of these holds no value and is skipped
_BLANK = (
    ',"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004'
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _parse_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _cells(path: Path, line: str) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _row_error(path: Path, rows: list[tuple[int, str]], exc: ValueError) -> InputFormatError:
    """Name the first data row that the parser rejected, and why.

    ``rows`` pairs each data row with its line number in the file. A cell
    that ``float`` rejects is reported first, then the first row whose
    column count differs from the first row's, then the first row the
    parser rejects on its own (a spelling ``float`` would accept).
    """
    cells = [(row_no, _cells(path, line)) for row_no, line in rows]
    for row_no, row in cells:
        for cell in row:
            try:
                float(cell)
            except ValueError as err:
                return InputFormatError(f"{path}: row {row_no}: {err}")
    (first_no, first), widths = cells[0], sorted({len(row) for _, row in cells})
    for row_no, row in cells:
        if len(row) != len(first):
            return InputFormatError(
                f"{path}: rows have inconsistent column counts {widths}: "
                f"row {row_no} has {len(row)}, row {first_no} has {len(first)}"
            )
    for row_no, line in rows:
        try:
            _parse_rows([line])
        except ValueError as err:
            return InputFormatError(f"{path}: row {row_no}: {str(err).partition(' at row ')[0]}")
    return InputFormatError(f"{path}: {exc}")


def load_empirical_csv(path) -> EmpiricalMeasure:
    """Read a point cloud from CSV.

    One atom per row. If the file has a header and its last column is
    named ``weight`` (case-insensitive), that column provides weights,
    which are renormalized to sum to 1; a deviation beyond the weight_warn
    tolerance is logged as a warning. Without a header (or without a
    weight column) atoms are uniformly weighted.

    The file is UTF-8 with an optional byte-order mark, comma-separated,
    with optional ``"`` quotes; rows of only whitespace, commas and quotes
    are skipped. The first remaining row is a header if any of its cells
    is not a number. Errors name rows by their line number in the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.split("\n")
    rows = [line for line in lines if line.strip(_BLANK)]
    if not rows:
        raise InputFormatError(f"{path}: no data rows")

    header: list[str] | None = None
    first = _cells(path, rows[0])
    try:
        [float(cell) for cell in first]
    except ValueError:
        header = [cell.strip().lower() for cell in first]
        rows = rows[1:]
        if not rows:
            raise InputFormatError(f"{path}: header but no data rows")

    def numbered():  # the data rows with their line numbers, for error messages
        found = [(no, line) for no, line in enumerate(lines, 1) if line.strip(_BLANK)]
        return found[1:] if header else found

    try:
        data = _parse_rows(rows)
    except ValueError as exc:
        raise _row_error(path, numbered(), exc) from exc
    if header and header[-1] == "weight":
        if data.shape[1] < 2:
            raise InputFormatError(f"{path}: weight column present but no coordinate columns")
        pts, w = data[:, :-1], data[:, -1]
        if np.any(w <= 0.0):
            raise InputFormatError(f"{path}: weights must be strictly positive")
        if not np.all(np.isfinite(w)):
            k = int(np.argmin(np.isfinite(w)))
            raise InputFormatError(f"{path}: row {numbered()[k][0]}: weight {float(w[k])!r} is not finite")
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOLS.weight_warn:
            log.warning("%s: weights sum to %.17g, renormalizing", path, total)
        w = w / total
    else:
        pts = data
        w = np.full(data.shape[0], 1.0 / data.shape[0])
    return EmpiricalMeasure(pts, w)


def load_gaussian_json(path) -> GaussianMeasure:
    """Read a Gaussian measure from JSON with ``mean`` and ``covariance`` keys."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "mean" not in obj or "covariance" not in obj:
        raise InputFormatError(f"{path}: expected an object with 'mean' and 'covariance'")
    try:
        return GaussianMeasure.from_covariance(obj["mean"], obj["covariance"])
    except DegenerateMeasure:
        raise
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def load_measure(measure_path=None, gaussian_path=None) -> Measure:
    """Load whichever of the two sources is given (exactly one required)."""
    if (measure_path is None) == (gaussian_path is None):
        raise InputFormatError("exactly one of a CSV measure or a Gaussian JSON is required")
    if measure_path is not None:
        return load_empirical_csv(measure_path)
    return load_gaussian_json(gaussian_path)
