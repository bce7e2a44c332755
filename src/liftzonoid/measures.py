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

The offset a, the trimmed support h and the depth alpha of one direction
meet in one upper-alpha split of V, a ``TailSplit``: the threshold a (the
upper quantile), the atoms above it, the tied marginal atoms and the mass
they share. ``split(alpha)`` gives it at a mass level and
``split_at_level(h)`` at a support level, where the exact inversion's
marginal atom is already the threshold. ``mu.tail_barycenter`` turns a
split into the boundary point of the trimmed region.

Every split runs the one tail kernel, ``upper_mass_split``. A cloud of
at least 2^14 atoms in d <= 2, or 2^16 in d = 3, builds a block index
(atoms in Z-order, blocks of 64 with their boxes, masses and first
moments) at the ``_BUILD_AT_QUERY``-th query that could read it; the
queries before it, and every query on a smaller cloud, scan all atoms.
Through the index every operation reads a level of V the same way: the
blocks wholly above the level count by their mass and moment, the blocks
wholly below it not at all, and only the atoms of the blocks the level
cuts are projected. That covers ``split`` (and ``tail_mean`` and
``upper_quantile``) at its bracketed threshold, ``split_at_level`` at h
and at the bracket of its marginal atom, ``mass_above`` and the half-space
barycenter at the offset, and ``positive_part_mean(t)`` at -t. Thresholds
are bit-identical to the full scan's; sums agree to rounding.

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


@dataclass(frozen=True, eq=False)
class TailSplit:
    """The upper-``alpha`` mass of a projected law, split at its threshold.

    ``threshold`` is the upper quantile and ``residual`` the mass that the
    atoms at it share. An empirical split may sum part of its upper mass
    by blocks of atoms: ``mass`` and ``moment`` (sum of w_i x_i) of the
    whole blocks above the threshold, both 0 after a full scan. The rest
    is read from the candidate atoms, all atoms after a full scan: their
    ``points``, ``weights`` and projections ``values``, with ``full``
    marking those strictly above the threshold and ``tie`` indexing those
    at it. A Gaussian has no atoms: the candidate fields are None and the
    residual is 0.
    """

    alpha: float
    threshold: float
    residual: float = 0.0
    mass: float = 0.0
    moment: np.ndarray | None = None
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    values: np.ndarray | None = None
    full: np.ndarray | None = None
    tie: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EmpiricalProjection:
    """Law of V = <X, v> under an empirical measure.

    ``values`` holds <x_i, v> in atom order, unsorted, computed when first
    read, and ``weights`` the atom weights. Every operation sums over a
    half-space or a band of V through ``_cut``: once the measure has a
    block index (see ``_BlockIndex``), the blocks wholly above count by
    their mass and moment and only the atoms of the blocks that the level
    cuts are projected; without one, every atom is projected, which is
    O(n).
    """

    measure: EmpiricalMeasure
    vec: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.measure.weights

    @cached_property
    def values(self) -> np.ndarray:
        return self.measure.points @ self.vec

    @cached_property
    def _index(self) -> _BlockIndex | None:
        return self.measure._index()

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._index.bounds(self.vec)

    def _cut(self, floor: float, ceiling: float | None = None) -> _Cut:
        """Sums of the blocks wholly above ``[floor, ceiling]`` and the atoms of the blocks it cuts.

        ``ceiling`` defaults to ``floor``, a hyperplane. Without an index
        there are no blocks and every atom is a candidate.
        """
        if self._index is None:
            return _Cut(0.0, np.zeros(self.vec.size), self.measure.points, self.weights, self.values)
        lo, hi = self._bounds
        whole = lo > (floor if ceiling is None else ceiling)
        return self._index.cut(self.vec, whole, (hi >= floor) & ~whole)

    def _bracket(self, block_weights: np.ndarray, level: float, slack: float) -> tuple[float, float]:
        """Bounds on the upper-``level`` threshold of a law on the atoms, from its block sums.

        Each block's values lie in its interval, so the threshold lies
        between the upper quantiles of the blocks' lower and upper ends
        (each end standing for its block's weight), taken at ``level``
        plus and minus ``slack``, more than any rounding of a weight sum.
        """
        lo, hi = self._bounds
        return upper_mass_split(lo, block_weights, level + slack)[0], upper_mass_split(hi, block_weights, level - slack)[0]

    def positive_part_mean(self, t: float) -> float:
        """E(t + V)_+; whole blocks above -t add t mass + <moment, v>."""
        cut = self._cut(-t)
        atoms = float(cut.weights @ np.maximum(t + cut.values, 0.0))
        if cut.mass == 0.0:  # no whole block, and t may be infinite
            return atoms
        return (t * cut.mass + float(cut.moment @ self.vec)) + atoms

    def tail_mean(self, alpha: float) -> float:
        """Mean of the upper-alpha mass of V, splitting the marginal atoms."""
        s = self.split(alpha)
        above = float(s.moment @ self.vec) + float((s.weights * s.full) @ s.values)
        return (above + s.residual * s.threshold) / s.alpha

    def upper_quantile(self, alpha: float) -> float:
        """Atom value at which the closed upper mass of V first reaches alpha."""
        return self.split(alpha).threshold

    def mass_above(self, a: float) -> float:
        """P(V >= a)."""
        cut = self._cut(a)
        return cut.mass + float(cut.weights[cut.values >= a].sum())

    def split(self, alpha: float) -> TailSplit:
        """The upper-alpha split of V (see ``upper_mass_split``).

        With an index, the blocks bracket the threshold and the kernel
        reads only the atoms of the blocks the bracket cuts. A row's
        projection does not depend on which rows are projected with it,
        so the threshold is the full scan's, bit for bit.
        """
        alpha = _check_alpha(alpha)
        blocks = self._index
        cut = self._cut(-math.inf) if blocks is None else self._cut(*self._bracket(blocks.mass, alpha, _MASS_SLACK))
        threshold, full, tie, residual = upper_mass_split(cut.values, cut.weights, alpha, cut.mass)
        return cut.split(alpha, threshold, residual, full, np.flatnonzero(tie))

    def _extremes(self) -> tuple[float, float]:
        """The largest and the smallest computed projection."""
        if self._index is None:
            return float(self.values.max()), float(self.values.min())
        # each lies in a block whose interval reaches past an atom of the
        # block that reaches farthest
        blocks, vec = self._index, self.vec
        lo, hi = self._bounds
        none = np.zeros(lo.size, dtype=bool)
        top = blocks.cut(vec, none, hi >= (blocks.points[hi.argmax()] @ vec).max()).values.max()
        low = blocks.cut(vec, none, lo <= (blocks.points[lo.argmin()] @ vec).min()).values.min()
        return float(top), float(low)

    def tail_mean_level(self, h: float) -> float:
        """The alpha whose tail mean is h (see ``split_at_level``)."""
        return self.split_at_level(h).alpha

    def split_at_level(self, h: float) -> TailSplit:
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
        projection returns ``_MASS_SLACK``, one within ``_AT_MEAN`` of the
        projected spread of the mean returns 1.0; a level more than
        ``_LEVEL_RANGE`` of the spread, plus the rounding of the
        projections, outside that range raises NoSolution. The windows
        move with a shift or a scaling of the cloud.

        With a block index each sum reads only the blocks its level cuts.
        The excess takes the blocks wholly above h by their moments. The
        blocks wholly below h have deficits h mass - <moment, v>, which
        bracket v_k as ``split`` brackets a mass level, and the selection
        runs on the atoms of the blocks the bracket cuts. Without an index
        every atom is a candidate.

        The split at alpha is the one ``split(alpha)`` returns: v_k is its
        threshold unless alpha lies within the selection's ``_MASS_SLACK``
        of W_>, where the threshold may be the next atom up. Only then, and
        at the ends of the range, is ``split`` called.
        """
        top, low = self._extremes()
        spread = top - low
        rounding = 4.0 * math.ulp(max(top, -low))  # of a level or the mean: ulps of the largest |value|
        if h - top > _LEVEL_RANGE * spread + rounding:
            raise NoSolution("support level exceeds the farthest atom projection")
        mean = self._mean_near(h, _LEVEL_RANGE * spread + rounding)
        if mean - h > _LEVEL_RANGE * spread + rounding:
            raise NoSolution("support level lies below the mean projection")
        if h >= top:
            return self.split(_MASS_SLACK)
        if h <= mean + _AT_MEAN * spread + rounding:  # the mean, up to the rounding of its sum
            return self.split(1.0)
        at_h = self._cut(h)
        gap = at_h.values - h
        excess = (float(at_h.moment @ self.vec) - h * at_h.mass) + float(at_h.weights @ np.maximum(gap, 0.0))
        if excess <= np.finfo(float).tiny * (h - low):
            # P underflowed (h a few ulps below a top near 0), or dividing by it
            # would overflow: alpha is the mass at or above h, up to P / (h - v_k)
            return self.split(at_h.mass + float(at_h.weights @ (gap >= 0.0)))
        band, above, rounding = at_h, 0.0, 0.0
        if self._index is not None:
            band, above, rounding = self._deficit_band(at_h, h, excess)
            gap = band.values - h
        # the deficit weights, 0 at and above h; normalised by P, the kernel's
        # absolute mass slack is relative: a neighbouring segment moves alpha
        # by at most that slack, as P/(h - v_k) <= alpha
        deficit = np.minimum(gap, 0.0)
        deficit /= -excess
        deficit *= band.weights
        vk, full, tie, _ = upper_mass_split(band.values, deficit, 1.0, above)
        w_gt = band.weights * full
        tie = np.flatnonzero(tie)
        mass_gt = band.mass + float(w_gt.sum())
        mass_tie = float(band.weights.take(tie).sum())
        alpha = mass_gt + ((float(band.moment @ self.vec) - h * band.mass) + float(w_gt @ gap)) / (h - vk)
        alpha = min(max(alpha, mass_gt), mass_gt + mass_tie, 1.0)
        # the block sums round otherwise than the atoms' own, so alpha may
        # differ from the full scan's by rounding / (h - v_k). Where that
        # could move the split below, at alpha = W_> + _MASS_SLACK, the full
        # scan answers; elsewhere the threshold is the full scan's even if
        # the selection stops one atom off, as the split below then corrects it
        if rounding and abs(alpha - mass_gt - _MASS_SLACK) <= rounding / (h - vk) + _SUM_ROUNDING:
            return self._scan().split_at_level(h)
        # the slack, plus the rounding of the kernel's mass sums
        if alpha - mass_gt <= 2.0 * _MASS_SLACK:
            return self.split(alpha)
        return band.split(alpha, vk, min(alpha - mass_gt, mass_tie), full, tie)

    def _mean_near(self, h: float, window: float) -> float:
        """The mean of V as the full scan sums it, sum w_i <x_i, v>, where it decides h's place.

        The mean vector's <mean, v> rounds otherwise, by up to about (n +
        d) ulps of sum_j max|x_j| |v_j|, which is far more than the
        projections' own ulps when they cancel. With an index it stands in
        for the sum only for a level farther than ``window`` plus that
        rounding from it, where both sums put h on the same side of every
        window; the atoms are projected only for a level that close.
        """
        if self._index is not None:
            near = float(self.measure.mean() @ self.vec)
            reach = float(self._index.extent.max(axis=0) @ np.abs(self.vec))
            if abs(h - near) > window + 2.0 * (self.weights.size + self.vec.size) * np.finfo(float).eps * reach + _TINY:
                return near
        return float(self.weights @ self.values)

    def _scan(self) -> EmpiricalProjection:
        """This law without the block index: every query scans all atoms."""
        law = EmpiricalProjection(self.measure, self.vec)
        law.__dict__["_index"] = None
        return law

    def _deficit_band(self, at_h: _Cut, h: float, excess: float) -> tuple[_Cut, float, float]:
        """The cut of the blocks that can hold v_k, the deficit above it over P, and the rounding of block sums.

        A block's deficit is sum w_i (h - v_i)_+: 0 wholly above h, read
        off the atoms of the blocks that h cuts, and h mass - <moment, v>
        wholly below. That last sum differs from the sum over the atoms'
        computed projections by at most ``_MOMENT_ROUNDING`` of (|h| + max
        |<x, v>|) mass, and so does P, which counts the blocks wholly above
        h by their moments; the bracket is widened by both, relative to P.
        The rounding returned bounds both, in units of mass times value.
        """
        blocks, vec = self._index, self.vec
        deficit = h * blocks.mass - blocks.moment @ vec
        deficit[at_h.whole] = 0.0
        deficit[at_h.blocks] = (at_h.weights * np.maximum(h - at_h.values, 0.0)).reshape(-1, _BLOCK).sum(axis=1)
        np.maximum(deficit, 0.0, out=deficit)
        deficit /= excess
        rounding = 2.0 * _MOMENT_ROUNDING * (abs(h) + float((blocks.extent @ np.abs(vec)).max()))
        band = self._cut(*self._bracket(deficit, 1.0, _MASS_SLACK + rounding / excess))
        return band, float(deficit @ band.whole), rounding


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

    def split(self, alpha: float) -> TailSplit:
        """The upper-alpha split of V: its threshold is the upper quantile."""
        alpha = _check_alpha(alpha)
        return TailSplit(alpha, self.upper_quantile(alpha))

    def split_at_level(self, h: float) -> TailSplit:
        """The upper-alpha split whose tail mean is h."""
        return self.split(self.tail_mean_level(h))

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


_MASS_SLACK = 1e-12  # the tail kernel's slack: mass-sum rounding never moves a threshold down
# support-level windows, as shares of the projected spread: a level this far
# beyond the farthest projection or below the mean has no alpha, and one
# this close above the mean is at the mean
_LEVEL_RANGE = 1e-9
_AT_MEAN = 1e-13
# candidate sets this small are finished by a stable sort and a cumsum;
# larger ones are sampled at this many evenly strided positions
_SELECT_BASE = 256
_SAMPLE = np.arange(_SELECT_BASE)
# sorted-sample positions kept either side of the estimated crossing: two
# standard deviations of the sample count above a median-mass crossing
_MARGIN = 16


def upper_mass_split(values: np.ndarray, weights: np.ndarray, alpha: float, above: float = 0.0):
    """Split atoms of a 1-D law at the upper-``alpha`` mass level.

    Returns ``(threshold, full, tie, residual)``: atoms with value strictly
    above ``threshold`` are fully included and carry mass at most alpha;
    atoms at the threshold share the residual mass ``alpha - mass(full)``.
    ``threshold`` is always one of the atom values (the upper quantile):
    the largest one whose closed upper mass reaches ``alpha - _MASS_SLACK``,
    or the smallest one when none does. Weights must be nonnegative. An atom
    of zero weight adds no mass, so the support inversion can pass every
    atom and weight those at or above its level by zero. For alpha above
    ``_MASS_SLACK`` such an atom is never the threshold, unless no atom
    reaches the level at all.

    ``above`` is the mass of atoms not passed whose values lie above every
    value passed; it counts in every closed upper mass and in
    ``mass(full)``, so a caller that has summed the top of a law by other
    means passes only the atoms that can hold the threshold.

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
    target = alpha - _MASS_SLACK
    cv, cw = values, weights
    above = float(above)  # mass of the atoms above every candidate
    mass = float(cw.sum())  # mass of the candidates
    median_next = False
    while cv.size > _SELECT_BASE:
        m = cv.size
        share = min(max((target - above) / mass, 0.0), 1.0) if mass > 0.0 else 1.0
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


# the fewest atoms at which a cloud in dimension 1, 2 or 3 gets a block
# index: where a boundary point from the blocks first beats the full scan
# (at n = 2^15, 0.9x in d = 3; at 2^16, 1.1x). Beyond d = 3 the boxes'
# projected intervals overlap too much to pay: 0.7x at d = 4, n = 10^5
_BLOCK_MIN_ATOMS = (2**14, 2**14, 2**16)
_BLOCK = 64  # atoms per block
_MORTON_BITS = 10  # bits per coordinate in each of the two Morton digits
# a block's projected interval is widened by this many ulps of sum_j
# max|x_j| |v_j|: more than the rounding of any atom's projection (d <= 3
# terms) plus that of the interval's own ends; and by the smallest normal,
# for products that underflow
_ROUNDING = 16 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# a block's sum of w_i (h - v_i) from its sums, h mass - <moment, v>,
# against the sum over its atoms' computed projections, in ulps of (|h| +
# max |<x, v>|) mass: 64 for the mass's and the moment's sums of 64 terms,
# 2d for the two dot products and 4 for the product with h and the difference
_MOMENT_ROUNDING = 80 * np.finfo(float).eps
# two sums of the same masses, at most 1 in all, in two orders: pairwise
# summation keeps each within log2(n) < 64 ulps of 1
_SUM_ROUNDING = 128 * np.finfo(float).eps
# the query on a measure at which its block index is built. At n = 10^5,
# d = 2 the build takes about 8 ms and saves 0.6 ms a split and 1.2 ms a
# support-level conversion, so it pays after 7 to 12 queries (d = 3: 13 ms
# against 0.3 ms a split). Building once the full scans have cost about as
# much as the build keeps any run of queries within twice the better of
# building at once and never building
_BUILD_AT_QUERY = 10


def _spread_bits(d: int) -> np.ndarray:
    """Table of ``_MORTON_BITS``-bit integers with their bits spread d apart."""
    i = np.arange(1 << _MORTON_BITS, dtype=np.uint64)
    out = np.zeros_like(i)
    for b in range(_MORTON_BITS):
        out |= ((i >> np.uint64(b)) & np.uint64(1)) << np.uint64(d * b)
    return out


@dataclass(frozen=True, eq=False)
class _BlockIndex:
    """The atoms of a cloud in Z-order, cut into blocks of ``_BLOCK``.

    ``points`` (blocks, _BLOCK, d) and ``weights`` (blocks, _BLOCK) hold the
    atoms; the last block is padded with zero-weight copies of its last
    atom, which repeat an atom's value and add no mass, so they move no
    split. Each block keeps its bounding box (``low``, ``high``), the
    box's largest absolute coordinates (``extent``), its ``mass`` and its
    first ``moment`` sum w_i x_i. Memory: about n (d + 1) doubles.
    ``bounds`` gives each block's interval of projections and ``cut``
    reads a law at a level from them.
    """

    points: np.ndarray
    weights: np.ndarray
    low: np.ndarray
    high: np.ndarray
    extent: np.ndarray
    mass: np.ndarray
    moment: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray, weights: np.ndarray) -> "_BlockIndex":
        """Sort the atoms by Morton code on a 2^20-cell grid per axis and block them."""
        n, d = points.shape
        cols = np.ascontiguousarray(points.T)  # coordinate-major: the reductions run contiguous
        low = cols.min(axis=1)
        span = cols.max(axis=1) - low
        spread, digit = _spread_bits(d), np.uint64(_MORTON_BITS)
        code = np.zeros(n, dtype=np.uint64)
        for j in range(d):
            if 0.0 < span[j] < math.inf:
                q = ((cols[j] - low[j]) * ((2.0 ** (2 * _MORTON_BITS) - 1.0) / span[j])).astype(np.uint64)
                code |= spread[q >> digit] << np.uint64(_MORTON_BITS * d + j)
                code |= spread[q & np.uint64((1 << _MORTON_BITS) - 1)] << np.uint64(j)
        order = np.argsort(code)
        order = np.concatenate([order, np.full(-n % _BLOCK, order[-1])])
        w = weights.take(order)
        w[n:] = 0.0
        w = w.reshape(-1, _BLOCK)
        box = cols.take(order, axis=1).reshape(d, -1, _BLOCK)
        lo, hi = box.min(axis=2).T, box.max(axis=2).T
        return cls(
            points=points.take(order, axis=0).reshape(-1, _BLOCK, d),
            weights=w,
            low=np.ascontiguousarray(lo),
            high=np.ascontiguousarray(hi),
            extent=np.maximum(-lo, hi),
            mass=w.sum(axis=1),
            moment=np.einsum("dbk,bk->bd", box, w),
        )

    def bounds(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each block's interval of computed projections <x_i, vec>, from its box."""
        up, down = np.maximum(vec, 0.0), np.minimum(vec, 0.0)
        pad = _ROUNDING * (self.extent @ np.abs(vec)) + _TINY
        return self.low @ up + self.high @ down - pad, self.high @ up + self.low @ down + pad

    def cut(self, vec: np.ndarray, whole: np.ndarray, cut: np.ndarray) -> _Cut:
        """The half-space primitive: the ``whole`` blocks by their sums, the ``cut`` blocks' atoms projected."""
        points = self.points[cut].reshape(-1, vec.size)
        return _Cut(
            float(self.mass @ whole), whole @ self.moment, points, self.weights[cut].reshape(-1), points @ vec,
            whole, cut,
        )


@dataclass(frozen=True, eq=False)
class _Cut:
    """A projected law read at a level: whole blocks above it by their sums, the rest atom by atom.

    ``mass`` and ``moment`` (sum of w_i x_i) sum the blocks wholly above
    the level; ``points``, ``weights`` and ``values`` (their projections)
    are the candidate atoms, those of the blocks the level cuts. With an
    index, ``whole`` and ``blocks`` mark those two sets of blocks; without
    one both are None, the sums 0 and every atom a candidate.
    """

    mass: float
    moment: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    whole: np.ndarray | None = None
    blocks: np.ndarray | None = None

    def split(self, alpha: float, threshold: float, residual: float, full: np.ndarray, tie: np.ndarray) -> TailSplit:
        """The split whose threshold the kernel found among these candidates."""
        return TailSplit(
            alpha, threshold, residual, self.mass, self.moment, self.points, self.weights, self.values, full, tie
        )


def _is_whole_space(halfspace: HalfSpace, dim: int) -> bool:
    """Whether the half-space is the whole space, once its direction fits ``dim``."""
    if halfspace.direction.dim != dim:
        raise DimensionMismatch(f"direction: expected {dim} entries, got {halfspace.direction.dim}")
    return halfspace.is_whole_space


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    return alpha


# empirical weights must sum to one this tightly after construction
_WEIGHT_SUM = 1e-12
# affine-span rank cutoff: a singular value of the centered atoms counts above this times the radius
_RANK = 1e-10


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
        if abs(total - 1.0) > _WEIGHT_SUM:
            raise DomainError(f"weights sum to {total!r}, not 1 within {_WEIGHT_SUM}")
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
    def radius(self) -> float:
        """Largest distance of an atom from the mean: the cloud's length scale."""
        return float(np.linalg.norm(self.points - self.mean(), axis=1).max())

    @cached_property
    def affine_rank(self) -> int:
        """Dimension of the atoms' affine span; 0 when all atoms coincide.

        Counts the singular values of the centered atoms above the rank
        tolerance times the radius.
        """
        # compared exactly: the mean of coincident atoms may round away from them
        if np.all(self.points == self.points[0]):
            return 0
        centered = self.points - self.mean()  # (n, d)
        # the small triangular factor has the singular values of the whole matrix
        sv = np.linalg.svd(np.linalg.qr(centered, mode="r"), compute_uv=False)
        return int(np.sum(sv > _RANK * self.radius))

    @cached_property
    def _blocks(self) -> _BlockIndex | None:
        """The block index of a large low-dimensional cloud, built when first read."""
        if self.dim > len(_BLOCK_MIN_ATOMS) or self.size < _BLOCK_MIN_ATOMS[self.dim - 1]:
            return None
        return _BlockIndex.build(self.points, self.weights)

    def _index(self) -> _BlockIndex | None:
        """The block index once built; the first ``_BUILD_AT_QUERY`` - 1 queries that ask scan all atoms."""
        state = vars(self)  # the frozen measure's cache, as for its cached properties
        if "_blocks" not in state:
            state["_queries"] = state.get("_queries", 0) + 1
            if state["_queries"] < _BUILD_AT_QUERY:
                return None
        return self._blocks

    def project(self, vec) -> EmpiricalProjection:
        """Law of <X, vec> for any spatial vector: values in atom order."""
        return EmpiricalProjection(self, as_vector(vec, dim=self.dim, name="direction"))

    def upper_quantile(self, direction: Direction, alpha: float) -> float:
        """Atom value at which the closed upper mass of <X,u> first reaches alpha."""
        return self.project(direction.vec).upper_quantile(alpha)

    def halfspace_mass(self, halfspace: HalfSpace) -> float:
        """Total weight of atoms inside the closed half-space."""
        if _is_whole_space(halfspace, self.dim):
            return 1.0
        return self.project(halfspace.direction.vec).mass_above(halfspace.offset)

    def tail_barycenter(self, split: TailSplit, direction: Direction) -> np.ndarray:
        """Barycenter of a split's upper mass: the trimmed region's boundary point.

        Atoms above the threshold count fully, by their blocks' moment or
        one by one; the tied marginal atoms share the residual mass in
        proportion to their weights.
        """
        acc = split.moment + (split.weights * split.full) @ split.points
        if split.residual > 0.0:
            w_tie = split.weights.take(split.tie)
            acc = acc + (split.residual / float(w_tie.sum())) * (w_tie @ split.points.take(split.tie, axis=0))
        return acc / split.alpha

    def halfspace_barycenter(self, halfspace: HalfSpace) -> np.ndarray:
        """Barycenter of the measure restricted to the half-space."""
        if _is_whole_space(halfspace, self.dim):
            return np.array(self.mean())
        cut = self.project(halfspace.direction.vec)._cut(halfspace.offset)
        inside = cut.values >= halfspace.offset
        mass = cut.mass + float(cut.weights[inside].sum())
        if mass <= 0.0:
            raise ZeroMass(f"half-space at offset {halfspace.offset!r} carries no mass")
        return (cut.moment + cut.weights[inside] @ cut.points[inside]) / mass

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
        if sv[-1] <= 1e-12 * sv[0]:
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

    def project(self, vec) -> GaussianProjection:
        """Law of <X, vec> for any spatial vector: N(<mean, vec>, |factor^T vec|^2)."""
        v = as_vector(vec, dim=self.dim, name="direction")
        return GaussianProjection(float(self.location @ v), float(np.linalg.norm(self.factor.T @ v)))

    def upper_quantile(self, direction: Direction, alpha: float) -> float:
        """The a with P(<X,u> >= a) = alpha; -inf when alpha = 1."""
        return self.project(direction.vec).upper_quantile(alpha)

    def halfspace_mass(self, halfspace: HalfSpace) -> float:
        return self.project(halfspace.direction.vec).mass_above(halfspace.offset)

    def tail_barycenter(self, split: TailSplit, direction: Direction) -> np.ndarray:
        """Barycenter of a split's upper mass: the half-space's above the threshold."""
        return self.halfspace_barycenter(HalfSpace(direction, split.threshold))

    def halfspace_barycenter(self, halfspace: HalfSpace) -> np.ndarray:
        """Conditional mean given the half-space, via the Mills-ratio closed form."""
        if _is_whole_space(halfspace, self.dim):
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
