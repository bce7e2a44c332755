"""Closed-form zonoid geometry of Gaussian measures.

For the standard Gaussian every trimmed region is the centered ball of
radius r(alpha) = isoperimetric(alpha)/alpha, depth is r inverted at the
whitened norm, and the half-space representation of an interior point x
is {y : <y, x/||x||> >= -g_inverse(||x||)}. General covariance is
handled strictly by whitening with the measure's factor: all geometry is
computed in whitened coordinates and mapped back. The scalar building
blocks live in :mod:`liftzonoid.normal`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import ZeroMass
from .measures import Direction, GaussianMeasure, HalfSpace, as_vector, length
from .normal import g_inverse, g_ratio, normal_cdf


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """A half-space whose barycenter is the query point.

    ``alpha`` is the depth of the point; the closed half-space's mass
    exceeds it when marginal atoms are split. ``residual`` is the norm of
    the gap between the closed half-space's barycenter and the query,
    ``unique`` false when ties or dual degeneracy make other half-spaces
    equally valid, ``method`` either "closed-form" or "lp-dual".
    """

    halfspace: HalfSpace
    alpha: float
    residual: float
    unique: bool
    method: str

    def to_json_dict(self) -> dict:
        hs = "whole-space" if self.halfspace.is_whole_space else self.halfspace.to_json_dict()
        return {
            "halfspace": hs,
            "alpha": self.alpha,
            "residual": self.residual,
            "unique": self.unique,
            "method": self.method,
        }

    @classmethod
    def at_mean(cls, mu, x: np.ndarray) -> RepresentationResult:
        """The whole space, whose barycenter is the mean: the answer at the mean ``x``."""
        return cls(
            halfspace=HalfSpace.whole_space(mu.dim),
            alpha=1.0,
            residual=float(length(mu.mean() - x)),
            unique=True,
            method="closed-form",
        )


def _whitened(mu: GaussianMeasure, point) -> np.ndarray:
    if not isinstance(mu, GaussianMeasure):
        raise TypeError("expected a Gaussian measure")
    return mu.whiten(point)


def gaussian_depth(mu: GaussianMeasure, point) -> float:
    """Zonoid depth of ``point``: the alpha with radius(alpha) = whitened norm.

    Closed form alpha = Phi(G^-1(rho)), exact because r(Phi(u)) = G(u);
    it underflows to 0.0 far in the tail.
    """
    rho = float(length(_whitened(mu, point)))
    if rho <= DEFAULT_TOLS.mean_radius:
        return 1.0
    return normal_cdf(g_inverse(rho))


def gaussian_represent(mu: GaussianMeasure, point) -> RepresentationResult:
    """Half-space H with barycenter equal to ``point``, unique for Gaussians."""
    x = as_vector(point, dim=mu.dim, name="point")
    xw = _whitened(mu, x)
    rho = float(length(xw))
    if rho <= DEFAULT_TOLS.mean_radius:
        return RepresentationResult.at_mean(mu, x)
    u_w = xw / rho
    a_w = -g_inverse(rho)
    # the mass and the barycenter come from the whitened offset that the
    # depth reads, not from the pulled-back half-space, whose standardized
    # offset can round a few ulps further into the tail
    alpha = normal_cdf(-a_w)  # gaussian_depth's Phi(G^-1(rho)), from the same G^-1
    if alpha <= 0.0:
        raise ZeroMass(f"half-space at standardized offset {a_w!r} carries no mass")
    bary = mu.location + mu.factor @ (u_w * g_ratio(-a_w))
    # {y_w : <u_w, y_w> >= a_w} in whitened coordinates pulls back through
    # y_w = A^-1 (y - m) to {y : <A^-T u_w, y> >= a_w + <A^-T u_w, m>}.
    v = np.linalg.solve(mu.factor.T, u_w)
    norm_v = float(length(v))
    direction = Direction(v / norm_v)
    offset = (a_w + float(v @ mu.location)) / norm_v
    hs = HalfSpace(direction, offset)
    return RepresentationResult(
        halfspace=hs,
        alpha=alpha,
        residual=float(length(bary - x)),
        unique=True,
        method="closed-form",
    )
