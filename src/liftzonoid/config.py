"""Numeric tolerances shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds that more than one module, or a caller, must agree on.

    A literal that only one piece of code uses stays next to that code,
    where its meaning is plain; this record holds the shared ones.
    """

    # unit-norm check for directions and lift directions
    unit_norm: float = 1e-12
    # empirical weights must sum to one this tightly after construction
    weight_sum: float = 1e-12
    # CSV ingestion renormalizes silently below this, with a warning above
    weight_warn: float = 1e-9
    # affine-span rank cutoff: a singular value of the centered atom matrix
    # counts when it exceeds this times the largest centered atom norm
    rank: float = 1e-10
    # a depth LP optimum at or below this puts the point outside the hull
    lp_feasibility: float = 1e-9
    # a nonbasic reduced cost this close to zero flags dual degeneracy
    dual_degenerate: float = 1e-9
    # points within this distance of the mean (whitened for a Gaussian)
    # are treated as the mean
    mean_radius: float = 1e-10
    # empirical represent (so also coords --point) refuses a depth below
    # this as outside the support; zonoid_depth and the Gaussian closed
    # forms still answer there
    alpha_floor: float = 1e-6


DEFAULT_TOLS = Tolerances()
