"""Numeric tolerances shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds that more than one function, or a caller, must agree on.

    A literal that only one piece of code uses stays next to that code,
    where its meaning is plain; this record holds the shared ones.
    """

    # unit-norm check for directions and lift directions
    unit_norm: float = 1e-12
    # CSV ingestion renormalizes silently below this, with a warning above
    weight_warn: float = 1e-9
    # depth and represent treat a point as the mean within this many radii
    # of an empirical mean (mu.radius; whitened units for a Gaussian)
    mean_radius: float = 1e-10
    # empirical represent (so also coords --point) refuses a depth below
    # this as outside the support; zonoid_depth and the Gaussian closed
    # forms still answer there
    alpha_floor: float = 1e-6
    # a depth LP reduced cost this close to 0, or a basic loading this close
    # to a bound, flags the certificate degenerate; that, or an atom's
    # inclusion fraction this close to 0 or 1, makes represent not unique
    degenerate: float = 1e-9


DEFAULT_TOLS = Tolerances()
