"""Centralized numeric tolerances used across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances for validation and convergence checks.

    Every magic epsilon in the package routes through one instance of this
    record so that the knobs are discoverable and consistent.
    """

    # unit-norm check for directions and lift directions
    unit_norm: float = 1e-12
    # empirical weights must sum to one this tightly after construction
    weight_sum: float = 1e-12
    # CSV ingestion renormalizes silently below this, with a warning above
    weight_warn: float = 1e-9
    # quantile/mass round trips are asserted to this accuracy
    mass_roundtrip: float = 1e-10
    # relative rank cutoff for the centered atom matrix (pivoted QR)
    rank: float = 1e-10
    # a depth LP optimum at or below this puts the point outside the hull
    lp_feasibility: float = 1e-9
    # a nonbasic reduced cost this close to zero flags dual degeneracy
    dual_degenerate: float = 1e-9
    # points within this distance of the mean are treated as the mean
    mean_radius: float = 1e-10
    # reconstruction residual accepted without complaint
    residual: float = 1e-8
    # depth values below this floor are reported as outside the support
    alpha_floor: float = 1e-6
    # absolute accuracy target for the normal quantile
    quantile_abs: float = 1e-12
    # bisection width for depth-from-radius inversion
    depth_bisection: float = 1e-12
    # finite-difference step for the Gauss-Newton refinement pass
    refine_step: float = 1e-5


DEFAULT_TOLS = Tolerances()
