"""Zonoid depth and its trimmed regions are affine invariant.

Rescaling a measure and its query by 10^k must change no depth, status,
direction or half-space: every length tolerance is relative to the
cloud's radius (whitened units for a Gaussian), never to 1.0. The
scales reach far past the range where absolute floors used to decide
the answer: a whole cloud inside the mean window, dual multipliers below
an absolute cutoff, a Gaussian factor called singular, a zonotope
polygon collapsed to one vertex.
"""

import dataclasses

import numpy as np
import pytest

from liftzonoid import (
    DepthStatus,
    EmpiricalMeasure,
    GaussianMeasure,
    Tolerances,
    gaussian_depth,
    gaussian_represent,
    represent,
    zonoid_depth,
    zonotope_polygon_2d,
)

_PTS = np.random.default_rng(11).standard_normal((50, 2))
_QUERY = 0.5 * (_PTS[0] + _PTS[1])
_FACTOR = np.array([[1.0, 0.0], [0.3, 0.8]])
_GPOINT = np.array([0.7, -0.4])


def _relative(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


@pytest.mark.parametrize("k", range(-14, 19))
def test_depth_and_represent_do_not_depend_on_units(k):
    s = 10.0**k
    mu0, mu = EmpiricalMeasure.uniform(_PTS), EmpiricalMeasure.uniform(s * _PTS)
    ref, cert = zonoid_depth(mu0, _QUERY), zonoid_depth(mu, s * _QUERY)
    assert cert.status is ref.status is DepthStatus.INTERIOR
    assert cert.depth == pytest.approx(ref.depth, abs=1e-12)
    assert _relative(cert.dual_direction.vec, ref.dual_direction.vec, 1.0) <= 1e-12
    rep0, rep = represent(mu0, _QUERY), represent(mu, s * _QUERY)
    assert rep.alpha == pytest.approx(rep0.alpha, abs=1e-12)
    assert rep.unique == rep0.unique
    assert _relative(rep.halfspace.direction.vec, rep0.halfspace.direction.vec, 1.0) <= 1e-12
    assert _relative(rep.halfspace.offset, s * rep0.halfspace.offset, s) <= 1e-12


@pytest.mark.parametrize("k", range(-20, 21))
def test_gaussian_depth_does_not_depend_on_units(k):
    s = 10.0**k
    mu0 = GaussianMeasure(np.array([1.0, -2.0]), _FACTOR)
    mu = GaussianMeasure(s * mu0.location, s * _FACTOR)
    x0 = mu0.location + _GPOINT
    assert gaussian_depth(mu, s * x0) == pytest.approx(gaussian_depth(mu0, x0), rel=1e-12)
    rep0, rep = gaussian_represent(mu0, x0), gaussian_represent(mu, s * x0)
    assert rep.alpha == pytest.approx(rep0.alpha, rel=1e-12)
    assert _relative(rep.halfspace.direction.vec, rep0.halfspace.direction.vec, 1.0) <= 1e-12


@pytest.mark.parametrize("k", range(-20, 21))
def test_zonotope_polygon_does_not_depend_on_units(k):
    s = 10.0**k
    ref = zonotope_polygon_2d(EmpiricalMeasure.uniform(_PTS))
    poly = zonotope_polygon_2d(EmpiricalMeasure.uniform(s * _PTS))
    assert len(ref) == len(poly) == 100
    assert _relative(poly.vertices, s * ref.vertices, s) <= 1e-12


def _hull_vertex():
    return _PTS[np.argmax(_PTS[:, 0])]


def test_boundary_band_is_relative_to_the_radius():
    # at shift 1e8 an absolute-plus-relative band 1e-9 (1 + 1e8) = 0.1 would
    # call a point 0.05 inside the hull a boundary point
    mu = EmpiricalMeasure.uniform(_PTS + 1e8)
    inside = _hull_vertex() - np.array([0.05, 0.0]) + 1e8
    assert zonoid_depth(mu, inside).status is DepthStatus.INTERIOR


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e8, 1e10])
def test_hull_vertex_stays_on_the_boundary_when_shifted(shift):
    mu = EmpiricalMeasure.uniform(_PTS + shift)
    cert = zonoid_depth(mu, _hull_vertex() + shift)
    assert cert.status is DepthStatus.BOUNDARY
    assert cert.depth == pytest.approx(1.0 / _PTS.shape[0], abs=1e-12)


def test_represent_at_the_mean_of_a_flat_cloud_is_the_whole_space():
    # represent tests the mean window itself, before the depth LP's span
    # check would reject the collinear atoms
    mu = EmpiricalMeasure.uniform(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    rep = represent(mu, [1.0, 1.0])
    assert rep.halfspace.is_whole_space
    assert rep.alpha == 1.0 and rep.unique


def test_tolerances_hold_only_the_shared_thresholds():
    names = [f.name for f in dataclasses.fields(Tolerances)]
    assert names == ["unit_norm", "weight_warn", "mean_radius", "alpha_floor", "degenerate"]
