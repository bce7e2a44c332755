"""Shared fixtures: small hand-checkable measures and standard Gaussians."""

import numpy as np
import pytest

from liftzonoid import EmpiricalMeasure, GaussianMeasure


@pytest.fixture
def two_atom():
    # atoms -1 and +1 on the line, equal weight; mean 0
    return EmpiricalMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))


@pytest.fixture
def square():
    # vertices of [-1,1]^2, uniform; zonoid is a square rotated 45 degrees
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return EmpiricalMeasure(pts, np.full(4, 0.25))


@pytest.fixture
def cross():
    # unit cross: one atom on each semi-axis of R^2
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return EmpiricalMeasure(pts, np.full(4, 0.25))


@pytest.fixture
def std1():
    return GaussianMeasure.standard(1)


@pytest.fixture
def std2():
    return GaussianMeasure.standard(2)


@pytest.fixture
def cloud():
    """Factory for random empirical measures with generic (tie-free) geometry."""

    def make(seed, n=40, d=2, weighted=True):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        if not weighted:
            return EmpiricalMeasure.uniform(pts)
        w = rng.uniform(0.2, 1.0, n)
        return EmpiricalMeasure(pts, w / w.sum())

    return make


@pytest.fixture
def near_flat_fuzz():
    """Points of the k-th cloud (from 0) of the seed-7 near-flat fuzz.

    Each cloud has d in 2..5, n in d+2..39, and its thinnest axis scaled
    by 10^-10.5 to 10^-6 before a random rotation.
    """

    def make(k):
        rng = np.random.default_rng(7)
        for _ in range(k + 1):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 2, 40))
            s = 10 ** rng.uniform(-10.5, -6)
            a = rng.standard_normal((n, d))
            sc = np.ones(d)
            sc[-1] = s
            r = np.linalg.qr(rng.standard_normal((d, d)))[0]
            pts = (a * sc) @ r.T
        return pts

    return make
