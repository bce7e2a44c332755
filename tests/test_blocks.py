"""The block index of large low-dimensional clouds against the full scan.

Clouds of at least 2^14 atoms in d <= 2, and of 2^16 in d = 3, answer
tail splits from a block index: Z-ordered blocks of 64 atoms, summed whole above the threshold and
scanned atom by atom where the threshold cuts them. The reference here is
the full scan, ``upper_mass_split`` over every atom's projection, with the
support and the boundary point summed from it directly. Thresholds must be
bit-identical, supports and boundary points equal within 1e-12 (1 + max|x|).
"""

import math

import numpy as np
import pytest

from liftzonoid import (
    Direction,
    EmpiricalMeasure,
    TrimmedRegionQuery,
    support_trimmed,
    trimmed_boundary_point,
)
from liftzonoid import measures
from liftzonoid.measures import _BLOCK, _BLOCK_MIN_ATOMS, upper_mass_split


def _full_scan(mu, v, alpha):
    """Threshold, support and boundary point from one split over all atoms."""
    values = mu.points @ v
    threshold, full, tie, residual = upper_mass_split(values, mu.weights, alpha)
    w_full = mu.weights * full
    support = (float(w_full @ values) + residual * threshold) / alpha
    point = w_full @ mu.points
    if residual > 0.0:
        w_tie = mu.weights[tie]
        point = point + (residual / float(w_tie.sum())) * (w_tie @ mu.points[tie])
    return threshold, support, point / alpha


def _assert_matches_full_scan(mu, u, alpha):
    assert mu._blocks is not None
    threshold, support, point = _full_scan(mu, u.vec, alpha)
    query = TrimmedRegionQuery(alpha, u)
    tol = 1e-12 * (1.0 + float(np.abs(mu.points).max()))
    assert mu.upper_quantile(u, alpha) == threshold
    assert abs(support_trimmed(mu, query) - support) <= tol
    np.testing.assert_allclose(trimmed_boundary_point(mu, query), point, rtol=0.0, atol=tol)


def _fuzz_cloud(rng, n, d):
    kind = rng.choice(["gaussian", "weighted", "rounded", "integer"])
    pts = rng.standard_normal((n, d))
    if kind == "rounded":
        pts = np.round(pts, 1)
    elif kind == "integer":
        pts = rng.integers(-4, 5, size=(n, d)).astype(float)
    pts = pts * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3, size=d)
    w = rng.uniform(0.5, 2.0, n) if kind in ("weighted", "rounded") else np.ones(n)
    return EmpiricalMeasure(pts, w / w.sum())


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_matches_full_scan(seed):
    rng = np.random.default_rng([20, seed])
    d = 1 + seed % 3
    least = _BLOCK_MIN_ATOMS[d - 1]
    n = int(rng.integers(least, least + 25_000))
    mu = _fuzz_cloud(rng, n, d)
    for _ in range(3):
        u = Direction.of(rng.standard_normal(mu.dim))
        for alpha in (1e-12, 1e-6, 3.0 / n, 0.5, 1.0, float(rng.uniform())):
            _assert_matches_full_scan(mu, u, alpha)


def test_padded_last_block():
    n = _BLOCK_MIN_ATOMS[1] + 1
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure.uniform(rng.standard_normal((n, 2)))
    for alpha in (1e-12, 1.0 / n, 0.3, 1.0):
        for angle in np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False):
            _assert_matches_full_scan(mu, Direction([math.cos(angle), math.sin(angle)]), alpha)
    last_points, last_weights = mu._blocks.points[-1], mu._blocks.weights[-1]
    assert np.count_nonzero(last_weights) == 1 and np.all(last_weights[1:] == 0.0)
    assert np.all(last_points == last_points[0])
    assert mu._blocks.weights.size == n + _BLOCK - 1


def test_one_dimension():
    rng = np.random.default_rng(4)
    pts = rng.exponential(size=(30_000, 1))
    w = rng.uniform(0.5, 2.0, pts.shape[0])
    mu = EmpiricalMeasure(pts, w / w.sum())
    for u in (Direction([1.0]), Direction([-1.0])):
        for alpha in (1e-12, 1e-4, 0.25, 0.5, 0.999, 1.0):
            _assert_matches_full_scan(mu, u, alpha)


def test_atoms_on_box_faces():
    # a tied integer grid queried along the axes and the diagonals: whole
    # rows of atoms project exactly onto the ends of their blocks' intervals
    grid = np.stack(np.meshgrid(np.arange(181.0), np.arange(181.0)), axis=-1).reshape(-1, 2)
    mu = EmpiricalMeasure.uniform(grid)
    for vec in ([1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0]):
        u = Direction.of(vec)
        for alpha in (1e-12, 181.0 / grid.shape[0], 0.25, 0.5, 1.0):
            _assert_matches_full_scan(mu, u, alpha)


def test_duplicates_split_across_blocks():
    # one atom repeated 1000 times fills whole blocks and cuts into two
    # more, and the threshold falls on it from either side
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.standard_normal((20_000, 2)), np.tile([[0.25, -0.5]], (1000, 1))])
    mu = EmpiricalMeasure.uniform(rng.permutation(pts))
    u = Direction.of([1.0, 1.0])
    dup = float(np.array([0.25, -0.5]) @ u.vec)
    mass_above = float(mu.weights[mu.points @ u.vec > dup].sum())
    for alpha in (mass_above + 1e-4, mass_above + 0.02, mass_above + 1000.0 / mu.size):
        _assert_matches_full_scan(mu, u, alpha)
        split = mu.project(u.vec).split(alpha)
        assert split.threshold == dup and split.tie.size >= 1000
    _assert_matches_full_scan(mu, -u, 0.5)


def test_alpha_at_a_cumulative_block_mass():
    # sorted 1-D atoms fill the blocks in order, so k whole blocks carry
    # exactly the top k * 64 / n of the mass
    n = 64 * 300
    mu = EmpiricalMeasure.uniform(np.arange(float(n))[:, None])
    u = Direction([1.0])
    for k in (1, 2, 150, 299, 300):
        alpha = k * _BLOCK / n
        _assert_matches_full_scan(mu, u, alpha)
        split = mu.project(u.vec).split(alpha)
        assert split.threshold == n - k * _BLOCK
        assert split.mass + float(split.weights @ split.full) + split.residual == pytest.approx(alpha, abs=1e-15)


def test_gathered_rows_project_like_the_full_cloud():
    # the block path's thresholds equal the full scan's only because a row's
    # projection does not depend on which rows are projected with it
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5000))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        v = rng.standard_normal(d)
        full = pts @ v
        rows = np.flatnonzero(rng.uniform(size=n) < rng.uniform())
        np.testing.assert_array_equal(pts[rows] @ v, full[rows])
        start = int(rng.integers(0, n))
        np.testing.assert_array_equal(pts[start:] @ v, full[start:])


def test_block_intervals_hold_every_computed_projection():
    # atoms at the corners of their boxes, along directions of mixed sign:
    # an atom's computed projection may round past the box's computed end,
    # so the intervals are widened by a rounding margin
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        pts = rng.integers(-8, 9, size=(_BLOCK_MIN_ATOMS[d - 1], d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        blocks = EmpiricalMeasure.uniform(pts + rng.uniform(-1e3, 1e3, size=d))._blocks
        for _ in range(10):
            v = rng.standard_normal(d)
            lo, hi = blocks.bounds(v)
            values = (blocks.points.reshape(-1, d) @ v).reshape(blocks.weights.shape)
            assert np.all(lo[:, None] <= values) and np.all(values <= hi[:, None])


def test_values_are_not_computed_on_the_block_path():
    mu = EmpiricalMeasure.uniform(np.random.default_rng(7).standard_normal((_BLOCK_MIN_ATOMS[1], 2)))
    law = mu.project([0.6, 0.8])
    law.tail_mean(0.3)
    law.upper_quantile(0.3)
    assert "values" not in vars(law)
    np.testing.assert_array_equal(law.values, mu.points @ np.array([0.6, 0.8]))


class TestWorkGuards:
    @staticmethod
    def _record(monkeypatch):
        sizes = []
        original = measures.upper_mass_split

        def wrapped(values, *args, **kwargs):
            sizes.append(values.size)
            return original(values, *args, **kwargs)

        monkeypatch.setattr(measures, "upper_mass_split", wrapped)
        return sizes

    def test_queries_read_few_atoms(self, monkeypatch):
        n = 100_000
        mu = EmpiricalMeasure.uniform(np.random.default_rng([7, 3]).standard_normal((n, 2)))
        n_blocks = mu._blocks.mass.size
        sizes = self._record(monkeypatch)
        shares = []
        for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            u = Direction([math.cos(angle), math.sin(angle)])
            for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
                sizes.clear()
                trimmed_boundary_point(mu, TrimmedRegionQuery(alpha, u))
                atoms = [s for s in sizes if s != n_blocks]
                assert len(atoms) == 1 and len(sizes) == 3
                shares.append(atoms[0] / n)
        assert max(shares) <= 0.2
        assert np.mean(shares) <= 0.15

    @pytest.mark.parametrize("n, d", [(2**14 - 1, 1), (2**14 - 1, 2), (2**16 - 1, 3), (2**15, 4)])
    def test_no_index_below_the_cutoffs(self, monkeypatch, n, d):
        def refuse(*args):
            raise AssertionError("block index built")

        monkeypatch.setattr(measures._BlockIndex, "build", refuse)
        mu = EmpiricalMeasure.uniform(np.random.default_rng(8).standard_normal((n, d)))
        u = Direction.of(np.ones(d))
        sizes = self._record(monkeypatch)
        trimmed_boundary_point(mu, TrimmedRegionQuery(0.3, u))
        support_trimmed(mu, TrimmedRegionQuery(0.3, u))
        assert mu._blocks is None
        assert sizes == [n, n]

    @pytest.mark.parametrize("n, d", [(2**14, 1), (2**14, 2), (2**16, 3)])
    def test_index_at_the_cutoffs(self, n, d):
        mu = EmpiricalMeasure.uniform(np.random.default_rng(9).standard_normal((n, d)))
        assert mu._blocks is not None
        assert mu._blocks.weights.size == n
