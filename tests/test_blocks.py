"""The block index of large low-dimensional clouds against the full scan.

Clouds of at least 2^14 atoms in d <= 2, and of 2^16 in d = 3, answer
tail splits, support-level splits and half-space sums from a block index
once a few queries have asked for it: blocks of 64 atoms in the order of
their coarse cells along the Hilbert curve, summed whole above a level
and scanned atom by atom where the level cuts them. The tests here read
``mu._blocks`` to build the index at once. The reference is the full
scan: ``upper_mass_split`` over every atom's projection, with the support
and the boundary point summed from it directly; the same measure with no
index for support-level splits; and sums over every atom for the
half-space mass, barycenter and E(V - a)_+. Thresholds must be
bit-identical, supports and boundary points equal within 1e-12 (1 +
max|x|), support-level alphas and half-space sums within 1e-13 (1 +
max|x|); on five cloud shapes in d = 2 and 3, supports too. Support
levels near the windows at the farthest projection and at the mean must
answer or raise as the full scan does, and a level far from both must
not read the extreme projections. ``TestWorkGuards`` bounds the share of
atoms a query reads on a planar 10^5-atom Gaussian.
"""

import math

import numpy as np
import pytest

from liftzonoid import (
    BarycentricCoords,
    CoordKind,
    Direction,
    EmpiricalMeasure,
    HalfSpace,
    NoSolution,
    TrimmedRegionQuery,
    convert_coords,
    point_from_coords,
    support_trimmed,
    trimmed_boundary_point,
)
from liftzonoid import measures
from liftzonoid.measures import _BLOCK, _BLOCK_MIN_ATOMS, _BUILD_AT_QUERY, _MASS_SLACK, upper_mass_split


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


def _unindexed(mu):
    """A copy of ``mu`` that answers every query by the full scan."""
    twin = EmpiricalMeasure(mu.points, mu.weights)
    vars(twin)["_blocks"] = None  # the index is settled as absent
    return twin


def _levels(full, u, rng):
    """Support levels at the top, at the mean, at supports, at a cumulative
    block mass and within 2 _MASS_SLACK above the mass over a threshold."""
    law = full.project(u.vec)
    split = law.split(float(rng.uniform(0.05, 0.95)))
    over = split.mass + float(split.weights @ split.full)
    n = full.size
    alphas = (3.0 / n, 0.3, float(rng.uniform()), (n // _BLOCK // 3) * _BLOCK / n, over + _MASS_SLACK)
    return [float(law.values.max()), float(full.mean() @ u.vec)] + [law.tail_mean(a) for a in alphas]


def _assert_levels_match_full_scan(mu, full, u, levels):
    assert "_blocks" in vars(mu) and mu._blocks is not None
    tol = 1e-13 * (1.0 + float(np.abs(mu.points).max()))
    for h in levels:
        ref, got = full.project(u.vec).split_at_level(h), mu.project(u.vec).split_at_level(h)
        assert got.threshold == ref.threshold, h
        assert abs(got.alpha - ref.alpha) <= tol, h
        # a boundary point divides by alpha: the boundary-point tolerance
        point = full.tail_barycenter(ref, u)
        np.testing.assert_allclose(mu.tail_barycenter(got, u), point, rtol=0.0, atol=10.0 * tol)


def _assert_halfspaces_match_full_scan(mu, u, offsets):
    assert "_blocks" in vars(mu) and mu._blocks is not None
    tol = 1e-13 * (1.0 + float(np.abs(mu.points).max()))
    values = mu.points @ u.vec
    for a in offsets:
        inside = values >= a
        mass = float(mu.weights[inside].sum())
        assert abs(mu.halfspace_mass(HalfSpace(u, a)) - mass) <= tol, a
        if mass > 0.0:
            point = (mu.weights[inside] @ mu.points[inside]) / mass
            np.testing.assert_allclose(mu.halfspace_barycenter(HalfSpace(u, a)), point, rtol=0.0, atol=tol)
        excess = float(mu.weights @ np.maximum(values - a, 0.0))
        assert abs(mu.project(u.vec).positive_part_mean(-a) - excess) <= tol * (1.0 + abs(a)), a


def _offsets(mu, u, rng):
    """Half-space offsets at an atom, inside the range, and at both ends."""
    values = mu.points @ u.vec
    lo, hi = float(values.min()), float(values.max())
    return [float(values[rng.integers(values.size)]), float(rng.uniform(lo, hi)), hi, lo, 0.0]


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


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_levels_and_halfspaces_match_full_scan(seed):
    rng = np.random.default_rng([21, seed])
    d = 1 + seed % 3
    least = _BLOCK_MIN_ATOMS[d - 1]
    mu = _fuzz_cloud(rng, int(rng.integers(least, least + 25_000)), d)
    full = _unindexed(mu)
    mu._blocks
    for _ in range(2):
        u = Direction.of(rng.standard_normal(mu.dim))
        _assert_levels_match_full_scan(mu, full, u, _levels(full, u, rng))
        _assert_halfspaces_match_full_scan(mu, u, _offsets(mu, u, rng))


def _shape_cloud(shape, rng, n, d):
    """Uniform clouds of five shapes: Gaussian, a rotated anisotropic Gaussian,
    Student t with 2 degrees of freedom, a mix of 8 tight clusters, and a
    tied integer grid."""
    if shape == "gauss":
        pts = rng.standard_normal((n, d))
    elif shape == "aniso":
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        pts = (rng.standard_normal((n, d)) * np.array([1.0, 0.05, 0.01])[:d]) @ rotation.T
    elif shape == "t2":
        pts = rng.standard_t(2.0, size=(n, d))
    elif shape == "mix":
        centers = 4.0 * rng.standard_normal((8, d))
        pts = centers[rng.integers(0, 8, n)] + 0.3 * rng.standard_normal((n, d))
    else:
        pts = rng.integers(-20, 21, size=(n, d)).astype(float)
    return EmpiricalMeasure.uniform(pts)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shape", ["gauss", "aniso", "t2", "mix", "grid"])
def test_shapes_match_full_scan(shape, d):
    rng = np.random.default_rng([24, d, len(shape)])
    mu = _shape_cloud(shape, rng, _BLOCK_MIN_ATOMS[d - 1] + int(rng.integers(1, 2000)), d)
    full = _unindexed(mu)
    assert mu._blocks is not None
    tol = 1e-13 * (1.0 + float(np.abs(mu.points).max()))
    for _ in range(3):
        u = Direction.of(rng.standard_normal(d))
        for alpha in (1e-6, 0.1, 0.5, 0.9, float(rng.uniform())):
            threshold, support, _ = _full_scan(mu, u.vec, alpha)
            assert mu.upper_quantile(u, alpha) == threshold
            assert abs(support_trimmed(mu, TrimmedRegionQuery(alpha, u)) - support) <= tol
        _assert_levels_match_full_scan(mu, full, u, _levels(full, u, rng))
        _assert_halfspaces_match_full_scan(mu, u, _offsets(mu, u, rng))


def _split_or_none(law, h):
    try:
        return law.split_at_level(h)
    except NoSolution:
        return None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_levels_at_the_windows_match_full_scan(d, monkeypatch):
    # levels at, just inside and just outside the windows at the farthest
    # projection and at the mean; a level far from both never reads the
    # extreme projections
    rng = np.random.default_rng([25, d])
    for shape in ("gauss", "grid"):
        mu = _shape_cloud(shape, rng, _BLOCK_MIN_ATOMS[d - 1] + 100, d)
        full = _unindexed(mu)
        mu._blocks
        tol = 1e-13 * (1.0 + float(np.abs(mu.points).max()))
        for _ in range(3):
            v = Direction.of(rng.standard_normal(d)).vec
            values = mu.points @ v
            top, mean = float(values.max()), float(mu.weights @ values)
            spread = top - float(values.min())
            levels = [top, float(np.nextafter(top, np.inf)), top + 1e-10 * spread, top - 1e-10 * spread,
                      top + 1e-8 * spread, mean, mean + 1e-14 * spread, mean - 1e-10 * spread, mean - 1e-8 * spread]
            for h in levels:
                got, ref = _split_or_none(mu.project(v), h), _split_or_none(full.project(v), h)
                assert (got is None) == (ref is None), h
                if ref is not None:
                    assert got.threshold == ref.threshold, h
                    assert abs(got.alpha - ref.alpha) <= tol and abs(got.residual - ref.residual) <= tol, h
            assert _split_or_none(mu.project(v), levels[4]) is None
            assert _split_or_none(mu.project(v), levels[8]) is None
            assert mu.project(v).split_at_level(top).alpha == _MASS_SLACK
            assert mu.project(v).split_at_level(mean).alpha == 1.0
    h = mu.project(v).tail_mean(0.5)
    ref = full.project(v).split_at_level(h)

    def refuse(self):
        raise AssertionError("extreme projections read")

    monkeypatch.setattr(measures.EmpiricalProjection, "_extremes", property(refuse))
    assert mu.project(v).split_at_level(h).threshold == ref.threshold


@pytest.mark.parametrize("d, side", [(1, 1024), (2, 64), (3, 16)])
def test_hilbert_index_steps_to_a_neighbouring_cell(d, side):
    # the curve starts at the origin and fills the corner cube of each
    # power-of-two side before it leaves it, one face-neighbour at a time
    cells = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij")).reshape(d, -1)
    index = measures._hilbert_index(cells.astype(np.uint16))
    order = np.argsort(index)
    np.testing.assert_array_equal(index[order], np.arange(side**d))
    assert cells[:, order[0]].tolist() == [0] * d
    steps = np.abs(np.diff(cells[:, order], axis=1)).sum(axis=0)
    assert np.all(steps == 1)


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
    full = _unindexed(mu)
    rng = np.random.default_rng(11)
    for vec in ([1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0]):
        u = Direction.of(vec)
        for alpha in (1e-12, 181.0 / grid.shape[0], 0.25, 0.5, 1.0):
            _assert_matches_full_scan(mu, u, alpha)
        _assert_levels_match_full_scan(mu, full, u, _levels(full, u, rng))
        _assert_halfspaces_match_full_scan(mu, u, _offsets(mu, u, rng) + [90.0 * float(np.abs(u.vec).sum())])


def test_duplicates_split_across_blocks():
    # one atom repeated 1000 times fills whole blocks and cuts into two
    # more, and the threshold falls on it from either side
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.standard_normal((20_000, 2)), np.tile([[0.25, -0.5]], (1000, 1))])
    mu = EmpiricalMeasure.uniform(rng.permutation(pts))
    u = Direction.of([1.0, 1.0])
    dup = float(np.array([0.25, -0.5]) @ u.vec)
    mass_above = float(mu.weights[mu.points @ u.vec > dup].sum())
    full = _unindexed(mu)
    for alpha in (mass_above + 1e-4, mass_above + 0.02, mass_above + 1000.0 / mu.size):
        _assert_matches_full_scan(mu, u, alpha)
        split = mu.project(u.vec).split(alpha)
        assert split.threshold == dup and split.tie.size >= 1000
        # a support level whose marginal atom is the duplicate
        h = full.project(u.vec).tail_mean(alpha)
        _assert_levels_match_full_scan(mu, full, u, [h])
        assert mu.project(u.vec).split_at_level(h).threshold == dup
    _assert_matches_full_scan(mu, -u, 0.5)
    _assert_halfspaces_match_full_scan(mu, u, [dup, np.nextafter(dup, np.inf), np.nextafter(dup, -np.inf)])


@pytest.mark.parametrize("seed", range(4))
def test_levels_at_the_mean_of_cancelling_projections(seed):
    # tied atoms on the diagonal project to rounding noise on (1, -1): the
    # mean vector's <mean, v> then rounds by ulps of the coordinates, not of
    # the projections, and must not put the alpha = 1 support below the mean
    rng = np.random.default_rng([23, seed])
    n = _BLOCK_MIN_ATOMS[1] + int(rng.integers(0, 3000))
    t = rng.integers(0, 7, n) * (0.3 * 10.0 ** int(rng.integers(-4, 0)))
    w = rng.integers(1, 5, n).astype(float)
    mu = EmpiricalMeasure(np.stack([t, t], axis=1), w / w.sum())
    assert mu._blocks is not None
    full, u = _unindexed(mu), Direction.of([1.0, -1.0])
    values = mu.points @ u.vec
    levels = [support_trimmed(mu, TrimmedRegionQuery(1.0, u)), float(mu.weights @ values)]
    levels.append(float(np.nextafter(values.max(), -np.inf)))
    _assert_levels_match_full_scan(mu, full, u, levels)
    for h in levels:
        assert 0.0 < mu.project(u.vec).split_at_level(h).alpha <= 1.0


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
    full = _unindexed(mu)
    levels = [full.project(u.vec).tail_mean(k * _BLOCK / n) for k in (1, 2, 150, 299)]
    _assert_levels_match_full_scan(mu, full, u, levels)
    _assert_halfspaces_match_full_scan(mu, u, [float(n - k * _BLOCK) for k in (1, 150, 299)])


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
    mu._blocks
    law = mu.project([0.6, 0.8])
    law.tail_mean(0.3)
    law.upper_quantile(0.3)
    law.split_at_level(law.tail_mean(0.2))
    law.mass_above(0.1)
    law.positive_part_mean(0.1)
    mu.halfspace_barycenter(HalfSpace(Direction([0.6, 0.8]), 0.1))
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
        assert max(shares) <= 0.14
        assert np.mean(shares) <= 0.10

    def test_conversions_read_few_atoms(self, monkeypatch):
        # support -> depth / offset / point on the planar 10^5-atom cloud;
        # counted as above, the atoms handed to the tail kernel, and also
        # every atom projected: the blocks that h cuts and the bracket's
        # band (the extreme projections are read only near the windows)
        n = 100_000
        mu = EmpiricalMeasure.uniform(np.random.default_rng([7, 3]).standard_normal((n, 2)))
        n_blocks = mu._blocks.mass.size
        sizes = self._record(monkeypatch)
        projected = []
        cut = measures._BlockIndex.cut

        def counted(self, *args):
            out = cut(self, *args)
            projected.append(out.values.size)
            return out

        monkeypatch.setattr(measures._BlockIndex, "cut", counted)
        kernel, read = [], []
        for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            u = Direction([math.cos(angle), math.sin(angle)])
            for alpha in (0.03, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97):
                coords = BarycentricCoords(CoordKind.SUPPORT, support_trimmed(mu, TrimmedRegionQuery(alpha, u)), u)
                for convert in (
                    lambda: convert_coords(mu, coords, CoordKind.DEPTH),
                    lambda: convert_coords(mu, coords, CoordKind.OFFSET),
                    lambda: point_from_coords(mu, coords),
                ):
                    sizes.clear()
                    projected.clear()
                    convert()
                    atoms = [s for s in sizes if s != n_blocks]
                    assert len(atoms) == 1 and len(sizes) == 3
                    kernel.append(atoms[0] / n)
                    read.append(sum(projected) / n)
        assert max(kernel) <= 0.14 and np.mean(kernel) <= 0.10
        assert max(read) <= 0.20 and np.mean(read) <= 0.13

    def test_index_is_built_at_a_later_query(self, monkeypatch):
        builds = []
        build = measures._BlockIndex.build.__func__

        def counted(cls, *args):
            builds.append(args[0].shape)
            return build(cls, *args)

        monkeypatch.setattr(measures._BlockIndex, "build", classmethod(counted))
        mu = EmpiricalMeasure.uniform(np.random.default_rng(12).standard_normal((_BLOCK_MIN_ATOMS[1], 2)))
        u = Direction([0.6, 0.8])
        queries = [
            lambda: mu.upper_quantile(u, 0.3),
            lambda: mu.halfspace_mass(HalfSpace(u, 0.1)),
            lambda: mu.project(u.vec).split_at_level(1.0),
            lambda: mu.project(u.vec).positive_part_mean(0.0),
        ]
        answers = [queries[i % 4]() for i in range(_BUILD_AT_QUERY - 1)]
        assert builds == [] and "_blocks" not in vars(mu)
        queries[(_BUILD_AT_QUERY - 1) % 4]()
        assert builds == [mu.points.shape] and mu._blocks is not None
        later = [queries[i % 4]() for i in range(_BUILD_AT_QUERY - 1)]
        assert len(builds) == 1
        for a, b in zip(answers, later):
            if isinstance(a, float):
                assert abs(a - b) <= 1e-13
            else:
                assert a.threshold == b.threshold and abs(a.alpha - b.alpha) <= 1e-13

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
