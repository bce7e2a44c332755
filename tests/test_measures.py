"""Measures layer: directions, half-spaces, atoms, Gaussians, file loaders."""

import json
import logging
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from liftzonoid import (
    BarycentricCoords,
    CoordKind,
    DegenerateMeasure,
    DimensionMismatch,
    Direction,
    DomainError,
    EmpiricalMeasure,
    GaussianMeasure,
    HalfSpace,
    InputFormatError,
    NonFinite,
    NoSolution,
    TrimmedRegionQuery,
    ZeroMass,
    convert_coords,
    load_empirical_csv,
    load_gaussian_json,
    load_measure,
    point_from_coords,
    support_trimmed,
    trimmed_boundary_point,
)
from liftzonoid.measures import _SELECT_BASE, upper_mass_split


class TestDirection:
    def test_requires_unit_norm(self):
        with pytest.raises(DomainError):
            Direction([1.0, 1.0])

    def test_of_normalizes(self):
        u = Direction.of([3.0, 4.0])
        np.testing.assert_allclose(u.vec, [0.6, 0.8], atol=1e-15)
        assert u.dim == 2

    def test_of_rejects_zero(self):
        with pytest.raises(DomainError):
            Direction.of([0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            Direction.of([np.inf, 1.0])

    def test_negation(self):
        u = Direction([0.0, 1.0])
        np.testing.assert_array_equal((-u).vec, [0.0, -1.0])


class TestHalfSpace:
    def test_json_roundtrip(self):
        h = HalfSpace(Direction([1.0, 0.0]), -0.25)
        d = h.to_json_dict()
        assert d == {"u": [1.0, 0.0], "a": -0.25}
        h2 = HalfSpace.from_json_dict(d)
        assert h2.offset == h.offset
        np.testing.assert_array_equal(h2.direction.vec, h.direction.vec)

    def test_whole_space_json_sentinel(self):
        h = HalfSpace(Direction([1.0]), float("-inf"))
        assert h.is_whole_space
        d = h.to_json_dict()
        assert d["a"] == "-inf"
        assert HalfSpace.from_json_dict(d).is_whole_space

    def test_offset_must_be_finite_or_neg_inf(self):
        with pytest.raises(DomainError):
            HalfSpace(Direction([1.0]), float("nan"))
        with pytest.raises(DomainError):
            HalfSpace(Direction([1.0]), float("inf"))


class TestUpperMassSplit:
    def test_threshold_atom_carries_residual(self):
        # atoms strictly above the threshold are "full"; the threshold atom
        # itself sits in "tie" and absorbs the remaining mass, here all of it
        v = np.array([3.0, 2.0, 1.0])
        w = np.array([0.2, 0.3, 0.5])
        thr, full, tie, residual = upper_mass_split(v, w, 0.5)
        assert thr == 2.0
        np.testing.assert_array_equal(full, [True, False, False])
        np.testing.assert_array_equal(tie, [False, True, False])
        assert residual == pytest.approx(0.3, abs=1e-15)

    def test_tie_mass_shared(self):
        v = np.array([1.0, 1.0, 0.0, -1.0])
        w = np.full(4, 0.25)
        thr, full, tie, residual = upper_mass_split(v, w, 0.6)
        assert thr == 0.0
        np.testing.assert_array_equal(full, [True, True, False, False])
        np.testing.assert_array_equal(tie, [False, False, True, False])
        assert residual == pytest.approx(0.1)

    def test_alpha_one_takes_everything(self):
        v = np.array([2.0, -5.0])
        thr, full, tie, residual = upper_mass_split(v, np.array([0.5, 0.5]), 1.0)
        assert thr == -5.0
        assert full.sum() + tie.sum() == 2


def _sorted_split(values, weights, alpha):
    """The upper-alpha split by a full stable sort and a running sum."""
    order = np.argsort(-values, kind="stable")
    cum = np.cumsum(weights[order])
    k = min(int(np.searchsorted(cum, alpha - 1e-12)), values.size - 1)
    threshold = float(values[order[k]])
    full = values > threshold
    tie = values == threshold
    residual = min(max(alpha - float(weights[full].sum()), 0.0), float(weights[tie].sum()))
    return threshold, full, tie, residual


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 40), st.integers(_SELECT_BASE - 2, _SELECT_BASE + 2),
                st.integers(_SELECT_BASE, 8 * _SELECT_BASE)),
    levels=st.one_of(st.integers(1, 12), st.integers(13, 4000)),
    weights=st.sampled_from(["uniform", "small", "wide"]),
    alpha_kind=st.sampled_from(["tiny", "k/n", "cum", "one", "random"]),
    fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_selection_matches_sorted_split(seed, n, levels, weights, alpha_kind, fraction):
    # integer clouds, tie-heavy at few levels, below and well above the sorted base case
    rng = np.random.default_rng(seed)
    v = rng.integers(-levels, levels + 1, n).astype(float)
    top = {"uniform": 1, "small": 4, "wide": 1000}[weights]
    w = rng.integers(1, top + 1, n).astype(float)
    w /= w.sum()
    k = min(int(fraction * n), n - 1)
    alpha = {
        "tiny": 1e-12,
        "k/n": (k + 1) / n,
        "cum": min(float(np.cumsum(w[np.argsort(-v, kind="stable")])[k]), 1.0),
        "one": 1.0,
        "random": max(fraction, 1e-12),
    }[alpha_kind]
    thr, full, tie, residual = upper_mass_split(v, w, alpha)
    ref_thr, ref_full, ref_tie, ref_residual = _sorted_split(v, w, alpha)
    assert thr == ref_thr
    np.testing.assert_array_equal(full, ref_full)
    np.testing.assert_array_equal(tie, ref_tie)
    assert abs(residual - ref_residual) <= 1e-15


def _outside_sample(n, rng):
    """An index that the first round's strided sample of n candidates skips."""
    sampled = set((np.arange(_SELECT_BASE) * n // _SELECT_BASE).tolist())
    return int(rng.choice([i for i in range(n) if i not in sampled]))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(_SELECT_BASE + 1, 600), st.integers(601, 5000)),
    family=st.sampled_from(["deficit", "rounded-deficit", "outlier", "big-tie"]),
    order=st.sampled_from(["random", "ascending", "descending"]),
    fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_sampled_pivots_match_sorted_split(seed, n, family, order, fraction):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if family == "rounded-deficit":
        v = np.round(v, 1)
    elif family == "big-tie":  # a tie group larger than the base case
        v = np.concatenate([v, np.zeros(int(rng.integers(_SELECT_BASE + 1, 2 * _SELECT_BASE)))])
    v = {"random": rng.permutation(v), "ascending": np.sort(v), "descending": -np.sort(-v)}[order]
    if family.endswith("deficit"):
        # the inversion's input: values below a level h, weights w (h - v) / P,
        # whose total D / P exceeds the level 1 the inversion asks for
        h = float(v.max()) + rng.exponential()
        w = (h - v) / n
        w /= w.sum() * (0.02 + 0.97 * fraction)
        alpha = 1.0
    elif family == "outlier":
        # equal weights except one heavy atom that the strided sample skips
        w = np.ones(n)
        w[_outside_sample(n, rng)] = 1000.0
        w /= w.sum()
        alpha = max(fraction, 1e-12)
    else:  # the crossing inside the tie group
        w = rng.uniform(0.5, 2.0, v.size)
        w /= w.sum()
        alpha = float(w[v > 0.0].sum() + fraction * w[v == 0.0].sum())
    thr, full, tie, residual = upper_mass_split(v, w, alpha)
    ref_thr, ref_full, ref_tie, ref_residual = _sorted_split(v, w, alpha)
    assert thr == ref_thr
    np.testing.assert_array_equal(full, ref_full)
    np.testing.assert_array_equal(tie, ref_tie)
    assert abs(residual - ref_residual) <= 1e-15


class TestSelectionWorstCase:
    """Deterministic guards on the selection's work, by counting calls."""

    @staticmethod
    def _record(monkeypatch, name):
        sizes = []
        original = getattr(np, name)

        def wrapped(a, *args, **kwargs):
            sizes.append(np.asarray(a).size)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapped)
        return sizes

    def test_no_full_sort(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 10_000
        pts = np.round(rng.standard_normal((n, 2)), 1)
        w = rng.uniform(0.5, 2.0, n)
        mu = EmpiricalMeasure(pts, w / w.sum())
        u = Direction.of([0.6, 0.8])
        sizes = self._record(monkeypatch, "argsort")
        for alpha in (1e-6, 0.1, 0.5, 0.9, 1.0):
            query = TrimmedRegionQuery(alpha, u)
            h = support_trimmed(mu, query)
            trimmed_boundary_point(mu, query)
            mu.upper_quantile(u, alpha)
            coords = BarycentricCoords(CoordKind.SUPPORT, h, u)
            convert_coords(mu, coords, CoordKind.DEPTH)
            convert_coords(mu, coords, CoordKind.OFFSET)
            point_from_coords(mu, coords)
        assert max(sizes, default=0) <= _SELECT_BASE

    # every round calls np.flatnonzero once or twice, whether its pivot came
    # from np.partition or from the sorted sample, so the calls bound the rounds

    @pytest.mark.parametrize("profile", ["geometric", "bottom-heavy"])
    @pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.9])
    def test_partition_rounds_logarithmic(self, monkeypatch, profile, alpha):
        n = 10_000
        v = np.random.default_rng(5).permutation(n).astype(float)
        rank = np.argsort(np.argsort(-v))  # 0 at the largest value
        if profile == "geometric":  # weights falling geometrically with the value's rank
            w = 0.99 ** rank
        else:  # 99% of the mass on the lowest 1% of the atoms
            w = np.where(rank >= n - n // 100, 99.0 / (n // 100), 1.0 / (n - n // 100))
        w = w / w.sum()
        rounds = self._record(monkeypatch, "flatnonzero")
        result = upper_mass_split(v, w, alpha)
        monkeypatch.undo()
        assert len(rounds) <= 2 * math.ceil(math.log2(n)) + 2
        assert result[0] == _sorted_split(v, w, alpha)[0]

    @pytest.mark.parametrize("order", ["cloud", "ascending"])
    @pytest.mark.parametrize("alpha", [0.03, 0.5, 0.97])
    def test_inversion_deficit_weights_take_few_rounds(self, monkeypatch, alpha, order):
        # the support-to-depth inversion's input: the atoms below a trimmed
        # support h, weighted by w_i (h - v_i) / E(V - h)_+, at level 1; sorted
        # input needs a sample that spans all candidates, not their first 256
        mu = EmpiricalMeasure.uniform(np.random.default_rng([7, 3]).standard_normal((100_000, 2)))
        u = Direction.of([math.cos(1.9), math.sin(1.9)])
        v = mu.points @ u.vec
        gap = v - support_trimmed(mu, TrimmedRegionQuery(alpha, u))
        excess = float(mu.weights @ np.maximum(gap, 0.0))
        below = np.flatnonzero(gap < 0.0)
        if order == "ascending":
            below = below[np.argsort(v[below], kind="stable")]
        values, weights = v[below], mu.weights[below] * (gap[below] / -excess)
        rounds = self._record(monkeypatch, "flatnonzero")
        result = upper_mass_split(values, weights, 1.0)
        monkeypatch.undo()
        assert len(rounds) <= 4
        assert result[0] == _sorted_split(values, weights, 1.0)[0]


class TestEmpiricalMeasure:
    def test_uniform_constructor(self):
        mu = EmpiricalMeasure.uniform(np.array([[0.0], [1.0], [2.0]]))
        np.testing.assert_allclose(mu.weights, 1.0 / 3.0)
        assert mu.size == 3 and mu.dim == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))

    def test_mean(self, square):
        np.testing.assert_allclose(square.mean(), [0.0, 0.0], atol=1e-16)

    def test_project_keeps_atom_order(self, cloud):
        mu = cloud(6, n=23, d=3)
        vec = np.array([2.0, -0.5, 3.0])  # any spatial vector, not a unit one
        proj = mu.project(vec)
        np.testing.assert_array_equal(proj.values, mu.points @ vec)
        np.testing.assert_array_equal(proj.weights, mu.weights)

    def test_project_rejects_wrong_length(self, square):
        with pytest.raises(DimensionMismatch):
            square.project([1.0, 0.0, 0.0])

    def test_upper_quantile_two_atoms(self, two_atom):
        u = Direction([1.0])
        assert two_atom.upper_quantile(u, 0.5) == 1.0
        assert two_atom.upper_quantile(u, 2.0 / 3.0) == -1.0
        assert two_atom.upper_quantile(u, 1.0) == -1.0

    def test_upper_quantile_monotone(self, cloud):
        mu = cloud(3, n=17, d=3)
        u = Direction.of([1.0, -2.0, 0.5])
        alphas = np.linspace(0.05, 1.0, 25)
        qs = [mu.upper_quantile(u, a) for a in alphas]
        assert all(b <= a + 1e-15 for a, b in zip(qs, qs[1:]))

    def test_halfspace_mass(self, square):
        u = Direction([1.0, 0.0])
        assert square.halfspace_mass(HalfSpace(u, 0.5)) == 0.5
        assert square.halfspace_mass(HalfSpace(u, 1.0)) == 0.5  # closed: atoms count
        assert square.halfspace_mass(HalfSpace(u, 1.0 + 1e-12)) == 0.0
        assert square.halfspace_mass(HalfSpace(u, float("-inf"))) == 1.0

    def test_halfspace_barycenter(self, square):
        u = Direction([1.0, 0.0])
        b = square.halfspace_barycenter(HalfSpace(u, 0.5))
        np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-15)

    def test_halfspace_barycenter_zero_mass(self, square):
        with pytest.raises(ZeroMass):
            square.halfspace_barycenter(HalfSpace(Direction([1.0, 0.0]), 2.0))

    def test_quantile_mass_consistency(self, cloud):
        # mass of {<x,u> >= upper_quantile(u, alpha)} is the smallest
        # closed-half-space mass that reaches alpha
        mu = cloud(11, n=23, d=2)
        u = Direction.of([0.3, 1.0])
        for alpha in [0.1, 0.37, 0.5, 0.9, 1.0]:
            a = mu.upper_quantile(u, alpha)
            assert mu.halfspace_mass(HalfSpace(u, a)) >= alpha - 1e-12

    def test_affine_image(self, square):
        mat = np.array([[2.0, 0.0], [1.0, 1.0]])
        shift = np.array([1.0, -1.0])
        nu = square.affine_image(mat, shift)
        np.testing.assert_allclose(nu.points, square.points @ mat.T + shift)
        np.testing.assert_allclose(nu.mean(), mat @ square.mean() + shift, atol=1e-15)


class TestGaussianMeasure:
    def test_standard(self):
        mu = GaussianMeasure.standard(3)
        np.testing.assert_array_equal(mu.location, np.zeros(3))
        np.testing.assert_array_equal(mu.covariance, np.eye(3))

    def test_from_covariance_matches_factor(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        mu = GaussianMeasure.from_covariance([1.0, -2.0], cov)
        np.testing.assert_allclose(mu.covariance, cov, atol=1e-14)

    def test_from_covariance_rejects_singular(self):
        with pytest.raises(DegenerateMeasure):
            GaussianMeasure.from_covariance([0.0], [[0.0]])

    def test_whiten_roundtrip(self):
        mu = GaussianMeasure.from_covariance([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(mu.unwhiten(mu.whiten(x)), x, atol=1e-14)

    def test_upper_quantile_matches_scipy(self):
        mu = GaussianMeasure.from_covariance([1.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        u = Direction([1.0, 0.0])  # projection is N(1, 4)
        for alpha in [0.05, 0.3, 0.5, 0.9]:
            expected = scipy.stats.norm.isf(alpha, loc=1.0, scale=2.0)
            assert mu.upper_quantile(u, alpha) == pytest.approx(expected, rel=1e-12)

    def test_halfspace_mass_matches_scipy(self, std2):
        u = Direction.of([1.0, 1.0])
        for a in [-1.5, 0.0, 0.7, 2.2]:
            expected = scipy.stats.norm.sf(a)
            assert std2.halfspace_mass(HalfSpace(u, a)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_halfspace_barycenter_is_tail_mean(self, std1):
        # for the standard normal, E[Z | Z >= a] = pdf(a)/sf(a)
        for a in [-1.0, 0.0, 1.3]:
            b = std1.halfspace_barycenter(HalfSpace(Direction([1.0]), a))
            expected = scipy.stats.norm.pdf(a) / scipy.stats.norm.sf(a)
            assert b[0] == pytest.approx(expected, rel=1e-12)

    def test_halfspace_barycenter_reference(self, std1):
        # frozen mpmath values for the one-sided tail mean
        cases = {-1.0: 0.2875999709391783612, 0.0: 0.7978845608028653559,
                 1.3: 1.770327832359651066}
        for a, val in cases.items():
            b = std1.halfspace_barycenter(HalfSpace(Direction([1.0]), a))
            assert b[0] == pytest.approx(val, rel=1e-12)

    def test_halfspace_barycenter_off_axis(self):
        # shifted/scaled law: E[(m + s Z) | m + s Z >= a] with m=0.3, s=1.7
        mu = GaussianMeasure.from_covariance([0.3], [[1.7 ** 2]])
        b = mu.halfspace_barycenter(HalfSpace(Direction([1.0]), 0.0))
        mass = mu.halfspace_mass(HalfSpace(Direction([1.0]), 0.0))
        # E (0.3 + 1.7 Z)_+ = mass * conditional mean, frozen via mpmath
        assert mass * b[0] == pytest.approx(0.8387347931666665017, rel=1e-12)

    def test_whole_space_barycenter_is_mean(self, std2):
        b = std2.halfspace_barycenter(HalfSpace(Direction([1.0, 0.0]), float("-inf")))
        np.testing.assert_allclose(b, std2.location, atol=1e-15)

    def test_affine_image_transfers_covariance(self):
        mu = GaussianMeasure.from_covariance([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        mat = np.array([[1.0, 2.0], [0.0, 1.0]])
        nu = mu.affine_image(mat, np.array([5.0, 5.0]))
        np.testing.assert_allclose(nu.location, mat @ mu.location + 5.0)
        np.testing.assert_allclose(nu.covariance, mat @ mu.covariance @ mat.T,
                                   atol=1e-12)


    def test_projection_along_zero_is_a_point_mass(self):
        # the spatial part of the lift direction (1, 0) is the zero vector
        law = GaussianMeasure.from_covariance([0.7, 1.0], [[2.0, 0.3], [0.3, 1.0]]).project([0.0, 0.0])
        assert (law.mean, law.std) == (0.0, 0.0)
        assert law.positive_part_mean(1.0) == 1.0 and law.positive_part_mean(-1.0) == 0.0
        assert law.mass_above(0.0) == 1.0 and law.mass_above(1e-300) == 0.0
        assert law.tail_mean(0.3) == 0.0 and law.upper_quantile(0.3) == 0.0
        with pytest.raises(NoSolution):
            law.tail_mean_level(0.0)


def _descending_tables(values, weights):
    """Values sorted descending, with the running mass W and running sum S of w v."""
    order = np.argsort(-values, kind="stable")
    v, w = values[order], weights[order]
    return v, np.cumsum(w), np.cumsum(w * v)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 40), st.integers(300, 2000)),
    d=st.integers(1, 3),
    tied=st.booleans(),
    scale=st.sampled_from([1e-3, 0.37, 1.0, 50.0]),
    alpha=st.floats(1e-6, 1.0),
    t=st.floats(-3.0, 3.0),
    f=st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_projection_operations_match_sort_and_cumsum(seed, n, d, tied, scale, alpha, t, f):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(n, d)).astype(float) if tied else rng.standard_normal((n, d))
    w = rng.uniform(0.5, 2.0, n)
    mu = EmpiricalMeasure(pts, w / w.sum())
    vec = scale * rng.standard_normal(d)  # not a unit vector
    law = mu.project(vec)
    v, W, S = _descending_tables(mu.points @ vec, mu.weights)
    tol = 1e-12 * (1.0 + float(np.abs(v).max()))

    def above(k):  # (W, S) over the k largest values
        return (W[k - 1], S[k - 1]) if k else (0.0, 0.0)

    # E(t + V)_+ sums t + v over the values above -t
    mass, total = above(int(np.sum(v > -t)))
    assert law.positive_part_mean(t) == pytest.approx(t * mass + total, abs=tol * (1.0 + abs(t)))
    # P(V >= a) is the running mass at the last value at or above a
    for a in (t * scale, float(v[rng.integers(n)])):
        assert law.mass_above(a) == pytest.approx(above(int(np.sum(v >= a)))[0], abs=1e-14)
    # the first value whose running mass reaches alpha is the upper quantile and
    # the marginal atom of the tail mean
    k = min(int(np.searchsorted(W, alpha - 1e-12)), n - 1)
    assert law.upper_quantile(alpha) == v[k]
    mass, total = above(k)
    assert law.tail_mean(alpha) == pytest.approx((total + (alpha - mass) * v[k]) / alpha, abs=tol / alpha)
    # a level h between the mean and the top: the marginal atom is the first
    # value below h where the running excess S - W h stops being positive
    mean = float(mu.weights @ (mu.points @ vec))
    if v[0] - mean > 1e-6 * scale:
        h = mean + f * (v[0] - mean)
        excess = S - W * h
        k = int(np.flatnonzero((v < h) & (excess <= 0.0))[0])
        expected = W[k - 1] + excess[k - 1] / (h - v[k])
        expected = min(max(expected, W[k - 1]), W[k])
        assert law.tail_mean_level(h) == pytest.approx(expected, abs=1e-10)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.1, max_value=4))
@settings(max_examples=60)
def test_gaussian_projection_mass_left_continuity(loc, scale):
    mu = GaussianMeasure.from_covariance([loc], [[scale ** 2]])
    u = Direction([1.0])
    a = 0.4
    m0 = mu.halfspace_mass(HalfSpace(u, a))
    m1 = mu.halfspace_mass(HalfSpace(u, a - 1e-9))
    assert m1 >= m0
    assert m1 - m0 <= 1e-8


class TestLoaders:
    def test_csv_plain(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n1,0\n0,1\n")
        mu = load_empirical_csv(p)
        assert mu.size == 3 and mu.dim == 2
        np.testing.assert_allclose(mu.weights, 1.0 / 3.0)

    def test_csv_header_and_weights(self, tmp_path, caplog):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,weight\n0,0,2\n1,0,2\n0,1,4\n")
        with caplog.at_level(logging.WARNING, logger="liftzonoid"):
            mu = load_empirical_csv(p)
        np.testing.assert_allclose(mu.weights, [0.25, 0.25, 0.5])
        assert any("renormaliz" in r.message for r in caplog.records)

    def test_csv_bad_row_names_row(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n1,oops\n")
        with pytest.raises(InputFormatError, match="row 2"):
            load_empirical_csv(p)

    def test_csv_ragged_row(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n1\n")
        with pytest.raises(InputFormatError):
            load_empirical_csv(p)

    def test_csv_empty(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("")
        with pytest.raises(InputFormatError):
            load_empirical_csv(p)

    def test_gaussian_json_covariance(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"mean": [1.0, 2.0],
                                 "covariance": [[2.0, 0.5], [0.5, 1.0]]}))
        mu = load_gaussian_json(p)
        np.testing.assert_allclose(mu.location, [1.0, 2.0])
        np.testing.assert_allclose(mu.covariance, [[2.0, 0.5], [0.5, 1.0]],
                                   atol=1e-14)

    def test_gaussian_json_requires_covariance_key(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"mean": [0.0], "factor": [[3.0]]}))
        with pytest.raises(InputFormatError):
            load_gaussian_json(p)

    def test_gaussian_json_singular(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"mean": [0.0, 0.0],
                                 "covariance": [[1.0, 1.0], [1.0, 1.0]]}))
        with pytest.raises(DegenerateMeasure):
            load_gaussian_json(p)

    def test_gaussian_json_malformed(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_gaussian_json(p)

    def test_load_measure_dispatch(self, tmp_path):
        c = tmp_path / "pts.csv"
        c.write_text("0\n1\n")
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"mean": [0.0], "covariance": [[1.0]]}))
        assert isinstance(load_measure(measure_path=c), EmpiricalMeasure)
        assert isinstance(load_measure(gaussian_path=g), GaussianMeasure)
        with pytest.raises(InputFormatError):
            load_measure(measure_path=c, gaussian_path=g)
        with pytest.raises(InputFormatError):
            load_measure()
