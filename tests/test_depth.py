"""Zonoid data depth: LP certificate, dual direction, HiGHS and facet references.

The worked two-atom example is fully hand-checkable: atoms -1, +1 with
weight 1/2 each, probed at x = 1/2. The optimal loading is gamma =
(1/4, 3/4), the depth 2/3, and the dual direction +1.
"""

import numpy as np
import pytest
from highs_oracle import depth_bruteforce_oracle, highs_depth_lp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftzonoid import (
    DegenerateMeasure,
    DepthStatus,
    Direction,
    EmpiricalMeasure,
    NonFinite,
    NotConverged,
    TrimmedRegionQuery,
    represent,
    support_trimmed,
    trimmed_boundary_point,
    zonoid_depth,
)
from liftzonoid.depth import check_affine_span
from liftzonoid.sampling import direction_grid
from liftzonoid.simplex import solve_bounded_lp
from liftzonoid.verify import _facet_depth


class TestWorkedExample:
    def test_depth_value(self, two_atom):
        cert = zonoid_depth(two_atom, [0.5])
        assert cert.depth == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cert.status is DepthStatus.INTERIOR

    def test_atom_loadings(self, two_atom):
        cert = zonoid_depth(two_atom, [0.5])
        np.testing.assert_allclose(cert.atom_weights, [0.25, 0.75], atol=1e-12)
        assert cert.max_weight_ratio == pytest.approx(1.5, abs=1e-12)
        # max_i gamma_i / w_i = 1 / depth
        assert cert.max_weight_ratio == pytest.approx(1.0 / cert.depth, abs=1e-12)

    def test_dual_direction(self, two_atom):
        cert = zonoid_depth(two_atom, [0.5])
        u = cert.dual_direction
        np.testing.assert_allclose(u.vec, [1.0], atol=1e-12)
        assert not cert.dual_degenerate

    def test_oracle_agrees(self, two_atom):
        val = depth_bruteforce_oracle(two_atom, [0.5])
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("x, depth", [(0.5, 2.0 / 3.0), (1.5, 0.0), (0.0, 1.0)])
    def test_facet_depth(self, two_atom, x, depth):
        # at 0.5 the normal (1, 1), orthogonal to g_1 = (1/2, -1/2), has
        # support 1 and height 3/2; 1.5 lies outside, 0 is the mean
        assert _facet_depth(two_atom, np.array([x])) == pytest.approx(depth, abs=1e-15)


class TestStatuses:
    def test_mean_point(self, square):
        cert = zonoid_depth(square, [0.0, 0.0])
        assert cert.status is DepthStatus.MEAN
        assert cert.depth == 1.0
        np.testing.assert_array_equal(cert.atom_weights, square.weights)

    def test_outside(self, square):
        cert = zonoid_depth(square, [2.0, 0.0])
        assert cert.status is DepthStatus.OUTSIDE
        assert cert.depth == 0.0
        assert cert.atom_weights is None
        assert cert.dual_direction is None

    def test_atom_on_hull_boundary(self, square):
        # a vertex of the support hull has depth equal to its own weight
        cert = zonoid_depth(square, [1.0, 1.0])
        assert cert.depth == pytest.approx(0.25, abs=1e-12)
        assert cert.status is DepthStatus.BOUNDARY

    def test_interior_depth_range(self, cloud):
        mu = cloud(17, n=30, d=2)
        cert = zonoid_depth(mu, 0.8 * mu.mean() + 0.2 * mu.points[0])
        assert cert.status is DepthStatus.INTERIOR
        assert 0.0 < cert.depth <= 1.0


class TestCertificateInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_loadings_reconstruct_point(self, cloud, seed):
        mu = cloud(seed, n=25, d=3)
        x = mu.mean() * 0.4 + mu.points[seed % 25] * 0.3
        cert = zonoid_depth(mu, x)
        if cert.status is DepthStatus.OUTSIDE:
            pytest.skip("query landed outside the hull")
        gamma = cert.atom_weights
        assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(gamma @ mu.points, x, atol=1e-8)
        # feasibility of the LP loading: gamma_i <= w_i / depth
        assert np.all(gamma <= mu.weights / cert.depth + 1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_direction_supports_trimmed_region(self, cloud, seed):
        mu = cloud(40 + seed, n=22, d=2)
        x = mu.mean() * 0.3 + mu.points[0] * 0.45
        cert = zonoid_depth(mu, x)
        if cert.status is not DepthStatus.INTERIOR:
            pytest.skip("need an interior query")
        u = cert.dual_direction
        q = TrimmedRegionQuery(cert.depth, u)
        # x attains the support of its own trimmed region along u ...
        assert float(np.dot(x, u.vec)) == pytest.approx(
            support_trimmed(mu, q), abs=1e-9
        )
        # ... and no other direction gives x a larger excess
        for v in direction_grid(2, 24, seed=seed):
            qv = TrimmedRegionQuery(cert.depth, Direction(v))
            lhs = float(np.dot(x, v))
            assert lhs <= support_trimmed(mu, qv) + 1e-8

    def test_boundary_point_depth_recovers_alpha(self, cloud):
        # points produced by the trimmed-region tracer sit on the boundary
        # of D_alpha, so their depth is alpha (generic directions, no ties)
        mu = cloud(77, n=18, d=2)
        for alpha in [0.25, 0.4, 0.7]:
            for u in direction_grid(2, 6, seed=5):
                pt = trimmed_boundary_point(mu, TrimmedRegionQuery(alpha, Direction(u)))
                cert = zonoid_depth(mu, pt)
                assert cert.depth == pytest.approx(alpha, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_compact_loadings_rebuild_the_lp_solution(self, cloud, seed):
        # the certificate keeps a packed mask and the fractional entries;
        # the dense loadings it rebuilds are the LP solution, bit for bit
        mu = cloud(200 + seed, n=60, d=2)
        x = 0.6 * mu.points[seed] + 0.4 * mu.mean()
        cert = zonoid_depth(mu, x)
        res = solve_bounded_lp((mu.points - x).T, mu.weights)
        delta = np.maximum(res.x, 0.0)
        np.testing.assert_array_equal(cert.atom_weights, delta / delta.sum())
        assert cert.loading.index.size <= mu.dim

    def test_long_steps_take_few_iterations(self):
        # each basis change passes many breakpoints at once, so a query
        # needs far fewer basis changes than there are atoms
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((1000, 3))
        mu = EmpiricalMeasure.uniform(pts)
        for s in (0.2, 0.5, 0.9, 1.3):
            cert = zonoid_depth(mu, s * pts[0])
            assert cert.iterations <= 50
            assert cert.bound_flips >= 100


class TestDegenerateDual:
    def test_cross_vertex_query(self, cross):
        # x = (0.3, 0): depth 10/13, and x is a vertex of its trimmed region,
        # so the dual direction is any vector in the normal cone spanned by
        # (1,-1)/sqrt2 and (1,1)/sqrt2; the solver must return a member of
        # the cone and flag the ambiguity
        cert = zonoid_depth(cross, [0.3, 0.0])
        assert cert.depth == pytest.approx(10.0 / 13.0, abs=1e-10)
        assert cert.dual_degenerate
        u = cert.dual_direction.vec
        assert u[0] >= abs(u[1]) - 1e-9
        q = TrimmedRegionQuery(cert.depth, Direction(u))
        assert 0.3 * u[0] == pytest.approx(support_trimmed(cross, q), abs=1e-9)

    def test_unique_dual_not_flagged(self, two_atom):
        assert not zonoid_depth(two_atom, [0.5]).dual_degenerate


class TestEquivariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_affine_invariance(self, cloud, seed):
        mu = cloud(60 + seed, n=20, d=2)
        x = 0.5 * mu.mean() + 0.5 * mu.points[1]
        mat = np.array([[2.0, 1.0], [0.5, -1.0]])
        shift = np.array([3.0, -4.0])
        nu = mu.affine_image(mat, shift)
        d0 = zonoid_depth(mu, x).depth
        d1 = zonoid_depth(nu, mat @ x + shift).depth
        assert d1 == pytest.approx(d0, abs=1e-9)

    def test_symmetric_measure_symmetric_depth(self, square):
        for x in [[0.3, 0.1], [0.5, 0.5], [0.0, 0.7]]:
            d_plus = zonoid_depth(square, x).depth
            d_minus = zonoid_depth(square, [-x[0], -x[1]]).depth
            assert d_plus == pytest.approx(d_minus, abs=1e-10)

    def test_monotone_along_ray_from_mean(self, cloud):
        mu = cloud(31, n=26, d=2)
        direction = mu.points[2] - mu.mean()
        depths = []
        for s in [0.1, 0.3, 0.5, 0.7, 0.9]:
            cert = zonoid_depth(mu, mu.mean() + s * direction)
            depths.append(cert.depth)
        assert all(b <= a + 1e-9 for a, b in zip(depths, depths[1:]))


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 11))
        pts = rng.standard_normal((n, d))
        w = rng.uniform(0.2, 1.0, n)
        mu = EmpiricalMeasure(pts, w / w.sum())
        # mix interior and exterior probes
        lam = rng.uniform(0.0, 1.4)
        x = (1 - lam) * mu.mean() + lam * pts[int(rng.integers(n))]
        lp = zonoid_depth(mu, x).depth
        oracle = depth_bruteforce_oracle(mu, x)
        facet = _facet_depth(mu, x)
        assert lp == pytest.approx(oracle, abs=1e-6)
        assert facet == pytest.approx(lp, abs=1e-12)
        assert facet == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("kind, n, d", [
        ("gaussian", 2000, 5),
        ("integer-grid", 2000, 2),  # the depth benchmark's tied grid
        ("weighted", 200, 4),
    ])
    def test_realistic_sizes(self, kind, n, d):
        rng = np.random.default_rng(n + d)
        if kind == "integer-grid":
            pts = rng.integers(-6, 7, size=(n, d)).astype(float)
        else:
            pts = rng.standard_normal((n, d))
        w = rng.uniform(0.2, 1.0, n) if kind == "weighted" else np.ones(n)
        mu = EmpiricalMeasure(pts, w / w.sum())
        mean = mu.mean()
        for s, atom in zip((0.3, 0.9, 1.5), pts):
            x = mean + s * (atom - mean)
            assert zonoid_depth(mu, x).depth == pytest.approx(
                depth_bruteforce_oracle(mu, x), abs=1e-9
            )


class TestErrors:
    def test_degenerate_flat_measure(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateMeasure):
            zonoid_depth(EmpiricalMeasure.uniform(pts), [1.0, 1.0])

    def test_coincident_atoms_with_rounded_mean(self):
        # 13 copies of 2.0 average to 2 - 4.4e-16, not to 2
        mu = EmpiricalMeasure.uniform(np.full((13, 1), 2.0))
        assert mu.mean()[0] != 2.0
        with pytest.raises(DegenerateMeasure):
            zonoid_depth(mu, [2.0])

    def test_flat_measure_raises_on_every_call(self):
        mu = EmpiricalMeasure.uniform(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        for x in ([1.0, 1.0], [0.5, 0.5], [1.0, 1.0]):
            with pytest.raises(DegenerateMeasure, match="1-dimensional"):
                zonoid_depth(mu, x)
        coincident = EmpiricalMeasure.uniform(np.full((3, 2), 1.5))
        for _ in range(2):
            with pytest.raises(DegenerateMeasure, match="coincide"):
                zonoid_depth(coincident, [1.5, 1.5])

    def test_span_rank_computed_once_per_measure(self, monkeypatch, cloud):
        mu = cloud(3, n=40, d=2)
        calls = []
        original = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        first = zonoid_depth(mu, mu.points[0] * 0.5)
        second = zonoid_depth(mu, mu.points[1] * 0.5)
        represent(mu, mu.points[2] * 0.5)
        assert len(calls) == 1
        assert mu.affine_rank == 2
        assert first.depth > 0.0 and second.depth > 0.0

    def test_nonfinite_point(self, square):
        with pytest.raises(NonFinite):
            zonoid_depth(square, [np.nan, 0.0])


def _cloud_with_smallest_singular_value(seed, n, d, log_ratio, scale):
    """n atoms in R^d whose centered matrix has smallest singular value
    10**log_ratio times its largest, shifted off the origin and scaled."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    u, s, vt = np.linalg.svd(a - a.mean(axis=0), full_matrices=False)
    s[-1] = s[0] * 10.0 ** log_ratio
    return EmpiricalMeasure.uniform(scale * ((u * s) @ vt + rng.standard_normal(d)))


def _smallest_singular_value_over_top(mu):
    centered = mu.points - mu.mean()
    top = np.linalg.norm(centered, axis=1).max()
    return np.linalg.svd(centered, compute_uv=False)[-1] / top


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=1, max_value=35),
    flat=st.booleans(),
    log_ratio=st.floats(min_value=0.0, max_value=1.0),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_span_check_cuts_singular_values_relative_to_top_atom(
        seed, d, extra, flat, log_ratio, log_scale):
    # flat clouds get a ratio in [1e-16, 1e-13.5], spanning ones in [1e-7.5, 1]
    log_ratio = -16.0 + 2.5 * log_ratio if flat else -7.5 + 7.5 * log_ratio
    mu = _cloud_with_smallest_singular_value(seed, d + extra, d, log_ratio,
                                             10.0 ** log_scale)
    ratio = _smallest_singular_value_over_top(mu)
    if ratio <= 1e-12:
        with pytest.raises(DegenerateMeasure):
            check_affine_span(mu)
    else:
        assert ratio >= 1e-8
        check_affine_span(mu)


def _near_cutoff_cloud(seed):
    """A seeded cloud whose smallest singular value lies near the cutoff."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    return _cloud_with_smallest_singular_value(
        seed, d + int(rng.integers(1, 40)), d,
        rng.uniform(-11.0, -9.4), 10.0 ** rng.uniform(-3.0, 3.0))


def _pivoted_qr_rule_accepts(mu):
    """The span rule once used: every pivoted-QR diagonal entry above the cutoff."""
    import scipy.linalg

    centered = (mu.points - mu.mean()).T
    top = np.linalg.norm(centered, axis=0).max()
    diag = np.abs(np.diag(scipy.linalg.qr(centered, mode="r", pivoting=True)[0]))
    return bool(diag.min() > 1e-10 * top)


def test_span_verdict_flips_near_the_cutoff_still_give_depth_answers():
    # The pivoted-QR diagonal can fall below the cutoff while every singular
    # value stays above it. Such clouds are now accepted; the depth LP must
    # answer nearly all of them, and raise only NotConverged otherwise.
    flipped = certified = 0
    for seed in range(600):
        mu = _near_cutoff_cloud(seed)
        if _pivoted_qr_rule_accepts(mu):
            continue
        try:
            check_affine_span(mu)
        except DegenerateMeasure:
            continue
        flipped += 1
        for x in (mu.mean() + 0.5 * (mu.points[0] - mu.mean()), mu.points[0]):
            try:
                cert = zonoid_depth(mu, x)
            except NotConverged:
                continue
            certified += 1
            # an atom, and the midpoint between it and the mean, lie in the
            # region trimmed at the atom's weight
            assert mu.weights[0] - 1e-9 <= cert.depth <= 1.0
    assert flipped >= 100
    assert certified >= 0.95 * 2 * flipped


def test_span_verdict_flip_the_other_way_just_under_the_cutoff():
    # seed 476 gives d = 5 and a smallest singular value 0.76 times the
    # cutoff, while the pivoted-QR diagonal stays 1.03 times above it
    mu = _near_cutoff_cloud(476)
    centered = mu.points - mu.mean()
    ratio = (np.linalg.svd(centered, compute_uv=False)[-1]
             / np.linalg.norm(centered, axis=1).max())
    assert 0.5e-10 < ratio < 1e-10
    assert _pivoted_qr_rule_accepts(mu)
    with pytest.raises(DegenerateMeasure):
        check_affine_span(mu)
    with pytest.raises(DegenerateMeasure):
        zonoid_depth(mu, mu.mean())


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_depth_of_convex_combination_bounded_below(seed):
    # any certificate gives a lower bound: if x = sum gamma_i x_i with
    # gamma_i <= w_i / t then depth(x) >= t; build one and check
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((8, 2))
    mu = EmpiricalMeasure.uniform(pts)
    gamma = rng.uniform(0.5, 1.0, 8)
    gamma /= gamma.sum()
    x = gamma @ pts
    t = float((mu.weights / gamma).min())
    cert = zonoid_depth(mu, x)
    assert cert.depth >= min(t, 1.0) - 1e-9


@st.composite
def _depth_instances(draw):
    """A measure and a query inside it, on its hull, or outside it."""
    kind = draw(st.sampled_from(["grid", "weighted", "near-flat"]))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    where = draw(st.sampled_from(["inside", "hull", "outside"]))
    n = draw(st.integers(min_value=d + 2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "grid":  # few distinct integer sites, so atoms repeat and tie
        sites = rng.integers(-2, 3, size=(max(n // 3, d + 1), d)).astype(float)
        pts = sites[rng.integers(len(sites), size=n)]
        w = np.full(n, 1.0 / n)
    else:
        pts = rng.standard_normal((n, d))
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        if kind == "near-flat":
            pts[:, -1] *= 1e-5
    mu = EmpiricalMeasure(pts, w)
    try:
        check_affine_span(mu)
    except DegenerateMeasure:
        assume(False)
    mean = mu.mean()
    v = rng.standard_normal(d)
    extreme = pts[int(np.argmax(pts @ v))]  # a vertex of the hull
    if where == "inside":
        x = mean + rng.uniform(0.05, 0.95) * (pts[rng.integers(n)] - mean)
    elif where == "hull":
        x = extreme.copy()
    else:  # beyond the hull's supporting plane at the vertex
        x = extreme + 0.25 * (extreme - mean)
    return mu, x, where


@given(_depth_instances())
@settings(max_examples=150, deadline=None)
def test_depth_matches_highs_on_ties_weights_and_flat_clouds(instance):
    mu, x, where = instance
    pts = mu.points
    scale = 1.0 + float(np.abs(pts).max())
    reference = min(highs_depth_lp((pts - x).T, mu.weights), 1.0)
    cert = zonoid_depth(mu, x)
    assert (cert.status is DepthStatus.OUTSIDE) == (reference <= 1e-9)
    assert (cert.status is DepthStatus.OUTSIDE) == (where == "outside")
    if cert.status is DepthStatus.OUTSIDE:
        assert cert.depth == 0.0 and cert.atom_weights is None
        return
    assert abs(cert.depth - reference) <= 1e-9
    gamma = cert.atom_weights
    assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(gamma @ pts, x, atol=1e-8 * scale)
    u = cert.dual_direction
    if u is not None and not cert.dual_degenerate:
        h = support_trimmed(mu, TrimmedRegionQuery(cert.depth, u))
        assert h == pytest.approx(float(x @ u.vec), abs=1e-8 * scale)
