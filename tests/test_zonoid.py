"""Support functions of zonoids, lift zonoids, and trimmed regions."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftzonoid import (
    Direction,
    DomainError,
    EmpiricalMeasure,
    GaussianMeasure,
    LiftDirection,
    TrimmedRegionQuery,
    WrongDimension,
    radius,
    support_lift_zonoid,
    support_trimmed,
    support_zonoid,
    trimmed_boundary_point,
    zonotope_polygon_2d,
)
from liftzonoid.sampling import direction_grid

E1 = Direction([1.0, 0.0])


class TestSupportZonoid:
    def test_square_axis(self, square):
        # two atoms project to +1 with weight 1/4 each
        assert support_zonoid(square, E1) == pytest.approx(0.5, abs=1e-15)

    def test_matches_scalar_sum(self, cloud):
        mu = cloud(2, n=31, d=3)
        u = Direction.of([1.0, -0.5, 2.0])
        expected = sum(
            w * max(p @ u.vec, 0.0) for p, w in zip(mu.points, mu.weights)
        )
        assert support_zonoid(mu, u) == pytest.approx(expected, rel=1e-14)

    def test_difference_identity(self, cloud):
        # h(Z, u) - h(Z, -u) = <mean, u>, since s_+ - (-s)_+ = s
        mu = cloud(4, n=25, d=4)
        for u in direction_grid(4, 12, seed=1):
            d = Direction(u)
            gap = support_zonoid(mu, d) - support_zonoid(mu, -d)
            assert gap == pytest.approx(float(mu.mean() @ u), abs=1e-12)

    def test_gaussian_closed_form(self, std2):
        # E <X,u>_+ for a centered projection N(0, sigma^2) is sigma/sqrt(2 pi)
        val = support_zonoid(std2, Direction.of([1.0, 1.0]))
        assert val == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)


class TestSupportLiftZonoid:
    def test_mass_direction(self, square, std2):
        # (t, 0) with t = 1 reads off the total mass; a Gaussian's law along
        # the zero spatial part has std 0
        lift = LiftDirection.of(1.0, [0.0, 0.0])
        for mu in (square, std2):
            assert support_lift_zonoid(mu, lift) == pytest.approx(1.0, abs=1e-15)

    def test_spatial_slice_is_zonoid_support(self, cloud):
        mu = cloud(8, n=19, d=2)
        u = Direction.of([2.0, -1.0])
        lift = LiftDirection.of(0.0, u.vec)
        assert support_lift_zonoid(mu, lift) == pytest.approx(
            support_zonoid(mu, u), rel=1e-14
        )

    def test_square_mixed_direction(self, square):
        # direction (1/4, 1, 0)/norm: E(t + <X,u>)_+ = 2.5/sqrt(17) by hand
        lift = LiftDirection.of(0.25, [1.0, 0.0])
        assert support_lift_zonoid(square, lift) == pytest.approx(
            2.5 / np.sqrt(17.0), rel=1e-14
        )

    def test_negative_t_drops_tail(self, two_atom):
        # t = -0.5, u = +1 scaled: only the +1 atom survives the hinge
        lift = LiftDirection.of(-0.5, [1.0])
        norm = np.hypot(0.5, 1.0)
        assert support_lift_zonoid(two_atom, lift) == pytest.approx(
            0.5 * 0.5 / norm, rel=1e-14
        )

    def test_gaussian_matches_quadrature(self, std1):
        # E(t + Z)_+ = t Phi(t) + pdf(t), checked against a dense Riemann sum
        lift = LiftDirection.of(0.3, [1.0])
        t, u = lift.t, lift.spatial[0]
        z = np.linspace(-9, 9, 400_001)
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        expected = np.trapezoid(np.maximum(t + u * z, 0.0) * pdf, z)
        assert support_lift_zonoid(std1, lift) == pytest.approx(expected, rel=1e-9)


class TestSupportTrimmed:
    def test_alpha_one_is_mean_projection(self, cloud):
        mu = cloud(6, n=13, d=2)
        u = Direction.of([1.0, 3.0])
        q = TrimmedRegionQuery(1.0, u)
        assert support_trimmed(mu, q) == pytest.approx(float(mu.mean() @ u.vec),
                                                       abs=1e-12)

    def test_matches_manual_greedy_sum(self, cloud):
        mu = cloud(9, n=21, d=3)
        u = Direction.of([0.3, -1.0, 0.7])
        alpha = 0.37
        v = mu.points @ u.vec
        order = np.argsort(-v)
        acc = 0.0
        need = alpha
        for i in order:
            take = min(need, mu.weights[i])
            acc += take * v[i]
            need -= take
            if need <= 1e-15:
                break
        assert support_trimmed(mu, TrimmedRegionQuery(alpha, u)) == pytest.approx(
            acc / alpha, rel=1e-12
        )

    def test_nesting(self, cloud):
        # trimmed regions shrink as alpha grows, so supports are nonincreasing
        mu = cloud(12, n=40, d=2)
        u = Direction.of([1.0, 0.4])
        vals = [
            support_trimmed(mu, TrimmedRegionQuery(a, u))
            for a in np.linspace(0.05, 1.0, 30)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gaussian_is_radius(self, std2):
        for alpha in [0.1, 0.25, 0.5, 0.642, 0.975]:
            q = TrimmedRegionQuery(alpha, E1)
            assert support_trimmed(std2, q) == pytest.approx(radius(alpha),
                                                             rel=1e-12)

    def test_gaussian_general_covariance(self):
        mu = GaussianMeasure.from_covariance([1.0, -2.0],
                                             [[4.0, 1.0], [1.0, 2.0]])
        u = Direction.of([1.0, 1.0])
        s = float(mu.location @ u.vec)
        sigma = float(np.sqrt(u.vec @ mu.covariance @ u.vec))
        q = TrimmedRegionQuery(0.3, u)
        assert support_trimmed(mu, q) == pytest.approx(s + sigma * radius(0.3),
                                                       rel=1e-12)

    def test_alpha_domain(self, two_atom):
        for bad in [0.0, -0.1, 1.2]:
            with pytest.raises(DomainError):
                TrimmedRegionQuery(bad, Direction([1.0]))


class TestTrimmedBoundaryPoint:
    def test_square_no_tie(self, square):
        # alpha = 0.5 exhausts exactly the two right-hand atoms
        pt = trimmed_boundary_point(square, TrimmedRegionQuery(0.5, E1))
        np.testing.assert_allclose(pt, [1.0, 0.0], atol=1e-14)

    def test_square_tie_split(self, square):
        # alpha = 0.75 uses the right atoms fully and half of the left pair
        pt = trimmed_boundary_point(square, TrimmedRegionQuery(0.75, E1))
        np.testing.assert_allclose(pt, [1.0 / 3.0, 0.0], atol=1e-14)

    def test_alpha_one_is_mean(self, cloud):
        mu = cloud(3, n=9, d=2)
        pt = trimmed_boundary_point(mu, TrimmedRegionQuery(1.0, E1))
        np.testing.assert_allclose(pt, mu.mean(), atol=1e-12)

    def test_support_is_attained(self, cloud):
        # the boundary point realizes the trimmed support in its direction
        mu = cloud(15, n=33, d=3)
        for u in direction_grid(3, 8, seed=4):
            q = TrimmedRegionQuery(0.4, Direction(u))
            pt = trimmed_boundary_point(mu, q)
            assert float(pt @ u) == pytest.approx(support_trimmed(mu, q),
                                                  rel=1e-12)

    def test_gaussian_is_scaled_direction(self, std2):
        u = Direction.of([3.0, -4.0])
        pt = trimmed_boundary_point(std2, TrimmedRegionQuery(0.25, u))
        np.testing.assert_allclose(pt, radius(0.25) * u.vec, atol=1e-12)


def _walked_polygon(mu):
    """Reference: the zonotope walk one generator at a time, summing in order."""
    gens = mu.weights[:, None] * mu.points
    scale = float(np.abs(gens).max())
    gens = gens[np.linalg.norm(gens, axis=1) > 1e-15 * scale]
    if gens.shape[0] == 0:
        return np.zeros((1, 2))
    flip = (gens[:, 1] < 0.0) | ((gens[:, 1] == 0.0) & (gens[:, 0] < 0.0))
    upper = np.where(flip[:, None], -gens, gens)
    angles = np.arctan2(upper[:, 1], upper[:, 0])
    order = np.argsort(angles, kind="stable")
    edges, last = [], None
    for g, ang in zip(upper[order], angles[order]):
        if last is not None and ang - last <= 1e-12:
            edges[-1] = edges[-1] + g
        else:
            edges.append(g.copy())
        last = ang
    path = [gens[flip].sum(axis=0)]
    for g in edges + [-g for g in edges]:
        path.append(path[-1] + g)
    keep = [0]
    for i in range(1, len(path) - 1):
        if np.any(np.abs(path[i] - path[i - 1]) > 1e-12 * scale):
            keep.append(i)
    if len(keep) > 1 and np.all(np.abs(path[keep[-1]] - path[0]) <= 1e-12 * scale) and keep[-1] == len(path) - 2:
        keep.pop()
    return np.array([path[i] for i in keep])


def _tied_grid(seed, n):
    pts = np.random.default_rng(seed).integers(-6, 7, size=(n, 2)).astype(float)
    return EmpiricalMeasure.uniform(pts)


class TestZonotopePolygon:
    @pytest.mark.parametrize("seed,n,weighted", [(1, 1, False), (2, 5, True), (3, 200, False),
                                                 (4, 10_000, True)])
    def test_walk_is_bit_identical_without_ties(self, cloud, seed, n, weighted):
        mu = cloud(seed, n=n, weighted=weighted)
        np.testing.assert_array_equal(zonotope_polygon_2d(mu).vertices, _walked_polygon(mu))

    @pytest.mark.parametrize("seed,n", [(5, 50), (6, 2000)])
    def test_walk_on_tied_grids_moves_only_by_rounding(self, seed, n):
        # equal-angle generators are summed pairwise, not in order
        mu = _tied_grid(seed, n)
        got, ref = zonotope_polygon_2d(mu).vertices, _walked_polygon(mu)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_square_vertices(self, square):
        poly = zonotope_polygon_2d(square)
        np.testing.assert_allclose(
            poly.vertices, [[0.0, -0.5], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.0]],
            atol=1e-14,
        )

    def test_vertices_counterclockwise(self, cloud):
        poly = zonotope_polygon_2d(cloud(21, n=17))
        v = poly.vertices
        rolled = np.roll(v, -1, axis=0)
        cross = v[:, 0] * rolled[:, 1] - v[:, 1] * rolled[:, 0]
        assert np.all(cross > -1e-12)

    def test_polygon_support_matches_formula(self, cloud):
        mu = cloud(30, n=24)
        poly = zonotope_polygon_2d(mu)
        for u in direction_grid(2, 90, seed=2):
            assert poly.support(u) == pytest.approx(
                support_zonoid(mu, Direction(u)), abs=1e-10
            )

    def test_single_atom_is_segment(self):
        mu = EmpiricalMeasure.uniform(np.array([[2.0, 1.0]]))
        poly = zonotope_polygon_2d(mu)
        # zonoid of a point mass is the segment from 0 to the atom
        assert poly.vertices.shape[0] == 2
        np.testing.assert_allclose(poly.support(np.array([1.0, 0.0])), 2.0,
                                   atol=1e-14)

    def test_collinear_atoms_collapse(self):
        mu = EmpiricalMeasure.uniform(np.array([[1.0, 1.0], [2.0, 2.0],
                                                [-1.0, -1.0]]))
        poly = zonotope_polygon_2d(mu)
        # all generators parallel: the zonotope is a segment, 2 vertices
        assert poly.vertices.shape[0] == 2

    def test_atoms_at_the_origin_give_one_vertex(self):
        mu = EmpiricalMeasure.uniform(np.zeros((3, 2)))
        assert zonotope_polygon_2d(mu).vertices.tolist() == [[0.0, 0.0]]

    def test_wrong_dimension(self, cloud):
        with pytest.raises(WrongDimension):
            zonotope_polygon_2d(cloud(1, n=5, d=3))

    def test_large_clouds_within_budget(self):
        # a tied integer grid (13^2 cells, 48 generator directions) and a
        # Gaussian cloud, 10^5 atoms each
        clouds = [_tied_grid(3, 100_000),
                  EmpiricalMeasure.uniform(np.random.default_rng(4).standard_normal((100_000, 2)))]
        start = time.perf_counter()
        polys = [zonotope_polygon_2d(mu) for mu in clouds]
        elapsed = time.perf_counter() - start
        assert len(polys[0]) == 96
        for mu, poly in zip(clouds, polys):
            edges = np.roll(poly.vertices, -1, axis=0) - poly.vertices
            turns = np.roll(edges, -1, axis=0)
            assert np.all(edges[:, 0] * turns[:, 1] - edges[:, 1] * turns[:, 0] > 0.0)  # counterclockwise
            scale = float(np.abs(poly.vertices).max())
            for u in direction_grid(2, 360, seed=5):
                assert abs(poly.support(u) - support_zonoid(mu, Direction(u))) <= 1e-10 * scale
        assert elapsed < 0.5, f"two 10^5-atom polygons took {elapsed:.2f}s"


class TestLiftDirectionValidation:
    def test_normalization(self):
        lift = LiftDirection.of(3.0, [4.0, 0.0])
        assert np.hypot(lift.t, np.linalg.norm(lift.spatial)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            LiftDirection.of(0.0, [0.0, 0.0])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_support_zonoid_positive_homogeneous_input(seed):
    # support values are invariant under re-weighting direction queries only
    # through their direction, never their length; Direction enforces this,
    # so equal atoms with swapped order give identical supports
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((6, 2))
    mu = EmpiricalMeasure.uniform(pts)
    nu = EmpiricalMeasure.uniform(pts[::-1])
    u = Direction.of(rng.standard_normal(2) + 1e-3)
    assert support_zonoid(mu, u) == pytest.approx(support_zonoid(nu, u),
                                                  rel=1e-12)


def _sorted_tail(points, weights, u, alpha):
    """Trimmed support and boundary point by a full sort and running sums.

    Tied projections are grouped; the groups above the marginal one enter
    whole, the marginal group with the residual mass alpha - W_above.
    """
    v = points @ u
    order = np.argsort(-v, kind="stable")
    vs, ws, xs = v[order], weights[order], points[order]
    starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
    mass = np.add.reduceat(ws, starts)
    group_xw = np.add.reduceat(ws[:, None] * xs, starts, axis=0)
    cum_mass = np.cumsum(mass)
    cum_vw = np.cumsum(vs[starts] * mass)
    cum_xw = np.cumsum(group_xw, axis=0)
    g = min(int(np.searchsorted(cum_mass, alpha - 1e-12)), starts.size - 1)
    w_above = cum_mass[g - 1] if g else 0.0
    vw_above = cum_vw[g - 1] if g else 0.0
    xw_above = cum_xw[g - 1] if g else np.zeros(points.shape[1])
    residual = min(max(alpha - w_above, 0.0), mass[g])
    support = (vw_above + residual * vs[starts[g]]) / alpha
    point = (xw_above + (residual / mass[g]) * group_xw[g]) / alpha
    return support, point


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=2, max_value=3),
    n=st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=200, max_value=3000)),
    kind=st.sampled_from(["uniform", "weighted-tied"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    log_alpha=st.floats(min_value=-4.0, max_value=0.0),
)
@settings(max_examples=200, deadline=None)
def test_trimmed_tail_matches_the_sorted_running_sums(seed, d, n, kind, scale, log_alpha):
    # contour-shaped clouds: Gaussian with uniform weights, or rounded to
    # one decimal (tied projections) with weights in [0.5, 2]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    if kind == "uniform":
        w = np.ones(n)
    else:
        pts = np.round(pts, 1)
        w = rng.uniform(0.5, 2.0, n)
    pts = pts * scale
    mu = EmpiricalMeasure(pts, w / w.sum())
    u = Direction.of(rng.standard_normal(d))
    alpha = float(10.0**log_alpha)
    query = TrimmedRegionQuery(alpha, u)
    support, point = _sorted_tail(mu.points, mu.weights, u.vec, alpha)
    tol = 1e-13 * (1.0 + float(np.abs(pts).max()))
    assert abs(support_trimmed(mu, query) - support) <= tol
    assert np.abs(trimmed_boundary_point(mu, query) - point).max() <= tol
