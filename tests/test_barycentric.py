"""Half-space barycentric representation and the three coordinate forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftzonoid import (
    BarycentricCoords,
    CoordKind,
    Direction,
    DomainError,
    EmpiricalMeasure,
    GaussianMeasure,
    HalfSpace,
    MeanPoint,
    NoSolution,
    OutsideSupport,
    TrimmedRegionQuery,
    convert_coords,
    coords_from_point,
    g_inverse,
    gaussian_depth,
    normal_cdf,
    point_from_coords,
    represent,
    support_trimmed,
    trimmed_boundary_point,
    ZeroMass,
)

G_INV_HALF = 0.5179127159921794137   # G(u) = 1/2 at this u
TAIL_MEAN_13 = 1.770327832359651066  # E[Z | Z >= 1.3]


class TestCoordsValidation:
    def test_depth_scalar_range(self):
        with pytest.raises(DomainError):
            BarycentricCoords(CoordKind.DEPTH, 0.0, Direction([1.0]))
        with pytest.raises(DomainError):
            BarycentricCoords(CoordKind.DEPTH, 1.2, Direction([1.0]))
        BarycentricCoords(CoordKind.DEPTH, 1.0, Direction([1.0]))  # allowed

    def test_support_scalar_finite(self):
        with pytest.raises(DomainError):
            BarycentricCoords(CoordKind.SUPPORT, np.inf, Direction([1.0]))

    def test_offset_allows_neg_inf(self):
        c = BarycentricCoords(CoordKind.OFFSET, float("-inf"), Direction([1.0]))
        assert c.to_json_dict()["scalar"] == "-inf"
        with pytest.raises(DomainError):
            BarycentricCoords(CoordKind.OFFSET, float("inf"), Direction([1.0]))


class TestEmpiricalRepresent:
    def test_two_atom_caveat(self, two_atom):
        # the LP answers depth 2/3 with offset -1; the closed half-line
        # {v >= -1} carries both atoms, so its true barycenter is the mean
        # and the residual is honest about the gap
        res = represent(two_atom, [0.5])
        assert res.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.halfspace.offset == pytest.approx(-1.0, abs=1e-12)
        assert res.residual == pytest.approx(0.5, abs=1e-12)
        assert not res.unique
        assert res.method == "lp-dual"

    def test_mean_whole_space(self, square):
        res = represent(square, [0.0, 0.0])
        assert res.halfspace.is_whole_space
        assert res.alpha == 1.0
        assert res.unique

    def test_outside_raises(self, square):
        with pytest.raises(OutsideSupport):
            represent(square, [5.0, 0.0])

    def test_residual_small_on_smooth_cloud(self, cloud):
        # with many atoms in generic position the fractional tie is thin and
        # the full-atom barycenter lands near the query
        mu = cloud(5, n=250, d=2, weighted=False)
        x = 0.25 * mu.points[3]
        res = represent(mu, x)
        assert res.residual < 0.2
        b = mu.halfspace_barycenter(res.halfspace)
        np.testing.assert_allclose(b, x, atol=res.residual + 1e-12)


class TestGaussianRepresentDispatch:
    def test_routes_to_closed_form(self, std2):
        res = represent(std2, [0.4, 0.3])
        assert res.method == "closed-form"
        assert res.unique
        b = std2.halfspace_barycenter(res.halfspace)
        np.testing.assert_allclose(b, [0.4, 0.3], atol=1e-9)


class TestCoordsFromPoint:
    def test_gaussian_three_forms(self, std2):
        x = [0.5, 0.0]
        off = coords_from_point(std2, x, CoordKind.OFFSET)
        sup = coords_from_point(std2, x, CoordKind.SUPPORT)
        dep = coords_from_point(std2, x, CoordKind.DEPTH)
        np.testing.assert_allclose(off.direction.vec, [1.0, 0.0], atol=1e-12)
        # offset a solves tailmean(a) = |x|: a = -G^{-1}(1/2)
        assert off.scalar == pytest.approx(-G_INV_HALF, abs=1e-9)
        assert sup.scalar == pytest.approx(0.5, abs=1e-12)
        assert dep.scalar == pytest.approx(gaussian_depth(std2, x), abs=1e-12)

    def test_mean_point_raises(self, std2, square):
        with pytest.raises(MeanPoint):
            coords_from_point(std2, [0.0, 0.0], CoordKind.DEPTH)
        with pytest.raises(MeanPoint):
            coords_from_point(square, [0.0, 0.0], CoordKind.OFFSET)

    def test_gaussian_mean_is_the_whitened_mean(self):
        # factor 1e-11 I: x is 5e-11 from the mean but 5 in whitened units,
        # a point of depth 7.7e-7 that represent answers
        tiny = GaussianMeasure(np.zeros(2), 1e-11 * np.eye(2))
        x = [5e-11, 0.0]
        c = coords_from_point(tiny, x, CoordKind.DEPTH)
        assert c.scalar == represent(tiny, x).alpha == gaussian_depth(tiny, x)
        assert c.scalar == pytest.approx(7.66e-7, rel=1e-3)
        np.testing.assert_allclose(c.direction.vec, [1.0, 0.0], atol=1e-12)
        # factor 1e3 I: x is 5e-8 from the mean but 5e-11 in whitened units
        wide = GaussianMeasure(np.zeros(2), 1e3 * np.eye(2))
        assert represent(wide, [5e-8, 0.0]).halfspace.is_whole_space
        with pytest.raises(MeanPoint):
            coords_from_point(wide, [5e-8, 0.0], CoordKind.OFFSET)

    def test_empirical_support_form(self, two_atom):
        c = coords_from_point(two_atom, [0.5], CoordKind.SUPPORT)
        assert c.scalar == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(c.direction.vec, [1.0], atol=1e-12)


class TestPointFromCoords:
    def test_depth_form_gaussian(self, std2):
        from liftzonoid import radius

        c = BarycentricCoords(CoordKind.DEPTH, 0.3, Direction([0.0, 1.0]))
        pt = point_from_coords(std2, c)
        np.testing.assert_allclose(pt, [0.0, radius(0.3)], atol=1e-12)

    def test_depth_one_is_mean(self, std2, cloud):
        c = BarycentricCoords(CoordKind.DEPTH, 1.0, Direction([1.0, 0.0]))
        np.testing.assert_allclose(point_from_coords(std2, c), [0.0, 0.0],
                                   atol=1e-15)
        mu = cloud(9, n=11)
        np.testing.assert_allclose(point_from_coords(mu, c), mu.mean(),
                                   atol=1e-12)

    def test_offset_form_is_halfspace_barycenter(self, std1):
        c = BarycentricCoords(CoordKind.OFFSET, 1.3, Direction([1.0]))
        pt = point_from_coords(std1, c)
        assert pt[0] == pytest.approx(TAIL_MEAN_13, rel=1e-12)

    def test_support_form_gaussian(self, std2):
        # h = 0.5 along e1 identifies the same point as the offset route
        c = BarycentricCoords(CoordKind.SUPPORT, 0.5, Direction([1.0, 0.0]))
        pt = point_from_coords(std2, c)
        np.testing.assert_allclose(pt, [0.5, 0.0], atol=1e-9)

    def test_support_form_out_of_range(self, std2, two_atom):
        # support value below the mean projection belongs to no trimmed region
        c = BarycentricCoords(CoordKind.SUPPORT, -0.2, Direction([1.0, 0.0]))
        with pytest.raises(NoSolution):
            point_from_coords(std2, c)
        c1 = BarycentricCoords(CoordKind.SUPPORT, 1.5, Direction([1.0]))
        with pytest.raises(NoSolution):
            point_from_coords(two_atom, c1)


class TestRoundTrips:
    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_gaussian_point_coords_point(self, kind):
        mu = GaussianMeasure.from_covariance([1.0, -1.0],
                                             [[2.0, 0.4], [0.4, 1.0]])
        rng = np.random.default_rng(77)
        for _ in range(10):
            x = mu.location + rng.standard_normal(2)
            if np.linalg.norm(mu.whiten(x)) < 0.05:
                continue
            c = coords_from_point(mu, x, kind)
            back = point_from_coords(mu, c)
            np.testing.assert_allclose(back, x, rtol=1e-7, atol=1e-9)

    def test_convert_cycle_gaussian(self, std2):
        x = [0.8, -0.4]
        c0 = coords_from_point(std2, x, CoordKind.OFFSET)
        c1 = convert_coords(std2, c0, CoordKind.SUPPORT)
        c2 = convert_coords(std2, c1, CoordKind.DEPTH)
        c3 = convert_coords(std2, c2, CoordKind.OFFSET)
        assert c3.scalar == pytest.approx(c0.scalar, abs=1e-9)
        np.testing.assert_allclose(c3.direction.vec, c0.direction.vec,
                                   atol=1e-12)
        # every form pins the same spatial point
        np.testing.assert_allclose(point_from_coords(std2, c1), x, atol=1e-9)
        np.testing.assert_allclose(point_from_coords(std2, c2), x, atol=1e-9)

    def test_convert_two_atom_links(self, two_atom):
        # depth 2/3 along +1 corresponds to offset -1 (the upper quantile);
        # the reverse direction saturates at mass 1, exposing the atom jump
        dep = BarycentricCoords(CoordKind.DEPTH, 2.0 / 3.0, Direction([1.0]))
        off = convert_coords(two_atom, dep, CoordKind.OFFSET)
        assert off.scalar == pytest.approx(-1.0, abs=1e-12)
        back = convert_coords(two_atom, off, CoordKind.DEPTH)
        assert back.scalar == pytest.approx(1.0, abs=1e-12)

    def test_convert_from_offset_above_every_atom(self, two_atom):
        # {x >= 2} holds neither atom of {-1, +1}: no mass, no depth
        off = BarycentricCoords(CoordKind.OFFSET, 2.0, Direction([1.0]))
        with pytest.raises(ZeroMass):
            convert_coords(two_atom, off, CoordKind.DEPTH)

    def test_identity_conversion(self, std2):
        c = coords_from_point(std2, [0.3, 0.3], CoordKind.DEPTH)
        same = convert_coords(std2, c, CoordKind.DEPTH)
        assert same.scalar == c.scalar


class TestFormConsistency:
    def test_three_scalars_describe_one_point(self, std2):
        # support scalar = <x, u>; offset has mass alpha; depth = alpha
        x = np.array([0.9, 0.2])
        off = coords_from_point(std2, x, CoordKind.OFFSET)
        sup = coords_from_point(std2, x, CoordKind.SUPPORT)
        dep = coords_from_point(std2, x, CoordKind.DEPTH)
        u = off.direction.vec
        assert sup.scalar == pytest.approx(float(x @ u), abs=1e-12)
        mass = std2.halfspace_mass(HalfSpace(off.direction, off.scalar))
        assert mass == pytest.approx(dep.scalar, abs=1e-10)

    def test_offset_scalar_chain(self, std2):
        # for the standard Gaussian: a = -G^{-1}(|x|) and alpha = cdf(-a)
        x = np.array([0.0, 0.65])
        off = coords_from_point(std2, x, CoordKind.OFFSET)
        dep = coords_from_point(std2, x, CoordKind.DEPTH)
        assert off.scalar == pytest.approx(-g_inverse(0.65), abs=1e-9)
        assert dep.scalar == pytest.approx(normal_cdf(-off.scalar), abs=1e-9)


@st.composite
def _tied_clouds(draw):
    """A weighted integer cloud whose projections tie, and a direction."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=40))
    pts = rng.integers(-3, 4, size=(n, d)).astype(float) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    w = rng.integers(1, 5, size=n).astype(float)
    axis = rng.integers(-1, 2, size=d).astype(float)  # lattice directions tie most
    u = Direction.of(axis if axis.any() and draw(st.booleans()) else rng.standard_normal(d))
    return EmpiricalMeasure(pts, w / w.sum()), u


@given(_tied_clouds(), st.floats(min_value=1e-9, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_exact_support_inversion_on_tied_weighted_clouds(instance, alpha):
    mu, u = instance
    proj = mu.points @ u.vec
    scale = float(np.abs(proj).max()) or 1.0  # no absolute term; 1 when every projection is 0
    h = support_trimmed(mu, TrimmedRegionQuery(alpha, u))
    back = mu.project(u.vec).tail_mean_level(h)
    assert 0.0 < back <= 1.0
    assert support_trimmed(mu, TrimmedRegionQuery(back, u)) == pytest.approx(h, abs=1e-12 * scale)
    assert mu.project(u.vec).tail_mean_level(float(proj.max())) == 1e-12
    with pytest.raises(NoSolution):
        mu.project(u.vec).tail_mean_level(float(proj.max()) + 1e-6 * scale)
    with pytest.raises(NoSolution):
        mu.project(u.vec).tail_mean_level(float(mu.weights @ proj) - 1e-6 * scale)


@pytest.mark.parametrize("shift,size", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-14), (1e6, 1e-14)])
def test_support_level_windows_move_with_the_cloud(shift, size):
    # the out-of-range windows scale with the projected spread, not with
    # 1 + max|<x, u>|: a level 1e-4 spreads past either end has no depth
    # however far the cloud is shifted or however small it is
    rng = np.random.default_rng(50)
    mu = EmpiricalMeasure.uniform((rng.standard_normal((50, 2)) + shift) * size)
    u = Direction([1.0, 0.0])
    proj = mu.project(u.vec)
    top, low = float(proj.values.max()), float(proj.values.min())
    spread = top - low
    with pytest.raises(NoSolution):
        proj.tail_mean_level(top + 1e-4 * spread)
    with pytest.raises(NoSolution):
        proj.tail_mean_level(float(mu.weights @ proj.values) - 1e-4 * spread)
    assert proj.tail_mean_level(top) == 1e-12
    for alpha in (1e-9, 0.02, 0.5, 1.0):
        h = support_trimmed(mu, TrimmedRegionQuery(alpha, u))
        back = proj.tail_mean_level(h)
        assert 0.0 < back <= 1.0
        assert support_trimmed(mu, TrimmedRegionQuery(back, u)) == pytest.approx(h, abs=1e-9 * spread)


def test_support_one_ulp_below_the_top_ends_the_flat_segment():
    # h(alpha) = 0.7 on (0, 0.4]; just below it alpha leaves that segment.
    # The running average 0.7 * 0.4 / 0.4 rounds below 0.7, so the search
    # lands on the top atom itself.
    mu = EmpiricalMeasure(np.array([[0.7], [-1.0]]), np.array([0.4, 0.6]))
    u = Direction([1.0])
    assert 0.7 * 0.4 / 0.4 < 0.7
    assert mu.project(u.vec).tail_mean_level(float(np.nextafter(0.7, -np.inf))) == 0.4


def test_support_one_ulp_below_a_tied_top_takes_the_whole_tie():
    # atoms [0.6, 0.3, 0.6]: the running average over the two top atoms
    # rounds below 0.6, but a level just below the top ends the flat
    # segment at the mass of both of them, not part-way through the tie
    rng = np.random.default_rng(83)
    pts = rng.integers(0, 4, size=(3, 1)) * 0.3
    w = rng.uniform(0.5, 2.0, 3)
    mu = EmpiricalMeasure(pts, w / w.sum())
    u = Direction([1.0])
    coords = BarycentricCoords(CoordKind.SUPPORT, 0.5999999999999999, u)
    alpha = convert_coords(mu, coords, CoordKind.DEPTH).scalar
    assert alpha == pytest.approx(0.718857683819564, abs=1e-12)
    assert alpha == pytest.approx(float(mu.weights[[0, 2]].sum()), abs=1e-15)


@pytest.mark.parametrize("top_mass", [0.3, 0.7])
def test_support_excess_underflow_returns_the_top_mass(top_mass):
    # a level one step below a top at 0: the excess E(V - h)_+ underflows
    # to 0 (mass 0.3) or to the smallest subnormal (mass 0.7), too small
    # to normalise the deficits of the 1000 atoms below by
    rng = np.random.default_rng(5)
    n = 1000
    pts = np.concatenate([[0.0], -rng.uniform(0.5, 2.0, n)])[:, None]
    w = np.concatenate([[top_mass], np.full(n, (1.0 - top_mass) / n)])
    mu = EmpiricalMeasure(pts, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = mu.project([1.0]).tail_mean_level(-5e-324)
    assert alpha == pytest.approx(top_mass, abs=1e-15)


def _grouped_alpha(values, weights, h):
    """Depth of support level h by a full sort with tied values grouped.

    On the segment where group k is marginal, alpha = W_{<k} + E_{<k} /
    (h - v_k), with W_{<k} the mass and E_{<k} the excess sum W_g (v_g - h)
    of the groups above it; group k is the first below h at which the
    running excess stops being positive.
    """
    levels, inverse = np.unique(-values, return_inverse=True)
    v = -levels
    mass = np.bincount(inverse, weights=weights)
    cum_w = np.cumsum(mass)
    excess = np.cumsum(mass * (v - h))
    ends = np.flatnonzero((v < h) & (excess <= 0.0))
    k = int(ends[0]) if ends.size else v.size - 1
    alpha = cum_w[k - 1] + excess[k - 1] / (h - v[k])
    return min(max(float(alpha), float(cum_w[k - 1])), float(cum_w[k]))


@st.composite
def _tied_grids(draw):
    """A weighted cloud on a coarse grid of spacing 0.3 * scale, a direction and a level."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=200, max_value=2000)))
    levels = draw(st.integers(min_value=1, max_value=12))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    pts = rng.integers(0, levels, size=(n, d)) * (0.3 * scale)
    if draw(st.booleans()):
        w = rng.integers(1, 5, size=n).astype(float)
    else:
        w = rng.uniform(0.5, 2.0, n)
    axis = rng.integers(-1, 2, size=d).astype(float)
    u = Direction.of(axis if axis.any() and draw(st.booleans()) else rng.standard_normal(d))
    mu = EmpiricalMeasure(pts, w / w.sum())
    proj = pts @ u.vec
    kind = draw(st.sampled_from(["ulp", "atom", "support"]))
    if kind == "ulp":
        h = float(np.nextafter(proj.max(), -np.inf))
    elif kind == "atom":  # one at or above the mean, where the level has a depth
        upper = proj[proj >= float(mu.weights @ proj)]
        h = float(upper[draw(st.integers(min_value=0, max_value=upper.size - 1))])
    else:
        h = support_trimmed(mu, TrimmedRegionQuery(draw(st.floats(min_value=1e-9, max_value=1.0)), u))
    return mu, u, h


@given(_tied_grids())
@settings(max_examples=300, deadline=None)
def test_support_inversion_matches_the_grouped_sort_on_tied_grids(instance):
    mu, u, h = instance
    proj = mu.points @ u.vec
    top = float(proj.max())
    # the mean window: 1e-13 of the spread plus a few ulps of the projections
    scale, rounding = float(np.ptp(proj)), 4 * math.ulp(float(np.abs(proj).max()))
    if h >= top:
        expected = 1e-12
    elif h <= float(mu.weights @ proj) + 1e-13 * scale + rounding:
        expected = 1.0
    else:
        expected = _grouped_alpha(proj, mu.weights, h)
    assert mu.project(u.vec).tail_mean_level(h) == pytest.approx(expected, abs=1e-12)


@st.composite
def _split_levels(draw):
    """A uniform, weighted or tied-integer cloud, a direction and a support level.

    The levels: the top projection, one ulp below it, an atom above the
    mean, the mean, a level above the top or below the mean (NoSolution),
    and levels whose depth lies within 1e-12 of the mass above an atom,
    where the inversion's marginal atom and the upper quantile may differ.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "weighted", "tied"]))
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=200, max_value=1500)))
    if kind == "tied":
        pts = rng.integers(-3, 4, size=(n, d)).astype(float) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        w = rng.integers(1, 5, size=n).astype(float)
    else:
        pts = rng.standard_normal((n, d))
        w = np.ones(n) if kind == "uniform" else rng.uniform(0.05, 1.0, n)
    axis = rng.integers(-1, 2, size=d).astype(float)
    u = Direction.of(axis if axis.any() and draw(st.booleans()) else rng.standard_normal(d))
    mu = EmpiricalMeasure(pts, w / w.sum())
    proj = pts @ u.vec
    top, mean = float(proj.max()), float(mu.weights @ proj)
    scale = 1.0 + float(np.abs(proj).max())
    where = draw(st.sampled_from(["top", "ulp", "atom", "mean", "outside", "kink"]))
    if where == "top":
        h = top
    elif where == "ulp":
        h = float(np.nextafter(top, -np.inf))
    elif where == "atom":
        upper = proj[proj >= mean]
        h = float(upper[draw(st.integers(min_value=0, max_value=upper.size - 1))])
    elif where == "mean":
        h = mean
    elif where == "outside":
        h = draw(st.sampled_from([top + 1e-6 * scale, mean - 1e-6 * scale]))
    else:  # alpha at the mass strictly above an atom, give or take the slack
        above = np.array([mu.weights[proj > v].sum() for v in np.unique(proj)])
        mass = float(above[draw(st.integers(min_value=0, max_value=above.size - 1))])
        alpha = mass + draw(st.sampled_from([0.0, 1e-13, 9e-13, 1.5e-12, -1e-13]))
        h = support_trimmed(mu, TrimmedRegionQuery(alpha if 0.0 < alpha <= 1.0 else 1.0, u))
    return mu, u, h


@given(_split_levels())
@settings(max_examples=400, deadline=None)
def test_support_split_gives_the_upper_quantile_and_the_boundary_point(instance):
    mu, u, h = instance
    coords = BarycentricCoords(CoordKind.SUPPORT, h, u)
    try:
        alpha = convert_coords(mu, coords, CoordKind.DEPTH).scalar
    except NoSolution:
        for convert in (
            lambda: convert_coords(mu, coords, CoordKind.OFFSET),
            lambda: point_from_coords(mu, coords),
            lambda: mu.project(u.vec).tail_mean_level(h),
        ):
            with pytest.raises(NoSolution):
                convert()
        return
    offset = convert_coords(mu, coords, CoordKind.OFFSET).scalar
    assert offset == mu.upper_quantile(u, alpha)  # bit for bit
    point = point_from_coords(mu, coords)
    if alpha >= 1.0:
        np.testing.assert_array_equal(point, mu.mean())
    else:
        expected = trimmed_boundary_point(mu, TrimmedRegionQuery(alpha, u))
        scale = 1.0 + float(np.abs(mu.points).max())
        np.testing.assert_allclose(point, expected, rtol=0.0, atol=4.4e-16 * scale)


@pytest.mark.parametrize("offset_sd", [0.0, 0.3, 1.0, 2.5, 6.0])
def test_gaussian_support_split_gives_the_upper_quantile_and_the_boundary_point(offset_sd):
    g = GaussianMeasure.from_covariance([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])
    u = Direction.of([0.8, -0.3])
    law = g.project(u.vec)
    h = law.mean + offset_sd * law.std
    coords = BarycentricCoords(CoordKind.SUPPORT, h, u)
    alpha = convert_coords(g, coords, CoordKind.DEPTH).scalar
    assert convert_coords(g, coords, CoordKind.OFFSET).scalar == g.upper_quantile(u, alpha)
    point = point_from_coords(g, coords)
    if alpha >= 1.0:
        np.testing.assert_array_equal(point, g.mean())
    else:
        np.testing.assert_array_equal(point, trimmed_boundary_point(g, TrimmedRegionQuery(alpha, u)))
    with pytest.raises(NoSolution):
        point_from_coords(g, BarycentricCoords(CoordKind.SUPPORT, law.mean - 1e-6, u))
    with pytest.raises(NoSolution):
        convert_coords(g, BarycentricCoords(CoordKind.SUPPORT, law.mean - 1e-6, u), CoordKind.OFFSET)
