"""Scalar normal-law helpers against high-precision reference values.

Reference constants were computed once with mpmath at 50 decimal digits
(erf/erfinv based) and frozen here; tolerances follow the documented
accuracy contracts of each function.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftzonoid import (
    DomainError,
    g_inverse,
    g_ratio,
    isoperimetric,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    normal_sf,
    radius,
)

# mpmath dps=50 references
PHI_1 = 0.8413447460685429486
PDF_1 = 0.2419707245191433498
SQRT_2_OVER_PI = 0.7978845608028653559

QUANTILES = {
    0.025: -1.959963984540054236,
    0.1: -1.281551565544600467,
    0.3: -0.524400512708040784,
    0.7: 0.524400512708040784,
    0.975: 1.959963984540054236,
    1e-10: -6.361340902404056205,
}

# G(u) = pdf(u)/cdf(u), the Gaussian half-space barycenter distance
G_TABLE = {
    -20.0: 20.04975306852785054,
    -8.0: 8.121368112236112681,
    -4.0: 4.225607144489471073,
    -3.0: 3.283098654930436507,
    -1.0: 1.525135276160981209,
    -0.5: 1.141077770368064481,
    0.0: SQRT_2_OVER_PI,
    0.5: 0.5091604338370334858,
    1.0: 0.2875999709391783612,
    2.0: 0.0552478626789899591,
    4.0: 0.0001338344644685751421,
    6.0: 6.075882855817676445e-9,
    8.0: 5.052271083536895431e-15,
    30.0: 1.473646134878547519e-196,
}

ISO_TABLE = {
    0.1: 0.1754983319324868066,
    0.25: 0.317776572684106934,
    0.5: 0.3989422804014326779,
    0.642: 0.3733954101603988937,
    0.975: 0.058445069805035361,
    1e-4: 0.0003958479667599348767,
}


def test_pdf_cdf_point_values():
    assert normal_pdf(0.0) == pytest.approx(0.3989422804014326779, abs=1e-16)
    assert normal_pdf(1.0) == pytest.approx(PDF_1, abs=1e-16)
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-15)
    assert normal_sf(1.0) == pytest.approx(1.0 - PHI_1, abs=1e-15)


def test_cdf_sf_are_exact_reflections():
    # both are evaluated through erfc of the reflected argument, so the
    # identity cdf(-u) == sf(u) holds to the last bit
    for u in [-7.5, -2.0, -0.3, 0.0, 0.7, 3.0, 9.0]:
        assert normal_cdf(-u) == normal_sf(u)


@pytest.mark.parametrize("p,q", sorted(QUANTILES.items()))
def test_quantile_reference_values(p, q):
    assert normal_quantile(p) == pytest.approx(q, abs=1e-13, rel=1e-13)


def test_quantile_median_exact():
    assert normal_quantile(0.5) == 0.0


def test_quantile_near_the_median_is_relatively_accurate():
    # the reference is the exact quantile to 20 digits
    assert normal_quantile(0.4999) == pytest.approx(-2.5066283008800749239e-4, rel=1e-15, abs=0)


@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
@settings(max_examples=200)
def test_quantile_cdf_roundtrip(p):
    assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200)
def test_cdf_quantile_roundtrip(u):
    # the roundtrip is exact in probability space; in u-space the error
    # amplifies by 1/pdf(u), so the bound must carry that condition number
    p = normal_cdf(u)
    tol = 1e-14 / normal_pdf(u) + 1e-12
    assert normal_quantile(p) == pytest.approx(u, abs=tol)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_quantile_domain(p):
    with pytest.raises(DomainError):
        normal_quantile(p)


@pytest.mark.parametrize("u,g", sorted(G_TABLE.items()))
def test_g_ratio_reference_values(u, g):
    assert g_ratio(u) == pytest.approx(g, rel=1e-13)


def test_g_ratio_monotone_decreasing():
    grid = np.linspace(-30.0, 30.0, 601)
    vals = np.array([g_ratio(u) for u in grid])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def test_g_inverse_reference_value():
    # G(u) = 1/2 at u = 0.51791271599217941...
    assert g_inverse(0.5) == pytest.approx(0.5179127159921794137, abs=1e-12)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200)
def test_g_inverse_roundtrip(u):
    assert g_inverse(g_ratio(u)) == pytest.approx(u, abs=1e-9)


def test_g_inverse_far_tail():
    # y >> 1 corresponds to u ~ -y
    assert g_inverse(G_TABLE[-20.0]) == pytest.approx(-20.0, abs=1e-9)
    assert g_inverse(G_TABLE[30.0]) == pytest.approx(30.0, abs=1e-6)


def test_g_inverse_domain():
    for y in [0.0, -1.0, float("nan")]:
        with pytest.raises(DomainError):
            g_inverse(y)


@pytest.mark.parametrize("a,val", sorted(ISO_TABLE.items()))
def test_isoperimetric_reference_values(a, val):
    assert isoperimetric(a) == pytest.approx(val, rel=1e-12)


def test_isoperimetric_symmetry():
    for a in [0.1, 0.25, 0.642, 0.9]:
        assert isoperimetric(a) == pytest.approx(isoperimetric(1.0 - a), rel=1e-12)


def test_radius_is_isoperimetric_over_alpha():
    for a, val in ISO_TABLE.items():
        assert radius(a) == pytest.approx(val / a, rel=1e-12)


def test_radius_at_one_half():
    # r(1/2) = 2 * pdf(0) = sqrt(2/pi)
    assert abs(radius(0.5) - SQRT_2_OVER_PI) <= 1e-15
    assert abs(radius(0.5) - np.sqrt(2.0 / np.pi)) <= 1e-15


def test_radius_limits_and_monotonicity():
    grid = np.linspace(1e-4, 1.0, 400)
    vals = np.array([radius(a) for a in grid])
    assert np.all(np.diff(vals) < 0.0)  # shrinks as alpha grows
    assert radius(1.0) == 0.0


def test_radius_chain_identity():
    # r(alpha) = pdf(q)/cdf(q) at q = quantile(alpha), since cdf(q) = alpha
    for a in np.linspace(0.02, 0.98, 49):
        lhs = g_ratio(normal_quantile(a))
        assert abs(lhs - radius(a)) <= 1e-10


@pytest.mark.parametrize("a", [0.0, -0.5, 1.0 + 1e-9, float("inf")])
def test_isoperimetric_domain(a):
    with pytest.raises(DomainError):
        isoperimetric(a)


def _g_reference(u, mpmath):
    """G(u) = pdf(u)/cdf(u) at 120 bits; mpmath floats do not underflow."""
    v = mpmath.mpf(u)
    return float(mpmath.exp(-v * v / 2) / mpmath.sqrt(2 * mpmath.pi)
                 / (mpmath.erfc(-v / mpmath.sqrt(2)) / 2))


def test_g_ratio_against_mpmath():
    import mpmath

    rng = np.random.default_rng(20260)
    switch = -25.0 * np.sqrt(2.0)  # u where the erfcx regimes meet
    u = np.concatenate([
        -rng.uniform(0.0, 40.0, 12_000),
        -np.logspace(-300.0, 1.0, 4_000),
        switch + rng.uniform(-0.5, 0.5, 3_980),
        switch + np.arange(-10, 10) * np.spacing(switch),
    ])
    with mpmath.workprec(120):
        worst = max(abs(g_ratio(float(v)) / _g_reference(v, mpmath) - 1.0) for v in u)
    assert worst <= 1e-15


def test_g_ratio_against_scipy_erfcx():
    from scipy.special import erfcx

    u = -np.random.default_rng(7).uniform(0.0, 40.0, 1_000_000)
    reference = np.sqrt(2.0 / np.pi) / erfcx(-u / np.sqrt(2.0))
    mine = np.array([g_ratio(v) for v in u.tolist()])
    assert np.max(np.abs(mine - reference) / reference) <= 2e-15


def test_g_inverse_inverts_g_ratio_on_wide_range():
    for u in np.linspace(-38.0, 8.0, 2_001).tolist():
        assert abs(g_inverse(g_ratio(u)) - u) <= 1e-12 * (1.0 + abs(u))


def test_g_inverse_answers_for_large_y():
    # a Newton step there divided by G' = -uG - G^2, which cancels to 0
    # from y = 7e7 to 1.3e154; the 120-bit reference holds up to y = 1e10
    import mpmath

    with mpmath.workprec(120):
        worst = max(abs(_g_reference(g_inverse(y), mpmath) / y - 1.0) for y in np.logspace(5, 10, 51).tolist())
    assert worst <= 2.3e-16
    for y in np.logspace(5, 300, 400).tolist():
        assert g_ratio(g_inverse(y)) == pytest.approx(y, rel=4.5e-16)


def test_g_ratio_endpoint_limits():
    assert g_ratio(float("-inf")) == float("inf")
    assert g_ratio(float("inf")) == 0.0
    # G(u) = -u - 1/u + ..., so huge finite arguments stay finite and exact
    assert g_ratio(-1.5e308) == 1.5e308
    with pytest.raises(DomainError):
        g_ratio(float("nan"))
