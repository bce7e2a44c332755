"""Scalar standard-normal machinery.

Density, distribution function, quantile, the isoperimetric function
I(a) = pdf(quantile(a)), the trimmed-ball radius r(a) = I(a)/a, and the
density-to-distribution ratio G(u) = pdf(u)/cdf(u) with its inverse.
Everything here is plain-float and measure-free; measure-level Gaussian
operations live in :mod:`liftzonoid.gaussian`.

The quantile is Wichura's algorithm AS241, taken from the standard
library's ``statistics.NormalDist``, which is imported on first use.

In the left tail G needs the scaled complementary error function
erfcx(x) = exp(x^2) erfc(x). Like W. J. Cody ("Rational Chebyshev
approximations for the error function", Math. Comp. 1969) and S. G.
Johnson's Faddeeva package, it is computed by regime, here with ``math``
alone:

- below x = 25, exp(x^2) erfc(x), with x^2 split exactly into hi + lo
  (Dekker's product) so that ``exp`` sees no rounding error;
- from x = 25 on, where erfc nears underflow, Laplace's continued
  fraction, evaluated backward with a fixed number of terms.
"""

from __future__ import annotations

import math

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# erfcx regimes: exp(x^2) erfc(x) below the switch, where erfc(25) ~ 8e-274
# is still a normal float; the continued fraction above it, where 12 terms
# leave a truncation error below 1e-30 at the switch and less beyond
_ERFCX_SWITCH = 25.0
_ERFCX_TERMS = 12
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_G_INVERSE_MAX_ITERATIONS = 120  # safeguarded Newton steps in g_inverse
_G_INVERSE_STEP = 1e-15  # g_inverse stops at a step this small relative to 1 + |u|: a few ulps
# from here on g_inverse returns -y + 1/y, which inverts G(u) = -u - 1/u +
# 2/u^3 - ... to a relative y^-4, below rounding; a Newton step's
# G' = -uG - G^2 cancels to 0 there from about y = 7e7
_G_INVERSE_ASYMPTOTIC = 1e5


def normal_pdf(u: float) -> float:
    """Standard normal density at ``u``."""
    u = float(u)
    if math.isnan(u):
        raise DomainError("normal_pdf: argument is NaN")
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def normal_cdf(u: float) -> float:
    """Standard normal distribution function, Phi(u)."""
    u = float(u)
    if math.isnan(u):
        raise DomainError("normal_cdf: argument is NaN")
    # complementary form avoids cancellation in the left tail
    return 0.5 * math.erfc(-u / _SQRT2)


def normal_sf(u: float) -> float:
    """Upper tail Phi(-u) = P(Z >= u), stable for large positive ``u``."""
    u = float(u)
    if math.isnan(u):
        raise DomainError("normal_sf: argument is NaN")
    return 0.5 * math.erfc(u / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1).

    Wichura's algorithm AS241 (Appl. Statist. 1988) through
    ``NormalDist.inv_cdf``; relative error below 1e-15 for p in
    [1e-300, 0.5].
    """
    p = float(p)
    if math.isnan(p) or p <= 0.0 or p >= 1.0:
        raise DomainError(f"normal_quantile: p={p!r} outside (0, 1)")
    import statistics  # imports fractions and decimal; kept off the start-up path

    return statistics.NormalDist().inv_cdf(p)


def isoperimetric(alpha: float) -> float:
    """Gauss isoperimetric function pdf(quantile(alpha)) on (0, 1].

    The endpoint alpha = 1 returns the limit value 0.
    """
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0 or alpha > 1.0:
        raise DomainError(f"isoperimetric: alpha={alpha!r} outside (0, 1]")
    if alpha == 1.0:
        return 0.0
    return normal_pdf(normal_quantile(alpha))


def radius(alpha: float) -> float:
    """Radius of the standard-Gaussian trimmed ball, isoperimetric(alpha)/alpha.

    Strictly decreasing on (0, 1]: grows like |quantile(alpha)| as
    alpha -> 0 and reaches 0 at alpha = 1, where the trimmed region
    collapses to the mean. Evaluated as G(quantile(alpha)), by the
    identity r(Phi(u)) = G(u), so the division by a tiny alpha and the
    density's underflow never enter.
    """
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0 or alpha > 1.0:
        raise DomainError(f"radius: alpha={alpha!r} outside (0, 1]")
    if alpha == 1.0:
        return 0.0
    return g_ratio(normal_quantile(alpha))


def _laplace_fraction(x: float) -> float:
    """1/(sqrt(pi) erfcx(x)) = x + (1/2)/(x + 1/(x + (3/2)/(x + ...))), x >= 25."""
    t = x
    for k in range(_ERFCX_TERMS, 0, -1):
        t = x + 0.5 * k / t
    return t


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x), 0 <= x < 25."""
    hi = x * x
    c = _DEKKER_SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl  # x^2 = hi + lo exactly
    # exp(lo) = 1 + lo to within lo^2 / 2 < 2e-27
    return math.exp(hi) * (1.0 + lo) * math.erfc(x)


def g_ratio(u: float) -> float:
    """Ratio G(u) = pdf(u)/cdf(u), strictly decreasing from +inf to 0.

    For u <= 0 the ratio is evaluated through the scaled complementary
    error function, so there is no 0/0 underflow deep in the left tail.
    The endpoints return the limits: G(-inf) = +inf and G(+inf) = 0.
    """
    u = float(u)
    if math.isnan(u):
        raise DomainError("g_ratio: argument is NaN")
    if u > 0.0:
        return normal_pdf(u) / normal_cdf(u)
    # pdf(u)/cdf(u) = sqrt(2/pi) / erfcx(x) at x = -u/sqrt(2)
    x = -u / _SQRT2
    if x < _ERFCX_SWITCH:
        return _SQRT_2_OVER_PI / _erfcx(x)
    # there the ratio is sqrt(2) times Laplace's fraction, which neither
    # overflows nor vanishes for finite x and is +inf at x = +inf
    return _SQRT2 * _laplace_fraction(x)


def _g_ratio_derivative(u: float, g: float) -> float:
    # G'(u) = -u G(u) - G(u)^2
    return -u * g - g * g


def g_inverse(y: float) -> float:
    """Inverse of :func:`g_ratio`: the u with pdf(u)/cdf(u) = y, y > 0.

    Safeguarded Newton iteration (derivative G' = -uG - G^2) inside a
    bracket seeded from the asymptotic inverse: G(u) ~ -u for u -> -inf
    and G(u) ~ pdf(u) for u -> +inf. From y = 1e5 on, the left-tail
    asymptote -y + 1/y is exact to rounding and is returned as it is.
    """
    y = float(y)
    if math.isnan(y) or math.isinf(y) or y <= 0.0:
        raise DomainError(f"g_inverse: y={y!r} outside (0, inf)")
    if y >= _G_INVERSE_ASYMPTOTIC:
        return -y + 1.0 / y
    # initial guess by regime
    if y >= 1.0:
        u = -y + 1.0 / y
    elif y < 0.2:
        u = math.sqrt(-2.0 * math.log(y * _SQRT_2PI))
    else:
        u = 0.0
    # establish a bracket [lo, hi] with G(lo) >= y >= G(hi)
    lo, hi = u - 0.5, u + 0.5
    width = 1.0
    while g_ratio(lo) < y:
        hi = lo
        lo -= width
        width *= 2.0
    width = 1.0
    while g_ratio(hi) > y:
        lo = hi
        hi += width
        width *= 2.0
    u = min(max(u, lo), hi)
    for _ in range(_G_INVERSE_MAX_ITERATIONS):
        g = g_ratio(u)
        f = g - y
        if f > 0.0:
            lo = u
        else:
            hi = u
        step = f / _g_ratio_derivative(u, g)
        nxt = u - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= _G_INVERSE_STEP * (1.0 + abs(nxt)):
            return nxt
        u = nxt
    return u
