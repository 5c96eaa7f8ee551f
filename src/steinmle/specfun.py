"""Scalar special functions tuned for the bound calculators.

The polygamma evaluator is the accuracy-critical piece of this package: the
Beta-model constants downstream subtract nearly-equal polygamma combinations,
so ``polygamma`` targets <=1e-12 relative error on [1e-3, 1e6].  It shifts
the argument upward by the recurrence

    psi_m(x) = psi_m(x+1) - (-1)^m m! / x^(m+1)

until x >= 16 and then evaluates the de Moivre (Bernoulli-number) asymptotic
expansion, whose coefficients are tabulated once at import.  One shift pass
serves several orders: the Beta constants take psi_1 and psi_3 at the same
argument from one pass.

The normal quantile and Gaussian expectations live here too.  The quantile
is the standard library's ``statistics.NormalDist``.  A Gaussian expectation
comes from the closed form that the test function carries: the harness
default h(x) = 1/(x^2 + 2) carries ``inv_quadratic_expectation``, and an h
that carries none is refused.

All functions are pure and reentrant; there is no shared state.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

from ._validate import integer, real
from .errors import DomainError, float_range

__all__ = [
    "polygamma",
    "std_normal_quantile",
    "normal_expectation",
    "inv_quadratic_expectation",
]

# Bernoulli numbers B_2, B_4, ..., B_20.  Ten terms behind the x >= 16
# shift leave the truncation error near 1e-24, far below double rounding.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)
_ASYMPTOTIC_CUT = 16.0


def _asymptotic_coeffs(m):
    # B_2k (2k+m-1)!/(2k)!, k = 10 down to 1 (innermost Horner term first);
    # for m = 0 that is B_2k/(2k).
    if m == 0:
        return tuple(_BERNOULLI[k - 1] / (2.0 * k) for k in range(len(_BERNOULLI), 0, -1))
    coeffs = []
    for k in range(len(_BERNOULLI), 0, -1):
        rising = 1.0
        for j in range(1, m):
            rising *= 2 * k + j
        coeffs.append(_BERNOULLI[k - 1] * rising)
    return tuple(coeffs)


_ASYMPTOTIC_COEFFS = tuple(_asymptotic_coeffs(m) for m in range(4))
# psi_m(x) = psi_m(x+1) + _SHIFT_NUMERATORS[m] / x^(m+1), with the numerator
# (-1)^(m+1) m!.
_SHIFT_NUMERATORS = (-1.0, 1.0, -2.0, 6.0)


def _polygammas(x, orders):
    """psi_m(x) for each m in ``orders``, all from one upward shift of x > 0.

    The shift to x + j >= 16 is shared; each order sums its own increments
    (fsum, exactly rounded, because the Beta constants downstream are
    cancellation-sensitive) and finishes with its own asymptotic series.
    """
    steps = []
    y = x
    while y < _ASYMPTOTIC_CUT:
        steps.append(y)
        y += 1.0
    z = 1.0 / (y * y)
    values = []
    for m in orders:
        num, power = _SHIFT_NUMERATORS[m], m + 1
        shift = math.fsum([num / t**power for t in steps])
        s = 0.0
        for c in _ASYMPTOTIC_COEFFS[m]:
            s = s * z + c
        s *= z  # sum over k >= 1 of B_2k (2k+m-1)!/(2k)! y^(-2k)
        if m == 0:
            # psi(y) ~ ln y - 1/(2y) - sum_k B_2k / (2k y^2k)
            values.append(math.log(y) - 0.5 / y - s + shift)
            continue
        # psi_m(y) ~ (-1)^(m-1) [ (m-1)!/y^m + m!/(2 y^(m+1))
        #                         + sum_k B_2k (2k+m-1)!/(2k)! / y^(2k+m) ]
        fac_m1 = math.factorial(m - 1)
        ym = y**m
        value = fac_m1 / ym + fac_m1 * m / (2.0 * ym * y) + s / ym
        values.append((value if m % 2 else -value) + shift)
    return values


@float_range
def polygamma(order, x):
    """psi(x) for order 0, psi_m(x) for order m in {1, 2, 3}.

    Relative error <= 1e-12 on [1e-3, 1e6].  Arguments below the asymptotic
    cut are shifted upward by the recurrence; the shift increments are
    accumulated with exact (fsum) rounding because the Beta constants
    downstream are cancellation-sensitive.  An x so small that a shift
    increment overflows raises FloatRangeError, at every order.
    """
    order = integer(order, "polygamma order", ge=0)
    if order > 3:
        raise DomainError(f"polygamma order must be an integer in [0, 3], got {order!r}")
    value = _polygammas(real(x, "polygamma argument", gt=0.0), (order,))[0]
    if math.isinf(value):
        raise OverflowError  # float_range reports it as FloatRangeError
    return value


def std_normal_quantile(p):
    """The standard normal quantile: the inverse distribution function on (0, 1).

    ``statistics.NormalDist().inv_cdf`` (Wichura's AS241 rational
    approximations): within ~1e-15 relative of a 50-digit root for p in
    [1e-300, 1/2], and 1 - p is exact above 1/2.
    """
    p = real(p, "quantile argument")
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    from statistics import NormalDist  # here, so that the bound verbs never load it

    return NormalDist().inv_cdf(p)


# sqrt(pi)/2 to 60 digits, more than any precision used below.
_HALF_SQRT_PI = Decimal("0.886226925452758013649083741670572591398774728061193564106903895")
_LOG10_E = math.log10(math.e)
# Significant digits the exact expectation carries into its one rounding to
# float: a value within 1e-25 relative of a rounding midpoint is the only
# way to round it wrongly.
_EXACT_DIGITS = 28
# Below this x = 1/scale the Taylor series is used, above it the continued
# fraction: 80 levels of the fraction are exact to < 3e-29 for x >= 3 (the
# series there needs ~x^2 log10(e) more digits and ~2x^2 more terms, so the
# cut caps the cost of both sides).
_SERIES_CUT = 3.0
_CF_DEPTH = 80
# The fraction's numerators k/2, k = _CF_DEPTH down to 1: exact as floats,
# so exact as Decimals whatever the decimal context.
_CF_HALVES = tuple(Decimal(k / 2) for k in range(_CF_DEPTH, 0, -1))


def inv_quadratic_expectation(scale):
    """E[1/((scale Z)^2 + 2)] for Z ~ N(0,1), correctly rounded for scale > 0.

    With x = 1/scale the value is x (sqrt(pi)/2) exp(x^2) erfc(x).  For
    x <= 3 it is x [(sqrt(pi)/2) exp(x^2) - sum_k 2^k x^(2k+1)/(2k+1)!!]
    (the series of exp(x^2) erf(x)); the difference cancels about
    x^2 log10(e) digits, which the working precision adds back.  Above 3 it
    is x/2 over Laplace's continued fraction x + (1/2)/(x + 1/(x + (3/2)/(x
    + ...))).  Both run in stdlib ``decimal`` and round to float once.
    """
    scale = real(scale, "scale", gt=0.0)
    xf = 1.0 / scale
    if xf <= _SERIES_CUT:
        prec = _EXACT_DIGITS + int(_LOG10_E * xf * xf)
        # Series terms 2^k x^(2k+1)/(2k+1)!!, relative to x: stop below 10^-prec.
        ratio, term, last = 2.0 * xf * xf, 1.0, 0
        while term >= 10.0**-prec:
            last += 1
            term *= ratio / (2 * last + 1)
        with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
            x = 1 / Decimal(scale)
            x2 = x * x
            two_x2 = 2 * x2
            series = Decimal(1)
            for odd in range(2 * last + 1, 1, -2):  # Horner, innermost term first
                series = series * two_x2 / odd + 1
            return float(x * (_HALF_SQRT_PI * x2.exp() - x * series))
    with localcontext(Context(prec=_EXACT_DIGITS, rounding=ROUND_HALF_EVEN)):
        x = 1 / Decimal(scale)
        fraction = x
        for half_k in _CF_HALVES:
            fraction = x + half_k / fraction
        return float(x / (2 * fraction))


def normal_expectation(h, scale=1.0):
    """E[h(scale * Z)] for Z ~ N(0,1), from the closed form that h carries.

    `h` is a TestFunction (or any object with its ``evaluator`` and
    ``gaussian_expectation`` attributes) whose ``gaussian_expectation``, a
    callable of the scale, gives the exact value; an h without one, a bare
    callable included, is a DomainError.  `scale` >= 0 selects the target
    N(0, scale^2); scale 0 is point mass at 0 and returns h(0) exactly.
    """
    exact = getattr(h, "gaussian_expectation", None)
    if exact is None:
        raise DomainError("h must carry its exact E h(scale Z) as gaussian_expectation")
    scale = real(scale, "scale", ge=0.0)
    if scale == 0.0:
        return h.evaluator(0.0)
    return exact(scale)
