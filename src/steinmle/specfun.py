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
is exact where the test function carries its closed form (the harness
default h(x) = 1/(x^2 + 2) does, through ``inv_quadratic_expectation``) and
adaptive quadrature otherwise.

All functions are pure and reentrant; there is no shared state.
"""

from __future__ import annotations

import heapq
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

from ._validate import real
from .errors import ConvergenceError, DomainError, float_range

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

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Gaussian mass outside [-12, 12] is below 1e-32: truncating Gaussian
# expectations there is negligible against the 1e-8 quadrature budget.
_QUAD_HALF_WIDTH = 12.0
_QUAD_ABS_TOL = 1e-8
# Adaptive bisection stops at an error estimate of 1e-10 * max(1, |value|)
# or at this many intervals, whichever comes first.
_QUAD_TARGET = 1e-10
_QUAD_MAX_INTERVALS = 300

# The 21-point Gauss-Kronrod rule of QUADPACK's qk21 (Piessens et al., 1983)
# on [-1, 1]: nonnegative Kronrod abscissae, largest first, ending at the
# centre.  Odd positions are the nodes of the 10-point Gauss rule.
_GK21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_GK21_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# Weights of the 10-point Gauss rule at _GK21_NODES[1], [3], ..., [9].
_G10_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


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
    downstream are cancellation-sensitive.
    """
    if order not in (0, 1, 2, 3):
        raise DomainError(f"polygamma order must be an integer in [0, 3], got {order!r}")
    return _polygammas(real(x, "polygamma argument", gt=0.0), (order,))[0]


def _normal_pdf(x):
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


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


def _gauss_kronrod_21(f, a, b):
    """K21 estimate of the integral of f over [a, b], and |K21 - G10|."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    kronrod = _GK21_KRONROD_WEIGHTS[10] * f(centre)
    gauss = 0.0
    for j in range(10):
        dx = half * _GK21_NODES[j]
        pair = f(centre - dx) + f(centre + dx)
        kronrod += _GK21_KRONROD_WEIGHTS[j] * pair
        if j % 2:
            gauss += _G10_WEIGHTS[j // 2] * pair
    return kronrod * half, abs((kronrod - gauss) * half)


def _adaptive_gauss_kronrod(f, breakpoints):
    """Integral of f over [breakpoints[0], breakpoints[-1]] and its error estimate.

    Bisects the interval with the largest error estimate until the summed
    estimate meets the target, reaches the interval limit, or stops being
    finite; the caller judges the returned estimate against its budget.
    """
    heap = []  # (-error, a, b, value): the worst interval on top
    for a, b in zip(breakpoints, breakpoints[1:]):
        value, error = _gauss_kronrod_21(f, a, b)
        heap.append((-error, a, b, value))
    heapq.heapify(heap)
    while True:
        value = math.fsum(item[3] for item in heap)
        error = math.fsum(-item[0] for item in heap)
        if (
            not (math.isfinite(value) and math.isfinite(error))
            or error <= _QUAD_TARGET * max(1.0, abs(value))
            or len(heap) >= _QUAD_MAX_INTERVALS
        ):
            return value, error
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            part, part_error = _gauss_kronrod_21(f, lo, hi)
            heapq.heappush(heap, (-part_error, lo, hi, part))


# sqrt(pi)/2 to 60 digits, more than any precision used below.
_HALF_SQRT_PI = Decimal("0.886226925452758013649083741670572591398774728061193564106903895")
_LOG10_E = math.log10(math.e)
# Significant digits the exact expectation carries into its one rounding to
# float: a value within 1e-25 relative of a rounding midpoint is the only
# way to round it wrongly.
_EXACT_DIGITS = 28
# Below this x = 1/scale the Taylor series is used, above it the continued
# fraction; 30 levels of the fraction are exact to < 1e-28 for x >= 6.
_SERIES_CUT = 6.0
_CF_DEPTH = 30


def inv_quadratic_expectation(scale):
    """E[1/((scale Z)^2 + 2)] for Z ~ N(0,1), correctly rounded for scale > 0.

    With x = 1/scale the value is x (sqrt(pi)/2) exp(x^2) erfc(x).  For
    x <= 6 it is x [(sqrt(pi)/2) exp(x^2) - sum_k 2^k x^(2k+1)/(2k+1)!!]
    (the series of exp(x^2) erf(x)); the difference cancels about
    x^2 log10(e) digits, which the working precision adds back.  Above 6 it
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
        for k in range(_CF_DEPTH, 0, -1):
            fraction = x + Decimal(k) / 2 / fraction
        return float(x / (2 * fraction))


def normal_expectation(h, scale=1.0):
    """E[h(scale * Z)] for Z ~ N(0,1): exact where h carries it, else quadrature.

    `h` may be a bare callable or any object with an ``evaluator`` attribute
    (the TestFunction type).  `scale` >= 0 selects the target N(0, scale^2);
    scale 0 is point mass at 0 and returns h(0) exactly.  An h whose
    ``gaussian_expectation`` is set (a callable of the scale) returns its
    value.  Otherwise the integral over [-12, 0] and [0, 12] is refined by
    bisection with the 21-point Gauss-Kronrod rule, raising
    ConvergenceError, with the achieved estimate, when the Gauss-Kronrod
    error estimate exceeds the 1e-8 budget or when the value or the estimate
    is not finite (h returned NaN or inf).
    """
    evaluator = getattr(h, "evaluator", h)
    if not callable(evaluator):
        raise DomainError("h must be callable or carry a callable 'evaluator'")
    scale = real(scale, "scale", ge=0.0)
    if scale == 0.0:
        return evaluator(0.0)
    exact = getattr(h, "gaussian_expectation", None)
    if exact is not None:
        return exact(scale)

    def integrand(t):
        return evaluator(scale * t) * _normal_pdf(t)

    value, abserr = _adaptive_gauss_kronrod(
        integrand, (-_QUAD_HALF_WIDTH, 0.0, _QUAD_HALF_WIDTH)
    )
    if not (math.isfinite(value) and abserr <= _QUAD_ABS_TOL):
        raise ConvergenceError(
            f"Gaussian expectation quadrature did not reach the {_QUAD_ABS_TOL:g} "
            f"budget (value {value!r}, achieved error estimate {abserr:.3e})",
            achieved_error=abserr,
        )
    return value
