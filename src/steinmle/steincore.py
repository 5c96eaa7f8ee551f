"""Generic normal-approximation bound assembly.

The estimator-to-normal distance bounds computed here all have the additive
shape

    score term + Markov tail term + R2 term + Taylor remainder term,

where the score term alone bounds the distance for the standardised score
statistic, and the remaining terms price the Taylor expansion of the score
around the estimator.  Model-specific moments enter through
:class:`BoundIngredients`; the assemblers are pure arithmetic so every model
shares one audited code path.  The score term (2 + E|xi|^3 / i^{3/2})/sqrt(n)
is written once, in ``_score_term``, which the boundary-perturbed and
implicit-MLE bounds call too.  The four-term assembly is written once, in
``_mle_bound_fields``, which checks the ingredient floats and sums the terms:
``mle_bound_general`` hands it a ``BoundIngredients``' fields, and the
exponential route of ``registry.Model.distance_bound`` and the implicit-MLE
bound hand it floats they computed, with no ``BoundIngredients`` built.

Conventions
-----------
* ``h_weights = (sup_norm, lip_norm)`` weights each term, a nonnegative
  multiple of one norm, by that norm of the test function.  So every
  unit-weight total, at ``(1, 1)``, the poisson and beta closed forms
  included, bounds the h-discrepancy for each h with sup norm <= 1 and
  Lipschitz constant <= 1, a class that contains the bounded-Lipschitz ball
  (sup + Lipschitz norm <= 1) of the bounded Wasserstein distance.  The
  harness passes the norms of its concrete test function instead.
* ``sup_third_deriv`` stores the full n-dependent bound on the third
  log-likelihood derivative (e.g. 16n/theta0^3); assemblers never inject
  additional n factors.
* When ``sup_third_is_deterministic`` is set the third-derivative bound holds
  for every sample, so the Taylor term multiplies it by the MSE directly
  instead of taking the Cauchy-Schwarz route through the fourth moment.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._validate import Value, instance, integer, real, weights
from .errors import DomainError, FloatRangeError, float_range, range_error
from .specfun import inv_quadratic_expectation, std_normal_quantile

__all__ = [
    "TestFunction",
    "inv_quadratic_test_function",
    "BoundIngredients",
    "BoundBreakdown",
    "score_bound",
    "mle_bound_general",
    "kolmogorov_from_bw",
]

TERM_SCORE = "score"
TERM_MARKOV = "markov_tail"
TERM_R2 = "r2"
TERM_TAYLOR = "taylor_remainder"

_INF = math.inf
_UNIT_WEIGHTS = (1.0, 1.0)  # valid h weights, which ``_mle_bound_fields`` does not check again


class TestFunction(Value):
    """A test function h with its sup norm and Lipschitz constant.

    Norms of at most 1 put h inside the class that unit-weight totals cover
    (see the h_weights convention above); the harness relies on that
    containment when comparing h-discrepancies to whole-class bounds.  ``gaussian_expectation`` maps a scale s > 0 to the
    exact E h(s Z), Z ~ N(0,1), which ``normal_expectation`` returns.  The
    harness needs it: a run with an h that leaves it None is a DomainError
    before any trial is drawn.

    ``evaluator`` acts elementwise: a float gives a float, and a float64
    array gives the array of the values at its elements, of the same shape
    (arithmetic on numpy arrays does both).  The harness evaluates each row
    of trials in one call and raises DomainError for an evaluator that
    cannot.
    """

    __test__ = False  # keep pytest collection away from the Test* name

    def __init__(
        self,
        evaluator: Callable,  # float -> float, and float64 array -> same-shape array
        sup_norm: float,
        lip_norm: float,
        label: str = "",
        gaussian_expectation: Callable[[float], float] | None = None,
    ):
        if not callable(evaluator):
            raise DomainError("TestFunction.evaluator must be callable")
        if gaussian_expectation is not None and not callable(gaussian_expectation):
            raise DomainError("TestFunction.gaussian_expectation must be callable")
        vars(self).update(
            evaluator=evaluator,
            sup_norm=real(sup_norm, "sup_norm", ge=0.0),
            lip_norm=real(lip_norm, "lip_norm", ge=0.0),
            label=label,
            gaussian_expectation=gaussian_expectation,
        )

    @property
    def weights(self) -> tuple[float, float]:
        return (self.sup_norm, self.lip_norm)


def _inv_quadratic(x):
    return 1.0 / (x * x + 2.0)


def inv_quadratic_test_function() -> TestFunction:
    """The harness default h(x) = 1/(x^2 + 2).

    Exact norms: sup 1/2 at x = 0, Lipschitz constant 3*sqrt(1.5)/16
    (attained at x = sqrt(2/3)).  sup + lip ~= 0.7296 < 1, so h lies in the
    bounded-Lipschitz class.  Its Gaussian expectation is exact (see
    ``specfun.inv_quadratic_expectation``).  Every call gives an equal
    value: the evaluator is one module-level function, not a new lambda.
    """
    return TestFunction(
        evaluator=_inv_quadratic,
        sup_norm=0.5,
        lip_norm=3.0 * math.sqrt(1.5) / 16.0,
        label="inv-quadratic",
        gaussian_expectation=inv_quadratic_expectation,
    )


class BoundIngredients(Value):
    """Per-model moment inputs for the general estimator bound.

    fisher_info is the expected information of a single observation;
    third_abs_score_moment is E|d/dtheta log f(X_1|theta0)|^3 (or an upper
    bound on it, e.g. via Holder); mse and fourth_mle_moment are the second
    and fourth central moments of the estimator; r2_conditional_bound bounds
    the conditional mean of |(theta_hat - theta0)(l'' + n i)| given the
    estimator is epsilon-close; sup_third_deriv bounds the sup of |l'''| on
    the epsilon-neighbourhood (full n-dependent form).  These five moment
    bounds may be inf: a moment that does not exist (the exp-canonical
    fourth moment below n = 5), or one that overflowed in an ingredient
    builder.  An assembler refuses a bound made infinite by one.
    """

    def __init__(
        self, theta0: float, n: int, fisher_info: float, third_abs_score_moment: float,
        mse: float, fourth_mle_moment: float, sup_third_deriv: float,
        r2_conditional_bound: float, epsilon: float, sup_third_is_deterministic: bool = False,
    ):
        n = integer(n, "n")
        theta0 = real(theta0, "theta0")
        fisher = real(fisher_info, "fisher_info", gt=0.0)
        third = real(third_abs_score_moment, "third_abs_score_moment", ge=0.0, inf=True)
        mse = real(mse, "mse", ge=0.0, inf=True)
        fourth = real(fourth_mle_moment, "fourth_mle_moment", ge=0.0, inf=True)
        sup3 = real(sup_third_deriv, "sup_third_deriv", ge=0.0, inf=True)
        r2 = real(r2_conditional_bound, "r2_conditional_bound", ge=0.0, inf=True)
        eps = real(epsilon, "epsilon", gt=0.0)
        # A plain int and plain floats, which json.dumps accepts.
        vars(self).update(
            theta0=theta0, n=n, fisher_info=fisher, third_abs_score_moment=third, mse=mse,
            fourth_mle_moment=fourth, sup_third_deriv=sup3, r2_conditional_bound=r2,
            epsilon=eps, sup_third_is_deterministic=sup_third_is_deterministic,
        )

    def to_dict(self):
        return dict(self._field_items())


class BoundBreakdown(Value):
    """A labelled term-by-term decomposition of a bound and its total.

    The total is the exactly-rounded (fsum) sum of the term values, so
    permuting terms cannot change it; a ``total`` passed in is ignored.  A
    NaN or negative term is a DomainError; an infinite term, or a total that
    overflows, is a FloatRangeError, so no bound is ever reported as inf.
    One fsum and one test of the total and the least term check the terms;
    the error is worded, term by term, only when that test fails.  A value
    that is not a float is checked as ``_validate.real`` checks a number (so
    bool and str are a DomainError), and terms that are not (label, value)
    pairs are a DomainError.
    """

    def __init__(self, terms: tuple[tuple[str, float], ...], total: float | None = None):
        try:
            terms = tuple([
                (str(label), value if type(value) is float
                 else real(value, f"breakdown term {label!r}", inf=True))
                for label, value in terms
            ])
        except DomainError:
            raise
        except (TypeError, ValueError):
            raise DomainError(f"breakdown terms must be (label, value) pairs, got {terms!r}") from None
        values = [value for _, value in terms]
        try:
            total = math.fsum(values)
        except (OverflowError, ValueError):  # finite terms overflowing, or inf - inf
            total = math.nan
        # NaN or inf in a term makes the total NaN or inf; a negative term can hide in it.
        if not (0.0 <= total < _INF and (not values or min(values) >= 0.0)):
            _refuse(terms)
        vars(self).update(terms=terms, total=total)

    def to_dict(self):
        return {
            "terms": [{"label": lab, "value": val} for lab, val in self.terms],
            "total": self.total,
        }

    def to_csv_rows(self):
        rows = [(lab, repr(val)) for lab, val in self.terms]
        rows.append(("total", repr(self.total)))
        return rows


def _refuse(terms):
    """Raise the error for the first NaN, negative or infinite term, else for
    a total that overflows."""
    for label, value in terms:
        if math.isnan(value):
            raise DomainError(f"breakdown term {label!r} is NaN")
        if value < 0.0:
            raise DomainError(f"breakdown term {label!r} is negative: {value!r}")
        if value == math.inf:
            raise FloatRangeError(
                f"breakdown term {label!r} overflowed to inf; the input lies outside "
                "the float range of this bound"
            )
    raise FloatRangeError(
        "the bound total overflowed; the input lies outside the float range of this bound"
    )


def _score_term(third_abs_moment: float, variance: float, n: int) -> float:
    """(2 + E|xi|^3 / Var(xi)^{3/2}) / sqrt(n): the Stein bound for the
    standardised sum of n i.i.d. copies of xi, the leading term of every bound."""
    return (2.0 + third_abs_moment / variance**1.5) / math.sqrt(n)


@float_range
def score_bound(ing: BoundIngredients, h_weights=(1.0, 1.0)) -> BoundBreakdown:
    """Distance bound for the standardised score statistic.

    Single term  lip * (1/sqrt(n)) * (2 + third_moment / fisher^{3/2}).
    With weights (1, 1) this is the bounded Wasserstein bound for the score;
    when the estimator already is a normalised i.i.d. sum it bounds the
    estimator's distance directly, with no Taylor expansion.
    """
    instance(ing, BoundIngredients, "ing")
    sup, lip = weights(h_weights)
    value = lip * _score_term(ing.third_abs_score_moment, ing.fisher_info, ing.n)
    return BoundBreakdown(terms=((TERM_SCORE, value),))


def mle_bound_general(ing: BoundIngredients, h_weights=(1.0, 1.0)) -> BoundBreakdown:
    """Four-term distance bound for sqrt(n * i(theta0)) (theta_hat - theta0).

    Terms: the score bound; a Markov tail term 2*sup*MSE/eps^2; the
    conditional R2 term; and the Taylor remainder term, which scales
    sup_third_deriv * MSE when the sup bound holds for every sample, else
    sup_third_deriv * sqrt(fourth moment) (the Cauchy-Schwarz route).
    """
    return _mle_bound_fields(tuple(vars(instance(ing, BoundIngredients, "ing")).values()), h_weights)


def _mle_bound_fields(fields: tuple, h_weights, taylor_first: bool = False) -> BoundBreakdown:
    """The four terms of ``mle_bound_general`` from ``BoundIngredients``'
    arguments in order: the one copy of the assembly, with its float-range
    errors named for it.  The fields need theta0, n and epsilon checked, as
    an ingredient builder checks them; one test of the other floats stands
    in for the ingredients' checks, and a ``BoundIngredients`` is built only
    when it fails, to raise the error that names the field; then h_weights,
    unless ``_UNIT_WEIGHTS``.  ``taylor_first`` puts Taylor before R2."""
    _, n, fisher, third, mse, fourth, sup3, r2, eps, deterministic = fields
    if not (
        0.0 < fisher < _INF and 0.0 < eps < _INF
        and third >= 0.0 and mse >= 0.0 and fourth >= 0.0 and sup3 >= 0.0 and r2 >= 0.0
    ):
        BoundIngredients(*fields)
    sup, lip = h_weights if h_weights is _UNIT_WEIGHTS else weights(h_weights)
    try:
        root_ni = math.sqrt(n * fisher)
        if root_ni == _INF:  # an overflowed n i would zero the R2 and Taylor terms
            raise OverflowError
        terms = (
            (TERM_SCORE, lip * _score_term(third, fisher, n)),
            (TERM_MARKOV, 2.0 * sup * mse / eps**2),
            (TERM_R2, lip / root_ni * r2),
            (TERM_TAYLOR, lip / root_ni * 0.5 * (sup3 * mse if deterministic else sup3 * math.sqrt(fourth))),
        )
    except (OverflowError, ZeroDivisionError) as exc:
        raise range_error("mle_bound_general", exc) from exc
    return BoundBreakdown(terms[:2] + (terms[3], terms[2]) if taylor_first else terms)


def kolmogorov_from_bw(bw_bound: float, sigma: float = 1.0) -> float:
    """Kolmogorov-distance bound from a bounded-Wasserstein bound b against
    N(0, sigma^2): max(2 sqrt(b), sqrt(2 C b)), C = 1/(sigma sqrt(2 pi)).

    Smoothing the indicator of (-inf, x] linearly over a width e <= 1 gives
    d_K <= b/e + C e/2, C bounding the target's density (Ross, Fundamentals
    of Stein's method, 2011, Prop. 1.2): sqrt(2 C b) at the best e when
    b <= C/2, else less than 2b at e = 1, at most 2 sqrt(b) for b <= 1 (and
    d_K <= 1).  For sigma = 1, C < 2 and the bound is 2 sqrt(b).  b must be
    finite, and sigma positive unless b = 0; a sigma so small that
    sqrt(2 C b) overflows is a FloatRangeError.
    """
    b = real(bw_bound, "bounded Wasserstein bound", ge=0.0)
    smoothed = 2.0 * math.sqrt(b)
    if type(sigma) is float and sigma == 1.0:  # the unit-normal targets
        return smoothed
    sigma = real(sigma, "sigma", gt=0.0 if b else None, ge=0.0)
    if b == 0.0:  # a zero b is a zero bound, also against sigma = 0
        return smoothed
    density = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    value = max(smoothed, math.sqrt(2.0 * density * b))
    if value == _INF:
        raise FloatRangeError(
            "kolmogorov_from_bw: sqrt(2 C b) overflowed; the input lies outside "
            "the float range of this conversion"
        )
    return value


def _ci_offsets(n: int, fisher_info: float, alpha: float, b_k: float):
    """(PhiInv(1 - alpha/2 + b_k), PhiInv(alpha/2 - b_k)) / sqrt(n i): the
    conservative 100(1-alpha)% interval, the normal quantiles widened by the
    Kolmogorov bound b_k, is theta_hat minus each, in that order.  None when
    a quantile's argument leaves (0, 1) (b_k >= alpha/2, or 1 - alpha/2 + b_k
    rounding to 1) and the interval is the whole line.  They do not depend
    on theta_hat, so a row of trials needs them once."""
    alpha = real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    n = integer(n, "n")
    fisher = real(fisher_info, "fisher_info", gt=0.0)
    bk = real(b_k, "b_k", ge=0.0)
    lo_arg = alpha / 2.0 - bk
    hi_arg = 1.0 - alpha / 2.0 + bk
    if lo_arg <= 0.0 or hi_arg >= 1.0:
        return None
    scale = math.sqrt(n * fisher)
    return std_normal_quantile(hi_arg) / scale, std_normal_quantile(lo_arg) / scale
