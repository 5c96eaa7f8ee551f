"""Every public callable of ``steinmle`` keeps the error contract.

Each name in ``steinmle.__all__`` that can be called, the error classes
aside, has an argument strategy here, one strategy per parameter kind: a
real number (magnitudes of either sign from the subnormals to 1e308, numpy
floating scalars, the edges, NaN, infinities, bool and str), a size (n up to
10^400, numpy integers, zero, negatives, bool, str and a float), and for a
value-type parameter a value built from positive magnitudes (its
constructor is covered with real-number arguments of every kind) or a value
of the wrong type: a number, a str, None, a tuple or another value type.  Every
call returns a finite documented value or raises a ``SteinMLEError``, within
a time bound.  The one documented non-finite value is a ``BoundIngredients``
moment bound, which may be inf: one passed in as inf, one that overflowed in
an ingredient builder, or the exp-canonical fourth estimator moment below
n = 5.  Only numpy, not mpmath, is needed.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmle
from steinmle._validate import Value
from steinmle.registry import Model
from steinmle.specfun import inv_quadratic_expectation

_MAGNITUDES = st.builds(lambda e: 10.0**e, st.floats(-323.5, 308.0))
_POSITIVE = _MAGNITUDES | _MAGNITUDES.map(np.float64)
REALS = st.one_of(
    _MAGNITUDES,
    _MAGNITUDES.map(lambda x: -x),
    _MAGNITUDES.map(np.float64),
    st.builds(lambda e: np.float32(10.0**e), st.floats(-45.0, 38.5)),
    st.sampled_from([5e-324, 1.797e308, 0.0, -0.0, -1.0, 1.0, math.nan, math.inf, -math.inf,
                     True, False, "1.5", None]),
)
SIZES = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda e: 10**e + 1, st.integers(6, 400)),
    st.integers(1, 10**6).map(np.int64),
    st.sampled_from([0, -3, True, "10", 10.0, None]),
)
_MOMENTS = _POSITIVE | st.just(math.inf) | st.just(0.0)
_BOUND_INGREDIENTS = st.builds(
    steinmle.BoundIngredients, _POSITIVE, st.integers(1, 10**6), _POSITIVE, _MOMENTS, _MOMENTS,
    _MOMENTS, _MOMENTS, _MOMENTS, _POSITIVE, st.booleans(),
)
_IMPLICIT = st.builds(
    steinmle.ImplicitModelIngredients, _POSITIVE, _POSITIVE, _POSITIVE | st.just(0.0),
    _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE,
)
_BETA_PARAMS = st.builds(steinmle.BetaParams, _POSITIVE, _POSITIVE)
# What a value-type parameter may be given in its place.
_NOT_VALUES = st.sampled_from([5, 1.5, "x", None, (1.0, 2.0), steinmle.TestFunction(abs, 0.5, 0.5)])
_WEIGHTS = st.tuples(REALS, REALS) | st.sampled_from([(1.0,), "ab", 5, None])
_H = st.sampled_from([
    steinmle.inv_quadratic_test_function(),
    steinmle.TestFunction(abs, 0.5, 1.0),  # carries no Gaussian expectation
    abs,
    1.0,
    "h",
])
_TERMS = st.lists(st.tuples(st.text(max_size=3), REALS), max_size=4).map(tuple) | st.sampled_from(
    [5, "ab", ((1, 2, 3),), (("a",),), None]
)
_MOMENT_FIELDS = frozenset(
    ["third_abs_score_moment", "mse", "fourth_mle_moment", "sup_third_deriv", "r2_conditional_bound"]
)


# name -> the strategy of its arguments
SIGNATURES = {
    "polygamma": st.tuples(st.integers(-1, 5) | SIZES, REALS),
    "std_normal_quantile": st.tuples(REALS),
    "normal_expectation": st.tuples(_H, REALS),
    "TestFunction": st.tuples(
        st.sampled_from([abs, None, 1.0]), REALS, REALS, st.text(max_size=3),
        st.sampled_from([None, inv_quadratic_expectation, 1.0]),
    ),
    "inv_quadratic_test_function": st.just(()),
    "BoundIngredients": st.tuples(REALS, SIZES, *[REALS] * 7, st.booleans()),
    "BoundBreakdown": st.tuples(_TERMS, REALS),
    "score_bound": st.tuples(_BOUND_INGREDIENTS | _NOT_VALUES, _WEIGHTS),
    "mle_bound_general": st.tuples(_BOUND_INGREDIENTS | _NOT_VALUES, _WEIGHTS),
    "kolmogorov_from_bw": st.tuples(REALS, REALS),
    "exp_canonical_ingredients": st.tuples(REALS, SIZES, st.none() | REALS),
    "exp_noncanonical_ingredients": st.tuples(REALS, SIZES, st.none() | REALS),
    "poisson_bound": st.tuples(REALS, SIZES, REALS | st.just("auto")),
    "ImplicitModelIngredients": st.tuples(*[REALS] * 7),
    "BetaParams": st.tuples(REALS, REALS),
    "minimal_n": st.tuples(_IMPLICIT | _NOT_VALUES),
    "mse_upper_bound_a1": st.tuples(_IMPLICIT | _NOT_VALUES, SIZES),
    "implicit_distance_bound": st.tuples(_IMPLICIT | _NOT_VALUES, SIZES),
    "beta_ingredients": st.tuples(_BETA_PARAMS | _NOT_VALUES),
    "beta_b3": st.tuples(_BETA_PARAMS | _NOT_VALUES, SIZES),
    "beta_distance_bound": st.tuples(_BETA_PARAMS | _NOT_VALUES, SIZES),
    "get_model": st.tuples(st.sampled_from([*steinmle.MODEL_NAMES, "weibull", None]), REALS),
}

# A second is far beyond any of these calls; a call that loops or allocates
# without bound takes longer.
_TIME_BOUND_S = 1.0


def _assert_finite(value, where):
    """Every float in ``value`` is finite, a ``BoundIngredients`` moment bound
    aside: a number, or nested dicts, lists, tuples and value types."""
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_finite(item, (where, key))
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_finite(item, where)
    elif isinstance(value, Value):
        moments = _MOMENT_FIELDS if isinstance(value, steinmle.BoundIngredients) else ()
        for name, item in value._field_items():
            if not (name in moments and item == math.inf):
                _assert_finite(item, (where, name))
    elif isinstance(value, Model):
        _assert_finite(value.beta, (where, "beta"))
    else:  # an int, a str, a label, a callable field, or a None field
        assert value is None or isinstance(value, (int, str)) or callable(value), where


def _assert_contract(name, args):
    start = time.perf_counter()
    try:
        value = getattr(steinmle, name)(*args)
    except steinmle.SteinMLEError:
        value = None
    elapsed = time.perf_counter() - start
    assert elapsed < _TIME_BOUND_S, (name, args, elapsed)
    if value is not None:
        _assert_finite(value, (name, args))


def test_every_public_callable_has_a_strategy():
    callables = {
        name for name in steinmle.__all__
        if callable(getattr(steinmle, name))
        and not (isinstance(getattr(steinmle, name), type)
                 and issubclass(getattr(steinmle, name), Exception))
    }
    assert callables == set(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=30)
@given(data=st.data())
def test_public_callable_returns_a_finite_value_or_a_package_error(name, data):
    _assert_contract(name, data.draw(SIGNATURES[name], label="args"))


_IMPLICIT_OVERFLOW = (1e-10, 1e-150, 1.7e308, 5e-324, 1e150, 1e-10, 1e300)

# Calls that once returned a bool's value, inf, a bound below the minimal n
# or a bare Python error.
KNOWN = {
    "polygamma-bool-order": ("polygamma", (True, 1.5)),
    "polygamma-float-order": ("polygamma", (1.0, 0.5)),
    "kolmogorov-subnormal-sigma": ("kolmogorov_from_bw", (0.5, 5e-324)),
    "kolmogorov-bool-sigma": ("kolmogorov_from_bw", (0.5, True)),
    "kolmogorov-str-sigma-at-zero": ("kolmogorov_from_bw", (0.0, "x")),
    "kolmogorov-inf": ("kolmogorov_from_bw", (math.inf,)),
    "implicit-bound-overflow": (
        "implicit_distance_bound", (steinmle.ImplicitModelIngredients(*_IMPLICIT_OVERFLOW), 10)
    ),
    "implicit-bound-below-minimal-n": (
        "implicit_distance_bound", (steinmle.beta_ingredients(steinmle.BetaParams(1.5, 1.0)), 400)
    ),
    "a1-overflow": (
        "mse_upper_bound_a1", (steinmle.ImplicitModelIngredients(*_IMPLICIT_OVERFLOW), 10)
    ),
    "breakdown-str-term": ("BoundBreakdown", ((("a", "0.5"),),)),
    "breakdown-bool-term": ("BoundBreakdown", ((("a", True),),)),
    "breakdown-bad-str-term": ("BoundBreakdown", ((("a", "x"),),)),
    "breakdown-not-pairs": ("BoundBreakdown", (5,)),
}


# Value-type parameters given another type, which once raised a bare
# AttributeError or TypeError: (name, args, the parameter's name).
WRONG_VALUE_TYPES = {
    "score_bound": ((5,), "ing"),
    "mle_bound_general": (("x",), "ing"),
    "minimal_n": ((5,), "ing"),
    "mse_upper_bound_a1": ((5, 10), "ing"),
    "implicit_distance_bound": ((5, 10), "ing"),
    "beta_ingredients": ((steinmle.ImplicitModelIngredients(1, 1, 0, 1, 1, 1, 0.5),), "p"),
    "beta_b3": ((None, 10), "p"),
    "beta_distance_bound": ((5, 10), "p"),
}


@pytest.mark.parametrize("name", sorted(WRONG_VALUE_TYPES))
def test_a_wrong_value_type_is_a_domain_error_naming_the_parameter(name):
    args, param = WRONG_VALUE_TYPES[name]
    with pytest.raises(steinmle.DomainError, match=f"^{param} must be of type "):
        getattr(steinmle, name)(*args)


@pytest.mark.parametrize("case", KNOWN)
def test_known_contract_cases(case):
    name, args = KNOWN[case]
    _assert_contract(name, args)


@pytest.mark.parametrize("case", ["polygamma-bool-order", "kolmogorov-bool-sigma",
                                  "kolmogorov-str-sigma-at-zero", "breakdown-str-term",
                                  "breakdown-bool-term", "implicit-bound-below-minimal-n"])
def test_known_cases_that_returned_a_value_now_raise(case):
    name, args = KNOWN[case]
    with pytest.raises(steinmle.DomainError):
        getattr(steinmle, name)(*args)
