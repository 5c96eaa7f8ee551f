"""The exponential models' one-pass bound route against the ingredient route.

``registry.Model.distance_bound`` computes an exp-canonical or
exp-noncanonical bound from ``expfam``'s formula helper and ``steincore``'s
assembly helper, without building ``BoundIngredients``.
``mle_bound_general(exp_*_ingredients(theta0, n, epsilon), weights)`` goes
through the public builder and the public assembler.  The two share the
formula and assembly helpers, so they can differ only where the registry
forwards epsilon and where one test of the fields stands in for
``BoundIngredients``' per-field checks.  At pinned edges and over the
benchmark's bound-grid lattice they must give the same terms bit for bit,
or raise the same exception type with the same message; the field test is
fuzzed on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_contract import CUBE_SUBNORMAL, SQUARE_OVERFLOWS, outcome

from steinmle.errors import FloatRangeError
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.registry import get_model
from steinmle.steincore import BoundIngredients, _mle_bound_fields, mle_bound_general

BUILDERS = {
    "exp-canonical": exp_canonical_ingredients,
    "exp-noncanonical": exp_noncanonical_ingredients,
}

# The bound-grid lattice of the benchmark: 9 theta0 x 11 n x 4 weights.
GRID_THETA = [10.0 ** (k / 2) for k in range(-4, 5)]
GRID_N = [int(round(10.0 ** (j / 2))) for j in range(2, 13)]
GRID_WEIGHTS = [(1.0, 1.0), (0.5, 3.0 * math.sqrt(1.5) / 16.0), (0.25, 0.5), (1.0, 0.1)]


def _both_routes(model, theta0, n, epsilon, weights):
    """Each route's breakdown or package error, as its repr: the terms' floats
    bit for bit, or the error's type and message."""
    one_pass = outcome(
        lambda: get_model(model).distance_bound(theta0, n, h_weights=weights, epsilon=epsilon)
    )
    built = outcome(lambda: mle_bound_general(BUILDERS[model](theta0, n, epsilon), weights))
    return repr(one_pass), repr(built)


@pytest.mark.parametrize("model", sorted(BUILDERS))
@pytest.mark.parametrize(
    "theta0,n,epsilon,weights",
    [
        (1.0, 10, None, (1.0, 1e308)),  # the Taylor term overflows to inf
        (1e300, 10, None, (1.0, 1.0)),  # theta0**2 overflows in the builder
        (1e-300, 10, None, (1.0, 1.0)),  # theta0**2 underflows to 0 in the builder
        (1e-160, 10, None, (1.0, 1.0)),  # the information is inf, theta0**3 underflows
        (1e-105, 10, None, (1.0, 1.0)),  # the third moment is inf
        (1e-105, 10, None, (0.0, 0.0)),  # inf times a zero weight: a NaN term
        (SQUARE_OVERFLOWS, 10, None, (1.0, 1.0)),
        (1e-103, 10, None, (1.0, 1.0)),
        (1.0, 10**400, None, (1.0, 1.0)),  # n beyond the float range
        (1.0, 2**63, None, (1.0, 1.0)),
        (2.0, 10, 2.0, (1.0, 1.0)),  # epsilon on the ball's edge
        (2.0, 10, None, (1e308, 1.0)),
        (2.0, 10, None, (np.float64(0.5), True)),
        (CUBE_SUBNORMAL, 10, None, (1.0, 1.0)),
        (2.0, 10, 0.5, (1.0, 1.0)),  # a valid epsilon, forwarded by the registry
        (1.0, 10, 1e-200, (1.0, 1.0)),  # epsilon**2 underflows to 0: mle_bound_general is named
    ],
)
def test_pinned_edges_agree(model, theta0, n, epsilon, weights):
    one_pass, built = _both_routes(model, theta0, n, epsilon, weights)
    assert one_pass == built


@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_bound_grid_lattice_is_bit_identical(model):
    build = BUILDERS[model]
    entry = get_model(model)
    for theta0 in GRID_THETA:
        for n in GRID_N:
            ing = build(theta0, n)
            for w in GRID_WEIGHTS:
                got = entry.distance_bound(theta0, n, h_weights=w)
                want = mle_bound_general(ing, w)
                assert got.terms == want.terms and got.total == want.total, (theta0, n, w)


_BAD_VALUES = [0.0, -0.0, -1.0, -5e-324, math.inf, -math.inf, math.nan, 1e308]
_BAD_FIELD = st.sampled_from(_BAD_VALUES)


def _field_outcomes(theta0, n, values, deterministic, weights):
    fields = (theta0, n, *values, deterministic)
    one_pass = outcome(lambda: _mle_bound_fields(fields, weights))
    built = outcome(lambda: mle_bound_general(BoundIngredients(*fields), weights))
    return repr(one_pass), repr(built)


def test_each_field_out_of_range_raises_what_the_ingredients_raise():
    # The seven computed fields (information to epsilon), one at a time.
    for index in range(7):
        for value in _BAD_VALUES:
            for deterministic in (True, False):
                values = [1.0, 2.41456, 0.1, 0.03, 160.0, 1.0, 0.5]
                values[index] = value
                one_pass, built = _field_outcomes(1.0, 10, values, deterministic, (1.0, 1.0))
                assert one_pass == built, (index, value, deterministic)


@settings(max_examples=200)
@given(
    theta0=st.floats(5e-324, 1e308),
    n=st.integers(1, 10**6),
    values=st.tuples(*[st.floats(1e-3, 1e3)] * 7),
    bad=st.lists(st.tuples(st.integers(0, 6), _BAD_FIELD), max_size=2),
    deterministic=st.booleans(),
    weights=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
)
def test_field_test_raises_what_the_ingredients_raise(theta0, n, values, bad, deterministic, weights):
    # For any floats a builder might compute from a checked theta0 and n, one
    # or two of them out of range, the one-pass test of the fields gives what
    # building the ingredients does.
    values = list(values)
    for index, value in bad:
        values[index] = value
    one_pass, built = _field_outcomes(theta0, n, values, deterministic, weights)
    assert one_pass == built


@pytest.mark.parametrize(
    "model,theta0,n,epsilon,message",
    [
        ("exp-canonical", 1e300, 10, None, "exp_canonical_ingredients: an intermediate value overflowed"),
        ("exp-noncanonical", 1e-300, 10, None,
         "exp_noncanonical_ingredients: an intermediate value underflowed to 0"),
        ("exp-noncanonical", 1.0, 10, 1e-200, "mle_bound_general: an intermediate value underflowed to 0"),
    ],
)
def test_float_range_errors_name_the_public_function(model, theta0, n, epsilon, message):
    with pytest.raises(FloatRangeError) as excinfo:
        get_model(model).distance_bound(theta0, n, epsilon=epsilon)
    assert str(excinfo.value).startswith(message)
