"""Extreme magnitudes and numpy scalars at the bound entry points.

A value that leaves the float range raises ``FloatRangeError``, which is a
``SteinMLEError`` and an ``ArithmeticError`` (the CLI's exit 3); a numpy
floating scalar is a real number like any other.
"""

import numpy as np
import pytest

from steinmle.boundary import poisson_bound
from steinmle.errors import FloatRangeError, SteinMLEError
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.msebound import BetaParams, beta_b3
from steinmle.registry import MODEL_NAMES, get_model


@pytest.mark.parametrize("fn", [poisson_bound, exp_canonical_ingredients,
                                exp_noncanonical_ingredients])
@pytest.mark.parametrize("theta0,cause", [(1e300, OverflowError), (1e-300, ZeroDivisionError)],
                         ids=["overflow", "underflow"])
def test_float_range_is_a_package_error(fn, theta0, cause):
    with pytest.raises(FloatRangeError, match=fn.__name__) as excinfo:
        fn(theta0, 10)
    assert isinstance(excinfo.value, SteinMLEError)
    assert isinstance(excinfo.value, ArithmeticError)
    assert isinstance(excinfo.value.__cause__, cause)


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("theta0", [1e300, 1e155, 1e-105, 1e-150, 1e-300])
@pytest.mark.parametrize("n", [3, 10, 10**6])
def test_registry_bounds_raise_only_package_errors(model, theta0, n):
    try:
        get_model(model).distance_bound(theta0, n)
    except SteinMLEError:
        pass


@pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64, np.longdouble])
def test_numpy_floating_theta0_is_accepted(scalar):
    assert exp_canonical_ingredients(scalar(1.0), 10) == exp_canonical_ingredients(1.0, 10)
    assert exp_noncanonical_ingredients(scalar(2.0), 10) == exp_noncanonical_ingredients(2.0, 10)
    assert poisson_bound(scalar(5.0), 20) == poisson_bound(5.0, 20)
    assert poisson_bound(5.0, 20, c=scalar(2.0)) == poisson_bound(5.0, 20, c=2.0)
    params = BetaParams(scalar(1.5), scalar(2.0))
    assert type(params.theta0) is float and type(params.beta) is float
    assert beta_b3(params, 12000) == beta_b3(BetaParams(1.5, 2.0), 12000)
    for model, n in [("exp-canonical", 10), ("exp-noncanonical", 10), ("poisson", 20)]:
        assert get_model(model).distance_bound(scalar(1.5), n) == get_model(model).distance_bound(1.5, n)
    beta = get_model("beta", beta=scalar(2.0))
    assert beta.distance_bound(scalar(1.5), 12000) == get_model("beta", beta=2.0).distance_bound(1.5, 12000)
