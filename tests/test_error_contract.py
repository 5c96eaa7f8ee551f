"""The error contract at every public entry point.

A value that leaves the float range raises ``FloatRangeError``, which is a
``SteinMLEError`` and an ``ArithmeticError`` (the CLI's exit 3).  A numpy
scalar is a number like any other and gives what the plain-Python call gives;
``bool`` and ``str`` are not numbers and raise ``DomainError`` (exit 2).  The
CLI answers every input with exit 0, 2 or 3 and, with ``--format json``, a
``steinmle/error/v1`` object for each error; a closed stdout exits 141.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import steinmle
from steinmle import errors
from steinmle._validate import real
from steinmle.boundary import poisson_bound
from steinmle.cli import main
from steinmle.errors import DomainError, FloatRangeError, SteinMLEError
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.montecarlo import SimulationConfig, ci_coverage
from steinmle.msebound import BetaParams, ImplicitModelIngredients, beta_b3, beta_ingredients
from steinmle.registry import MODEL_NAMES, get_model
from steinmle.specfun import (
    inv_quadratic_expectation,
    normal_expectation,
    polygamma,
    std_normal_quantile,
)
from steinmle.steincore import (
    BoundIngredients,
    TestFunction,
    _ci_offsets,
    inv_quadratic_test_function,
)


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


@pytest.mark.parametrize("model", ["exp-canonical", "exp-noncanonical"])
@pytest.mark.parametrize("theta0", [1e200, 1e-200, 1e-160])
def test_information_beyond_the_float_range_is_a_package_error(model, theta0):
    # theta0^2 overflows, underflows to 0, or is subnormal with an infinite reciprocal
    entry = get_model(model)
    with pytest.raises(FloatRangeError, match="^fisher_info"):
        entry.fisher_info(theta0)
    with pytest.raises(FloatRangeError, match="^fisher_info"):
        entry.standardize_scale(theta0, 10)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_scale_beyond_the_float_range_is_a_package_error(model):
    with pytest.raises(FloatRangeError, match="^standardize_scale"):
        get_model(model).standardize_scale(1.0, 10**400)


def test_every_error_class_is_exported():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert classes <= set(steinmle.__all__)
    assert all(getattr(steinmle, name) is getattr(errors, name) for name in classes)


# Positive magnitudes log-uniform from the subnormals to 1e308, the edges, and
# what is not a positive real: zero, negatives, NaN, inf, bool and str.
_MAGNITUDES = st.builds(lambda e: 10.0**e, st.floats(-323.5, 308.0))
_ARGS = st.one_of(
    _MAGNITUDES,
    _MAGNITUDES.map(np.float64),
    st.builds(lambda e: np.float32(10.0**e), st.floats(-45.0, 38.5)),
    st.sampled_from([5e-324, 1.797e308, 0.0, -1.0, math.nan, math.inf, True, "1.5"]),
)
# Sizes up to 10^400, beyond the float range, and what is not a size.
_SIZES = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda e: 10**e + 1, st.integers(6, 400)),
    st.integers(1, 10**6).map(np.int64),
    st.sampled_from([0, -3, True, "10", 10.0]),
)
_OPTION = {"exp-canonical": "epsilon", "exp-noncanonical": "epsilon", "poisson": "c"}


def _package_outcome(call):
    """What ``call`` returns, or None where it raises a SteinMLEError."""
    try:
        return call()
    except SteinMLEError:
        return None


def _assert_finite_leaves(value, where):
    """Every float in ``value`` (a number, or nested dicts and lists) is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _assert_finite_leaves(item, where)
    elif isinstance(value, float):
        assert math.isfinite(value), where


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_ARGS, n=_SIZES, weights=st.tuples(_ARGS, _ARGS), option=st.none() | _ARGS,
       beta=st.sampled_from([1.0, 2.0, 2.5]), stat=_ARGS | _MAGNITUDES.map(lambda x: -x))
@example(theta0=1.1e77, n=10, weights=(1.0, 1.0), option=None, beta=1.0, stat=5e-324)
@example(theta0=1e-105, n=10, weights=(1.0, 1.0), option=None, beta=1.0, stat=-5e-324)
@example(theta0=1e200, n=10, weights=(1.0, 1.0), option=None, beta=1.0, stat="abc")
@example(theta0=1.0, n=10**400, weights=(1.0, 1.0), option=None, beta=1.0, stat=math.nan)
@example(theta0="abc", n=10, weights=(1.0, 1.0), option=None, beta=1.0, stat=0.5)
@example(theta0=-1.0, n=10, weights=(1.0, 1.0), option=None, beta=1.0, stat=-0.5)
def test_registry_methods_return_finite_values_or_package_errors(
    model, theta0, n, weights, option, beta, stat
):
    # each Model method returns a finite value (an audit: finite leaves, or the
    # documented None) or raises a SteinMLEError, whatever its arguments
    entry = get_model(model, beta=beta)
    options = {_OPTION[model]: option} if model in _OPTION and option is not None else {}
    bound = _package_outcome(lambda: entry.distance_bound(theta0, n, weights, **options))
    if bound is not None:
        _assert_finite_leaves(bound.to_dict(), ("distance_bound", bound))
    epsilon = options.get("epsilon")
    audit = _package_outcome(lambda: entry.audit(theta0, n, epsilon))
    if audit is not None:
        _assert_finite_leaves(audit, ("audit", audit))
    mse = _package_outcome(lambda: entry.mse_bound(theta0, n))
    assert (mse is None) if model != "beta" else (mse is None or math.isfinite(mse))
    for method, args in [("fisher_info", (theta0,)), ("standardize_scale", (theta0, n)),
                         ("target_sigma", (theta0,)), ("mle_from_stat", (stat, n))]:
        value = _package_outcome(lambda: getattr(entry, method)(*args))
        assert value is None or math.isfinite(value), (method, value)
    # target_sigma checks theta0 as fisher_info does, on every route
    if _package_outcome(lambda: entry.target_sigma(theta0)) is not None:
        assert _package_outcome(lambda: real(theta0, "theta0", **entry.theta0_limit)) is not None


# Each case calls one entry point with its real arguments passed through
# ``to``: a numpy scalar must give exactly what a plain float gives.  Every
# argument is exact in float16.
SCALAR_CASES = {
    "exp-canonical-theta0": lambda to: exp_canonical_ingredients(to(1.0), 10),
    "exp-noncanonical-theta0": lambda to: exp_noncanonical_ingredients(to(2.0), 10),
    "poisson-theta0": lambda to: poisson_bound(to(5.0), 20),
    "poisson-c": lambda to: poisson_bound(5.0, 20, c=to(2.0)),
    "beta-params": lambda to: beta_b3(BetaParams(to(1.5), to(2.0)), 12000),
    "registry-exp-canonical": lambda to: get_model("exp-canonical").distance_bound(to(1.5), 10),
    "registry-exp-noncanonical":
        lambda to: get_model("exp-noncanonical").distance_bound(to(1.5), 10),
    "registry-poisson": lambda to: get_model("poisson").distance_bound(to(1.5), 20),
    "registry-beta": lambda to: get_model("beta", beta=to(2.0)).distance_bound(to(1.5), 12000),
    "ci_offsets-alpha": lambda to: _ci_offsets(100, 1.0, to(0.25), 0.0625),
    "ci_coverage-alpha":
        lambda to: ci_coverage("exp-canonical", 1.0, 10**7, to(0.5), trials=10, seed=3),
    "std_normal_quantile": lambda to: std_normal_quantile(to(0.25)),
    "polygamma-x": lambda to: polygamma(1, to(0.75)),
    "inv_quadratic_expectation-scale": lambda to: inv_quadratic_expectation(to(0.5)),
    "beta-mle_from_stat": lambda to: get_model("beta", beta=2.0).mle_from_stat(to(-0.75), 3),
}


@pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_numpy_floating_scalar_gives_the_float_result(case, scalar):
    assert SCALAR_CASES[case](scalar) == SCALAR_CASES[case](float)


@pytest.mark.parametrize("int_type", [np.int8, np.int64, np.uint16])
def test_numpy_integer_trials_give_the_int_result(int_type):
    check = lambda trials: ci_coverage("exp-canonical", 1.0, 10**7, 0.5, trials=trials, seed=3)  # noqa: E731
    res = check(int_type(50))
    assert type(res.trials) is int
    assert res == check(50)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_numpy_scalar_audit_is_the_plain_json(model):
    n = 8000 if model == "beta" else 20
    audit = get_model(model, beta=np.float32(1.0)).audit(np.float32(1.5), np.int64(n))
    assert json.dumps(audit) == json.dumps(get_model(model).audit(1.5, n))


def test_dataclasses_store_plain_floats():
    f32 = np.float32
    ing = vars(BoundIngredients(f32(1.0), np.int64(10), *map(f32, (1, 2, 0.5, 1, 4, 0, 0.5)))).copy()
    assert type(ing.pop("n")) is int
    del ing["sup_third_is_deterministic"]
    h = TestFunction(abs, f32(0.5), 1)
    values = [
        *vars(BetaParams(f32(1.5), f32(2.0))).values(),
        *vars(ImplicitModelIngredients(*map(f32, (1, 2, 0, 3, 1, 1, 0.5)))).values(),
        *ing.values(),
        h.sup_norm,
        h.lip_norm,
    ]
    assert len(values) == 19 and all(type(v) is float for v in values)
    cfg = SimulationConfig("beta", f32(1.5), 12000, beta=f32(2.0), epsilon=f32(0.5), c=f32(2.0))
    assert all(type(v) is float for v in (cfg.theta0, cfg.beta, cfg.epsilon, cfg.c))
    # so a config equals the one built from the equal Python floats
    assert cfg == SimulationConfig("beta", 1.5, 12000, beta=2.0, epsilon=0.5, c=2.0)


# Each case passes a bool or a str where a real number goes; all raise DomainError.
REJECTED = {
    "theta0-True-exp": lambda: exp_canonical_ingredients(True, 10),
    "theta0-True-poisson": lambda: poisson_bound(True, 20),
    "theta0-True-beta": lambda: BetaParams(True, 2.0),
    "theta0-True-registry": lambda: get_model("exp-noncanonical").distance_bound(True, 10),
    "c-True-poisson": lambda: poisson_bound(5.0, 20, c=True),
    "epsilon-True-exp": lambda: exp_canonical_ingredients(2.0, 10, True),
    "epsilon-True-noncanonical": lambda: exp_noncanonical_ingredients(2.0, 10, True),
    "epsilon-inf-exp": lambda: exp_canonical_ingredients(2.0, 10, math.inf),
    "n-True-exp": lambda: exp_canonical_ingredients(1.0, True),
    "alpha-True-ci": lambda: _ci_offsets(100, 1.0, True, 0.0625),
    "alpha-True-coverage":
        lambda: ci_coverage("exp-canonical", 1.0, 10**7, True, trials=10, seed=3),
    "trials-True-coverage":
        lambda: ci_coverage("exp-canonical", 1.0, 10**7, 0.5, trials=True, seed=3),
    "quantile-str": lambda: std_normal_quantile("0.5"),
    "scale-True-expectation": lambda: normal_expectation(inv_quadratic_test_function(), True),
    "beta-True": lambda: BetaParams(1.5, True),
    "beta-True-registry": lambda: get_model("beta", beta=True),
    "beta-str-poisson-registry": lambda: get_model("poisson", beta="2"),
    "polygamma-True": lambda: polygamma(1, True),
    "epsilon-str-exp": lambda: exp_canonical_ingredients(1.0, 10, "0.5"),
    "expfam-theta0-str": lambda: exp_noncanonical_ingredients("1", 10),
    "theta0-str-config": lambda: SimulationConfig(model="poisson", theta0="abc", n=10),
}


@pytest.mark.parametrize("case", REJECTED)
def test_bool_and_str_are_not_numbers(case):
    with pytest.raises(DomainError):
        REJECTED[case]()


# -- the CLI ----------------------------------------------------------------


@pytest.mark.parametrize("verb", ["bound", "constants"])
@pytest.mark.parametrize("beta", ["1e-17", "1e-300"])
def test_beta_information_cancelling_to_zero_exits_3(verb, beta):
    # theta0 + beta rounds to theta0, so psi_1(theta0) - psi_1(theta0 + beta)
    # is 0 in float: a numerical failure, although every input is valid
    args = [verb, "--model", "beta", "--theta0", "1.5", "--beta", beta, "--n", "100000000"]
    result = CliRunner().invoke(main, args + ["--format", "json"])
    assert result.exit_code == 3
    err = json.loads(result.stderr)
    assert err["schema"] == "steinmle/error/v1"
    assert err["error"] == "FloatRangeError"
    assert "cancelled" in err["message"]


def test_exp_canonical_fourth_moment_at_large_n_exits_0():
    # the fourth central moment of 1/mean is a closed form: it no longer
    # cancels below 0 where theta0 is tiny and n huge
    args = ["bound", "--model", "exp-canonical", "--theta0", "1e-20", "--n", str(10**18)]
    result = CliRunner().invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["breakdown"]["total"] > 0.0


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("model,theta0,field", [
    ("exp-noncanonical", "1.1e77", "fourth_mle_moment"),
    ("exp-canonical", "1e-105", "third_abs_score_moment"),
])
def test_constants_ingredient_overflow_exits_3_in_every_format(model, theta0, field, fmt):
    # an ingredient that overflows to inf is refused by the audit itself, with
    # one message whatever the format, as the bound at the same inputs is
    args = ["constants", "--model", model, "--theta0", theta0, "--n", "10", "--format", fmt]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    message = json.loads(result.stderr)["message"] if fmt == "json" else result.stderr
    assert message.removeprefix("error: ").rstrip("\n") == (
        f"audit: field {field!r} overflowed to inf; the input lies outside the float range "
        "of this computation"
    )


# Sizes whose first array, or the sweep's list of n, cannot be allocated: each
# fails at once.
_HUGE = str(10**18)
TOO_LARGE = {
    "simulate": ["simulate", "--model", "exp-canonical", "--theta0", "1", "--n", "10",
                 "--trials", _HUGE],
    "table-1": ["table", "1", "--trials", _HUGE],
    "ci": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000",
           "--alpha", "0.9", "--trials", _HUGE],
    "mse-sweep": ["mse-sweep", "--n-from", "1", "--n-to", _HUGE],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", TOO_LARGE)
def test_size_too_large_to_allocate_exits_3(case, fmt):
    result = CliRunner().invoke(main, TOO_LARGE[case] + ["--format", fmt])
    assert result.exit_code == 3, result.output
    if fmt == "json":
        err = json.loads(result.stderr)
        assert err["schema"] == "steinmle/error/v1"
        assert err["error"] == "MemoryError"
        assert err["message"]
    else:
        assert result.stderr.startswith("error: ") and result.stderr.strip() != "error:"


# A trial count beyond one float64 array (2^60 and up) is refused before any
# draw; 10^18 is below that but beyond any memory, and a raw-sampled row
# allocates its array before its first block.  No count here can be allocated.
_TRIAL_COUNT_ARGS = {
    "simulate-poisson": ["simulate", "--model", "poisson", "--theta0", "5", "--n", "5"],
    "simulate-beta-2.5": ["simulate", "--model", "beta", "--theta0", "1.5", "--beta", "2.5",
                          "--n", "14816"],
    "table-1": ["table", "1"],
    "ci": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000", "--alpha", "0.9"],
    "mse-sweep-beta-2.5": ["mse-sweep", "--beta", "2.5", "--n-from", "14816", "--n-to", "14816"],
}


@pytest.mark.parametrize("trials", [10**18, 2**60, 2**63, 10**20])
@pytest.mark.parametrize("case", _TRIAL_COUNT_ARGS)
def test_trial_count_beyond_one_array_exits_3(case, trials):
    start = time.perf_counter()
    args = _TRIAL_COUNT_ARGS[case] + ["--trials", str(trials), "--format", "json"]
    result = CliRunner().invoke(main, args)
    assert time.perf_counter() - start < 10.0
    assert result.exit_code == 3, result.output
    err = json.loads(result.stderr)
    assert err["error"] == "MemoryError" and err["message"]


# ci refuses the count whether or not its interval is degenerate (the whole
# line, when nothing is drawn): the first interval here is, the second not.
_CI_ARGS = {
    "degenerate": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "1000",
                   "--alpha", "0.05"],
    "drawn": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000",
              "--alpha", "0.9"],
}


@pytest.mark.parametrize("trials", [2**60, 2**63, 10**20])
@pytest.mark.parametrize("case", _CI_ARGS)
def test_ci_trial_count_beyond_one_array_exits_3_degenerate_or_not(case, trials):
    result = CliRunner().invoke(main, _CI_ARGS[case] + ["--trials", str(trials), "--format", "json"])
    assert result.exit_code == 3, result.output
    err = json.loads(result.stderr)
    assert err["error"] == "MemoryError" and err["message"]


def test_degenerate_ci_at_ten_trials_exits_0():
    result = CliRunner().invoke(main, _CI_ARGS["degenerate"] + ["--trials", "10", "--format", "json"])
    assert result.exit_code == 0, result.output
    out = json.loads(result.stdout)
    assert out["degenerate"] is True and out["coverage"] == 1.0 and out["trials"] == 10


def test_sweep_below_minimal_n_names_the_first_and_the_count():
    args = ["mse-sweep", "--n-from", "1", "--n-to", "7460", "--trials", "2", "--format", "json"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    message = json.loads(result.stderr)["message"]
    assert message == "n below minimal n = 7460: 7459 of the n values, the smallest 1"


# A non-integer-shape Beta trial draws its n observations in pieces of
# BLOCK_OBS; past 2^16 pieces (n > 2^32) it is refused before any draw.
_RAW_TOO_LARGE = {
    "simulate": ["simulate", "--model", "beta", "--theta0", "1.5", "--beta", "2.5",
                 "--n", str(10**12), "--trials", "1"],
    "ci": ["ci", "--model", "beta", "--theta0", "1.5", "--beta", "2.5", "--n", str(10**12),
           "--trials", "1"],
    "mse-sweep": ["mse-sweep", "--beta", "2.5", "--n-from", str(2**32 + 1),
                  "--n-to", str(2**32 + 1), "--trials", "1"],
}


@pytest.mark.parametrize("case", _RAW_TOO_LARGE)
def test_raw_sample_trial_beyond_the_sampler_range_exits_2(case):
    start = time.perf_counter()
    result = CliRunner().invoke(main, _RAW_TOO_LARGE[case] + ["--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    err = json.loads(result.stderr)
    assert err["error"] == "DomainError"
    assert "exceeds the sampler's range 4294967296" in err["message"]


# Every verb that takes --workers refuses a count below 1 before drawing.
_WORKERS_ARGS = {
    "simulate": ["simulate", "--model", "beta", "--theta0", "1.5", "--beta", "2.5",
                 "--n", "14816", "--trials", "12"],
    "table-3": ["table", "3"],
    "ci": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000",
           "--alpha", "0.9", "--trials", "10"],
    "mse-sweep": ["mse-sweep", "--beta", "2.5", "--n-from", "14816", "--n-to", "14816",
                  "--trials", "12"],
}


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("case", _WORKERS_ARGS)
def test_workers_below_one_exits_2(case, workers):
    result = CliRunner().invoke(main, _WORKERS_ARGS[case] + ["--workers", workers, "--format", "json"])
    assert result.exit_code == 2, result.output
    err = json.loads(result.stderr)
    assert err["error"] == "DomainError"
    assert err["message"] == f"workers must be an integer >= 1, got {workers}"


# +-0, nan, +-inf, the float edges +-1.797e308 and 5e-324, and magnitudes
# log-uniform on [1e-300, 1e300] of either sign
_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.797e308, -1.797e308, 5e-324]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
)
_OPTIONAL = st.none() | _REALS
_NS = st.sampled_from([1, 2, 3, 10, 10**6, 10**18])


def _refuse_constant(name):
    raise AssertionError(f"{name} in the JSON output, which strict JSON cannot carry")


def _invoke(args, fmt):
    result = CliRunner().invoke(main, args + ["--format", fmt])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 2, 3), (args, result.output)
    if fmt == "json" and result.exit_code:
        assert json.loads(result.stderr)["schema"] == "steinmle/error/v1"
    elif fmt == "json":
        json.loads(result.stdout, parse_constant=_refuse_constant)


def _options(**values):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()
            if value is not None]


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_REALS, n=_NS, beta=_OPTIONAL, c=_OPTIONAL, epsilon=_OPTIONAL,
       h_sup=_OPTIONAL, h_lip=_OPTIONAL, fmt=st.sampled_from(["text", "json"]))
def test_bound_keeps_the_exit_code_contract(model, theta0, n, beta, c, epsilon, h_sup, h_lip, fmt):
    args = ["bound", "--model", model, f"--n={n}"] + _options(
        theta0=theta0, beta=beta, c=c, epsilon=epsilon, h_sup=h_sup, h_lip=h_lip
    )
    _invoke(args, fmt)


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_REALS, n=st.none() | _NS, beta=_OPTIONAL, epsilon=_OPTIONAL,
       fmt=st.sampled_from(["text", "json"]))
def test_constants_keeps_the_exit_code_contract(model, theta0, n, beta, epsilon, fmt):
    args = ["constants", "--model", model] + _options(theta0=theta0, n=n, beta=beta, epsilon=epsilon)
    _invoke(args, fmt)


# For Beta, integer shapes: the exact-law statistic costs the same at any n,
# and raw observations are drawn only where n < beta.
_SIM_BETAS = st.sampled_from([1.0, 2.0, 3.0, 4.0])
# Besides _REALS, theta0 log-uniform on [1e-3, 1e3], where most draws pass
# the checks and reach the samplers and estimators.
_SIM_THETA0 = st.one_of(_REALS, st.builds(lambda e: 10.0**e, st.floats(-3.0, 3.0)))


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_SIM_THETA0, n=_NS, beta=_SIM_BETAS, fmt=st.sampled_from(["text", "json", "csv"]))
def test_simulate_keeps_the_exit_code_contract(model, theta0, n, beta, fmt):
    args = ["simulate", "--model", model, f"--n={n}", "--trials=2"] + _options(
        theta0=theta0, beta=beta if model == "beta" else None
    )
    _invoke(args, fmt)


# Besides _OPTIONAL, alpha uniform on (0, 1), where the interval is defined.
_ALPHAS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _OPTIONAL)


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_SIM_THETA0, n=_NS, beta=_SIM_BETAS, alpha=_ALPHAS,
       fmt=st.sampled_from(["text", "json", "csv"]))
def test_ci_keeps_the_exit_code_contract(model, theta0, n, beta, alpha, fmt):
    args = ["ci", "--model", model, f"--n={n}", "--trials=2"] + _options(
        theta0=theta0, beta=beta if model == "beta" else None, alpha=alpha
    )
    _invoke(args, fmt)


# Sweep starts per known shape: the Beta(1.5, beta) minimal n, and for the
# integer shapes (whose statistic costs the same at any n) 10^6 and 10^18.  A
# non-integer shape draws n raw observations a trial, so it stays near its
# minimal n.
_SWEEP_STARTS = {1.0: (7460, 10**6, 10**18), 2.0: (11848, 10**6, 10**18), 2.5: (14816,)}


@given(theta0=_SIM_THETA0, beta=st.sampled_from(sorted(_SWEEP_STARTS)), start=st.integers(0, 2),
       steps=st.sampled_from([0, 1, 2, -1]), n_step=st.sampled_from([1, 10, 1000, 10**6, 0]),
       fmt=st.sampled_from(["text", "json", "csv"]))
def test_mse_sweep_keeps_the_exit_code_contract(theta0, beta, start, steps, n_step, fmt):
    # n-to lies 0 to 2 steps past n-from (at most three rows) or one below it
    starts = _SWEEP_STARTS[beta]
    n_from = starts[start % len(starts)]
    n_to = n_from + steps * max(n_step, 1)
    args = ["mse-sweep", f"--n-from={n_from}", f"--n-to={n_to}", f"--n-step={n_step}",
            "--trials=2"] + _options(theta0=theta0, beta=beta)
    _invoke(args, fmt)


# A reader that has gone before the output is written (as ``| head -1`` can
# leave it) gets no traceback: the CLI exits 141, the shell's code for a
# process killed by SIGPIPE.
_CLOSED_PIPE_ARGS = {
    "bound": ["bound", "--model", "poisson", "--theta0", "5", "--n", "50"],
    "table-1": ["table", "1", "--trials", "10"],
}


@pytest.mark.parametrize("case", _CLOSED_PIPE_ARGS)
def test_closed_stdout_exits_141_without_a_traceback(case):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(steinmle.__file__)))
    try:
        result = subprocess.run([sys.executable, "-m", "steinmle.cli", *_CLOSED_PIPE_ARGS[case]],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""
