"""The error contract at every public entry point.

A value that leaves the float range raises ``FloatRangeError``, which is a
``SteinMLEError`` and an ``ArithmeticError`` (the CLI's exit 3).  A numpy
scalar is a number like any other and gives what the plain-Python call gives;
``bool`` and ``str`` are not numbers and raise ``DomainError`` (exit 2).  The
CLI answers every input with exit 0, 2 or 3 and, with ``--format json``, a
``steinmle/error/v1`` object for each error.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from steinmle.boundary import PerturbationSpec, PerturbedScoreStats, poisson_bound
from steinmle.cli import main
from steinmle.errors import DomainError, FloatRangeError, SteinMLEError
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.montecarlo import ci_coverage
from steinmle.msebound import BetaParams, ImplicitModelIngredients, beta_b3, beta_ingredients
from steinmle.registry import MODEL_NAMES, get_model
from steinmle.specfun import (
    inv_quadratic_expectation,
    normal_expectation,
    polygamma,
    std_normal_quantile,
)
from steinmle.steincore import BoundIngredients, TestFunction, _ci_offsets


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
    spec = vars(PerturbationSpec(f32(0.0), f32(1.0), f32(0.5), np.int64(10))).copy()
    ing = vars(BoundIngredients(f32(1.0), np.int64(10), *map(f32, (1, 2, 0.5, 1, 4, 0, 0.5)))).copy()
    assert type(spec.pop("n")) is int and type(ing.pop("n")) is int
    del ing["sup_third_is_deterministic"]
    h = TestFunction(abs, f32(0.5), 1)
    values = [
        *vars(BetaParams(f32(1.5), f32(2.0))).values(),
        *spec.values(),
        *vars(PerturbedScoreStats(f32(0.0), f32(1.0), f32(2.0))).values(),
        *vars(ImplicitModelIngredients(*map(f32, (1, 2, 0, 3, 1, 1, 0.5)))).values(),
        *ing.values(),
        h.sup_norm,
        h.lip_norm,
    ]
    assert len(values) == 25 and all(type(v) is float for v in values)


# Each case passes a bool or a str where a real number goes; all raise DomainError.
REJECTED = {
    "theta0-True-exp": lambda: exp_canonical_ingredients(True, 10),
    "theta0-True-poisson": lambda: poisson_bound(True, 20),
    "theta0-True-beta": lambda: BetaParams(True, 2.0),
    "theta0-True-registry": lambda: get_model("exp-noncanonical").distance_bound(True, 10),
    "c-True-poisson": lambda: poisson_bound(5.0, 20, c=True),
    "c-True-spec": lambda: PerturbationSpec(0.0, 1.0, True, 10),
    "epsilon-True-exp": lambda: exp_canonical_ingredients(2.0, 10, True),
    "epsilon-True-beta": lambda: beta_ingredients(BetaParams(1.5, 2.0), True),
    "epsilon-True-noncanonical": lambda: exp_noncanonical_ingredients(2.0, 10, True),
    "epsilon-inf-exp": lambda: exp_canonical_ingredients(2.0, 10, math.inf),
    "n-True-exp": lambda: exp_canonical_ingredients(1.0, True),
    "alpha-True-ci": lambda: _ci_offsets(100, 1.0, True, 0.0625),
    "alpha-True-coverage":
        lambda: ci_coverage("exp-canonical", 1.0, 10**7, True, trials=10, seed=3),
    "trials-True-coverage":
        lambda: ci_coverage("exp-canonical", 1.0, 10**7, 0.5, trials=True, seed=3),
    "quantile-str": lambda: std_normal_quantile("0.5"),
    "scale-True-expectation": lambda: normal_expectation(abs, True),
    "beta-True": lambda: BetaParams(1.5, True),
    "beta-True-registry": lambda: get_model("beta", beta=True),
    "polygamma-True": lambda: polygamma(1, True),
    "epsilon-str-exp": lambda: exp_canonical_ingredients(1.0, 10, "0.5"),
    "epsilon-str-beta": lambda: beta_ingredients(BetaParams(1.5, 2.0), "0.5"),
    "endpoint-str-a": lambda: PerturbationSpec("0.5", 1.0, 0.5, 10),
    "endpoint-str-b": lambda: PerturbationSpec(0.0, "0.5", 0.5, 10),
    "expfam-theta0-str": lambda: exp_noncanonical_ingredients("1", 10),
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


# Sizes whose first array, or the sweep's list of n, cannot be allocated: each
# fails at once.  (Non-integer-shape Beta and --workers > 1 draw block by
# block, so at such sizes they would fill memory first; they are not run.)
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


# +-0, nan, +-inf, and magnitudes log-uniform on [1e-300, 1e300] of either sign
_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
)
_OPTIONAL = st.none() | _REALS
_NS = st.sampled_from([1, 2, 3, 10, 10**6, 10**18])


def _invoke(args, fmt):
    result = CliRunner().invoke(main, args + ["--format", fmt])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 2, 3), (args, result.output)
    if fmt == "json" and result.exit_code:
        assert json.loads(result.stderr)["schema"] == "steinmle/error/v1"


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
