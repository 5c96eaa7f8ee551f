"""The error contract, stated once: at every public callable and at the CLI.

The library.  ``ROWS`` holds a row for each callable in ``steinmle.__all__``
and ``steinmle.montecarlo.__all__`` (the error classes aside) and for each
public ``registry.Model`` method.  A row lists the callable's parameters as
(name, kind) pairs, the name being the one a refusal's message gives, and
one or more tuples of plain, valid arguments.  From the rows:

* a call with arguments drawn by kind returns a finite documented value or
  raises a ``SteinMLEError``, within a time bound;
* each value a kind refuses (bool and str for a number, another type for a
  value type) is a ``DomainError`` naming the parameter;
* a numpy scalar in place of a plain number gives the plain call's result,
  repr included, so that no numpy type leaks into a value or an audit;
* a value type's row adds its repr, a field to change and the order its
  fields are checked in.  ``SimulationReport`` and ``CoverageResult`` are
  output types, which store what the harness gives them: only their
  value-type checks run.

The one documented non-finite value is a ``BoundIngredients`` moment bound,
which may be inf: one passed in as inf, one that overflowed in an ingredient
builder, or the exp-canonical fourth estimator moment below n = 5.

The CLI.  ``CLI_ERRORS`` holds a row per failing invocation: its arguments,
exit code, error class and a fragment of its message, run in every format.
Hypothesis drives every verb with extreme magnitudes, and every answer is
exit 0, 2 or 3, with a ``steinmle/error/v1`` object on stderr for a JSON
error; a closed stdout exits 141.

Only numpy, pytest and hypothesis are needed, not mpmath.
"""

import copy
import functools
import json
import math
import operator
import os
import pickle
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmle
from steinmle import (
    BetaParams,
    BoundBreakdown,
    BoundIngredients,
    DomainError,
    FloatRangeError,
    ImplicitModelIngredients,
    SteinMLEError,
    TestFunction,
    errors,
    montecarlo,
)
from steinmle._validate import Value, real
from steinmle.cli import main
from steinmle.montecarlo import SimulationConfig, SimulationReport
from steinmle.montecarlo._pykernels import BACKEND_NAME, RNG_ALGORITHM
from steinmle.registry import MODEL_NAMES, Model, get_model
from steinmle.specfun import inv_quadratic_expectation

# -- one strategy per parameter kind -------------------------------------------

# Where a power of theta0 leaves the float range: theta0**2 overflows above
# SQUARE_OVERFLOWS (~1.34e154), and theta0**3 is subnormal below
# CUBE_SUBNORMAL (~2.8e-103).
SQUARE_OVERFLOWS = math.sqrt(sys.float_info.max)
CUBE_SUBNORMAL = sys.float_info.min ** (1.0 / 3.0)

# Positive magnitudes, log-uniform from the subnormals to 1e308.
MAGNITUDES = st.builds(lambda e: 10.0**e, st.floats(-323.5, 308.0))
# Plain floats: magnitudes of either sign, and the edges of the float range
# and of the powers of theta0, NaN and the infinities.
FLOATS = st.one_of(
    MAGNITUDES,
    MAGNITUDES.map(operator.neg),
    st.floats(5e-324, sys.float_info.min),
    st.floats(0.999, 1.001).map(lambda f: SQUARE_OVERFLOWS * f),
    st.floats(0.2, 5.0).map(lambda f: CUBE_SUBNORMAL * f),
    st.floats(1e-163, 1e-154),  # theta0**2 subnormal, its reciprocal inf, theta0**3 zero
    st.sampled_from([0.0, -0.0, 5e-324, 1.797e308, -1.797e308, sys.float_info.max,
                     math.nextafter(SQUARE_OVERFLOWS, math.inf), math.nan, math.inf, -math.inf]),
)
# Real numbers as a caller may pass them: plain floats, numpy scalars, ints
# (10**400 beyond the float range), and what is not a real number.
REALS = st.one_of(
    FLOATS,
    MAGNITUDES.map(np.float64),
    MAGNITUDES.map(np.longdouble),
    st.builds(lambda e: np.float32(10.0**e), st.floats(-45.0, 38.5)),
    st.sampled_from([-1.0, 1.0, 2, np.int64(3), np.uint16(2), 10**400, True, False, "1.5", None]),
)
# Sizes: small ones (the canonical MSE needs n >= 3, its fourth moment
# n >= 5), up to 10^400, numpy integers, and what is not a size.
SIZES = st.one_of(
    st.integers(1, 6),
    st.integers(1, 10**6),
    st.builds(lambda e: 10**e + 1, st.integers(6, 400)),
    st.integers(1, 10**6).map(np.int64),
    st.sampled_from([2**53 + 1, 2**63, np.uint16(7), np.int8(4), 0, -3, True, "10", 10.0, None]),
)
# Trial and worker counts: few, so that a drawn row stays quick.
COUNTS = st.one_of(st.integers(1, 3), st.integers(1, 3).map(np.int64),
                   st.sampled_from([0, -1, True, "2", 2.0, None]))
SEEDS = st.one_of(st.integers(0, 2**128 - 1), st.integers(0, 10**6).map(np.uint64),
                  st.sampled_from([2**128, -1, True, "3", 1.5, None]))
# h weights: a pair of reals, often ordinary ones, or not a pair.
_WEIGHT = st.floats(0.0, 10.0) | REALS
WEIGHTS = st.one_of(st.tuples(_WEIGHT, _WEIGHT),
                    st.sampled_from([(1.0,), (1.0, 1.0, 1.0), "ab", 5, None, [0.5, 0.25]]))

# Value types, built from positive magnitudes (their constructors are rows
# of their own).  Drawn rows take an integer Beta shape m, so that a trial
# draws m gammas, not n raw observations.
_POSITIVE = MAGNITUDES | MAGNITUDES.map(np.float64)
_MOMENTS = _POSITIVE | st.sampled_from([math.inf, 0.0])
_SHAPES = st.sampled_from([1.0, 2.0, 3.0])
_H = st.sampled_from([steinmle.inv_quadratic_test_function(),
                      TestFunction(abs, 0.5, 1.0)])  # the second carries no E h
_SIZE = st.integers(1, 10**6) | st.builds(lambda e: 10**e + 1, st.integers(6, 400))
_BOUND_INGREDIENTS = st.builds(BoundIngredients, _POSITIVE, st.integers(1, 10**6), _POSITIVE,
                               *[_MOMENTS] * 5, _POSITIVE, st.booleans())
_IMPLICIT = st.builds(ImplicitModelIngredients, _POSITIVE, _POSITIVE, _POSITIVE | st.just(0.0),
                      *[_POSITIVE] * 4)
# A config takes an epsilon in (0, theta0) on the exponential routes only, and
# a c other than "auto" on the poisson route only.
_CONFIG_REST = (_SIZE, st.integers(1, 3), st.integers(0, 2**128 - 1), st.none() | _H, _SHAPES)
_CONFIG = (st.builds(SimulationConfig, st.sampled_from(MODEL_NAMES), _POSITIVE, *_CONFIG_REST)
           | st.builds(SimulationConfig, st.sampled_from(MODEL_NAMES[:2]), st.just(2.0), *_CONFIG_REST,
                       st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
           | st.builds(SimulationConfig, st.just("poisson"), _POSITIVE, *_CONFIG_REST, st.none(),
                       _POSITIVE))

_FLOAT_TYPES = (np.float16, np.float32, np.float64, np.longdouble)
_INT_TYPES = (np.int8, np.int64, np.uint16)


class Kind:
    """A parameter kind: the strategy its arguments are drawn from, the values
    it refuses (each a DomainError whose message matches ``pattern`` with the
    parameter's name filled in), and the numpy scalar types that must give
    what a plain value gives."""

    def __init__(self, strategy, refused=(), numpy_types=(), pattern="{name}"):
        self.strategy, self.refused, self.numpy_types = strategy, refused, numpy_types
        self.pattern = pattern


def _value_kind(built, other):
    """A value-type parameter: a built value, or a value of another type."""
    wrong = (5, 1.5, "x", None, (1.0, 2.0), other)
    return Kind(built | st.sampled_from(wrong), wrong, pattern="^{name} must be of type ")


_B = BetaParams(1.5, 2.0)
# Neither a number nor a pair: a 0-d array, a 1-d array and None.
_ARRAYS_AND_NONE = (np.array(1.0), np.array([1.0, 2.0]), None)
REAL = Kind(REALS, (True, "1.5", *_ARRAYS_AND_NONE), _FLOAT_TYPES)
EPSILON = Kind(st.none() | REALS, (True, "1.5", math.inf, *_ARRAYS_AND_NONE[:2]), _FLOAT_TYPES)
C = Kind(st.just("auto") | REALS, (True, "1.5", "AUTO", 0.0, -2.0, *_ARRAYS_AND_NONE), _FLOAT_TYPES,
         pattern="^c must be")
ALPHA = Kind(REALS | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
             (True, "0.5", 0.0, 1.2, *_ARRAYS_AND_NONE), _FLOAT_TYPES)
SHAPE = Kind(_SHAPES | st.sampled_from([0.0, -1.0, math.nan, True, "2"]),
             (True, "2.0", *_ARRAYS_AND_NONE), _FLOAT_TYPES)
SIZE = Kind(SIZES, (True, "10", 10.0, 0, *_ARRAYS_AND_NONE), _INT_TYPES)
ORDER = Kind(st.integers(-1, 5) | SIZES, (True, "1", 1.0, *_ARRAYS_AND_NONE), _INT_TYPES)
COUNT = Kind(COUNTS, (True, "2", 2.5, 0, -5, *_ARRAYS_AND_NONE), _INT_TYPES)
SEED = Kind(SEEDS, (True, "3", 1.5, -1, np.int64(-1), 2**128, *_ARRAYS_AND_NONE), _INT_TYPES)
# Model.audit's n, None for the Beta model's audit without an n, and
# Model.mle_from_stat's statistic, a real number or a float64 row.
AUDIT_N = Kind(SIZES, tuple(v for v in SIZE.refused if v is not None), _INT_TYPES)
STATISTIC = Kind(REALS, (True, "1.5", _ARRAYS_AND_NONE[0], np.array([1, 2]), None), _FLOAT_TYPES)
MODEL = Kind(st.sampled_from([*MODEL_NAMES, "weibull", None]), ("weibull", None))
PAIR = Kind(WEIGHTS, ((1.0,), 5, (1.0, 1.0, 1.0), *_ARRAYS_AND_NONE), pattern="^h_weights must be")
FLAG = Kind(st.booleans())
TEXT = Kind(st.text(max_size=3))
IGNORED = Kind(REALS)
TERMS = Kind(
    st.lists(st.tuples(st.text(max_size=3), REALS), max_size=4).map(tuple)
    | st.sampled_from([5, "ab", ((1, 2, 3),), (("a",),), None]),
    (5, (("a", True),), (("a", "0.5"),), (("a", "x"),), ((1, 2, 3),), (("a",),)),
    pattern="^breakdown term",
)
EVALUATOR = Kind(st.sampled_from([abs, None, 1.0]), (None, 1.0))
EXPECTATION = Kind(st.sampled_from([None, inv_quadratic_expectation, 1.0]), (1.0,))
H = Kind(_H | st.sampled_from([abs, 1.0, "h"]), (abs, 1.0, "h", None))
H_OR_NONE = Kind(st.none() | _H | st.sampled_from([abs, "h"]), (5, abs, "h", _B),
                 pattern="^{name} must be of type ")
N_VALUES = Kind(st.none() | st.lists(SIZES, max_size=3) | st.sampled_from([5, "ab"]),
                (5, 2.5, "ab"))
SWEEP_NS = Kind(st.lists(SIZES, max_size=3) | st.sampled_from([5, None]), (5, None, "ab"))
FIRSTS = Kind(st.none() | st.lists(st.integers(0, 2**128), max_size=3) | st.just(5), (5, "ab"))
TARGET = Kind(st.sampled_from(["distance", "mse", "x", None]), ("x", None))
ING = _value_kind(_BOUND_INGREDIENTS, _B)
IMPLICIT = _value_kind(_IMPLICIT, _B)
_NOT_PARAMS = ImplicitModelIngredients(1, 1, 0, 1, 1, 1, 0.5)
PARAMS = _value_kind(st.builds(BetaParams, _POSITIVE, _POSITIVE | _SHAPES), _NOT_PARAMS)
DRAWN_PARAMS = _value_kind(st.builds(BetaParams, _POSITIVE, _SHAPES), _NOT_PARAMS)
CONFIG = _value_kind(_CONFIG, _B)
ENTRY = Kind(st.builds(get_model, st.sampled_from(MODEL_NAMES), st.sampled_from([1.0, 2.0, 2.5])))


# -- one row per callable --------------------------------------------------------


class Row:
    """A public callable's parameters as (name, kind) pairs, and tuples of
    plain arguments; ``keywords`` names the parameters passed by keyword.  A
    value type's row also holds its repr (``shown``), a field to change to
    another valid value, and ``invalid``: every field invalid at once, then
    the fields in the order they are checked, each with a valid value and
    the start of its message.  An ``output`` row takes only the value-type
    checks."""

    def __init__(self, params, *plains, keywords=(), shown=None, changed=None, invalid=None,
                 output=False):
        self.params, self.plains, self.keywords = params, plains, keywords
        self.shown, self.changed, self.invalid, self.output = shown, changed, invalid, output

    @property
    def fields(self):
        """The first plain arguments by parameter name."""
        return {name: value for (name, _), value in zip(self.params, self.plains[0])}

    def call(self, args):
        named = list(zip((name for name, _ in self.params), args))
        return self.fn(*(arg for name, arg in named if name not in self.keywords),
                       **{name: arg for name, arg in named if name in self.keywords})


def _output(*names):
    return [(name, None) for name in names]


_H_ABS = TestFunction(abs, 0.5, 0.25, "abs")
_H_REPR = ("TestFunction(evaluator=<built-in function abs>, sup_norm=0.5, lip_norm=0.25, "
           "label='abs', gaussian_expectation=None)")
_TERMS = (("a", 0.25), ("b", 0.5))
_ING = BoundIngredients(1.0, 10, 2.0, 3.0, 0.125, 0.0625, 4.0, 0.5, 0.5, True)
_BETA_ING = steinmle.beta_ingredients(_B)  # minimal n 11848
_CFG = SimulationConfig("poisson", 5.0, 20, trials=10, seed=3)
# A Model of each name, the Beta one at shape 2, with a (theta0, n) where its bound exists.
_ENTRIES = [(get_model(name, 2.0), 1.5, 12000) if name == "beta" else (get_model(name), 1.5, 20)
            for name in MODEL_NAMES]
_STATS = {"exp-canonical": 0.5, "exp-noncanonical": 0.5, "poisson": 0.5, "beta": -0.75}

_THETA0_N = [("theta0", REAL), ("n", SIZE)]
ROWS = {
    "polygamma": Row([("polygamma order", ORDER), ("polygamma argument", REAL)], (1, 0.75)),
    "std_normal_quantile": Row([("quantile argument", REAL)], (0.25,)),
    "normal_expectation": Row([("h", H), ("scale", REAL)],
                              (steinmle.inv_quadratic_test_function(), 0.5)),
    "TestFunction": Row(
        [("evaluator", EVALUATOR), ("sup_norm", REAL), ("lip_norm", REAL), ("label", TEXT),
         ("gaussian_expectation", EXPECTATION)],
        (abs, 0.5, 0.25, "abs", None),
        shown=_H_REPR,
        changed=("lip_norm", 0.125),
        invalid=(
            dict(evaluator=3, sup_norm=-1.0, lip_norm=-1.0, gaussian_expectation=3),
            [("evaluator", abs, "TestFunction.evaluator must be callable"),
             ("gaussian_expectation", None, "TestFunction.gaussian_expectation must be callable"),
             ("sup_norm", 0.5, "sup_norm must be a finite real >= 0"),
             ("lip_norm", 0.5, "lip_norm must be a finite real >= 0")],
        ),
    ),
    "inv_quadratic_test_function": Row([], ()),
    "BoundIngredients": Row(
        [*_THETA0_N, ("fisher_info", REAL), ("third_abs_score_moment", REAL), ("mse", REAL),
         ("fourth_mle_moment", REAL), ("sup_third_deriv", REAL), ("r2_conditional_bound", REAL),
         ("epsilon", REAL), ("sup_third_is_deterministic", FLAG)],
        tuple(vars(_ING).values()),
        shown="BoundIngredients(theta0=1.0, n=10, fisher_info=2.0, third_abs_score_moment=3.0, "
              "mse=0.125, fourth_mle_moment=0.0625, sup_third_deriv=4.0, "
              "r2_conditional_bound=0.5, epsilon=0.5, sup_third_is_deterministic=True)",
        changed=("sup_third_is_deterministic", False),
        invalid=(
            dict(theta0=math.nan, n=0, fisher_info=0.0, third_abs_score_moment=-1.0, mse=-1.0,
                 fourth_mle_moment=-1.0, sup_third_deriv=-1.0, r2_conditional_bound=-1.0,
                 epsilon=0.0),
            [("n", 10, "n must be an integer >= 1, got 0"),
             ("theta0", 1.0, "theta0 must be a finite real, got nan"),
             ("fisher_info", 1.0, "fisher_info must be a finite real > 0"),
             ("third_abs_score_moment", 1.0, "third_abs_score_moment must be a real >= 0"),
             ("mse", 1.0, "mse must be a real >= 0"),
             ("fourth_mle_moment", 1.0, "fourth_mle_moment must be a real >= 0"),
             ("sup_third_deriv", 1.0, "sup_third_deriv must be a real >= 0"),
             ("r2_conditional_bound", 1.0, "r2_conditional_bound must be a real >= 0"),
             ("epsilon", 0.5, "epsilon must be a finite real > 0")],
        ),
    ),
    "BoundBreakdown": Row(
        [("terms", TERMS), ("total", IGNORED)], (_TERMS, 0.75),
        shown="BoundBreakdown(terms=(('a', 0.25), ('b', 0.5)), total=0.75)",
        changed=("terms", (("a", 0.25),)),
        invalid=(
            dict(terms=(("a", 0.5), ("b", -1.0), ("c", math.nan))),
            [("terms", (("a", 0.5), ("c", math.nan)), "breakdown term 'b' is negative: -1.0"),
             ("terms", (("a", 0.5),), "breakdown term 'c' is NaN")],
        ),
    ),
    "score_bound": Row([("ing", ING), ("h_weights", PAIR)], (_ING, (1.0, 1.0))),
    "mle_bound_general": Row([("ing", ING), ("h_weights", PAIR)], (_ING, (1.0, 1.0))),
    "kolmogorov_from_bw": Row([("bounded Wasserstein bound", REAL), ("sigma", REAL)], (0.25, 2.0)),
    "exp_canonical_ingredients": Row([*_THETA0_N, ("epsilon", EPSILON)],
                                     (1.0, 10, None), (2.0, 10, 0.5)),
    "exp_noncanonical_ingredients": Row([*_THETA0_N, ("epsilon", EPSILON)],
                                        (2.0, 10, None), (2.0, 10, 0.5)),
    "poisson_bound": Row([*_THETA0_N, ("c", C)], (5.0, 20, "auto"), (5.0, 20, 2.0)),
    "ImplicitModelIngredients": Row(
        [("fisher_info", REAL), ("third_abs_score_moment", REAL), ("var_l2", REAL),
         ("c1_const", REAL), ("sup_x_norm", REAL), ("sup_x2_norm", REAL), ("epsilon", REAL)],
        (1.0, 2.0, 0.0, 3.0, 1.0, 1.0, 0.5),
        shown="ImplicitModelIngredients(fisher_info=1.0, third_abs_score_moment=2.0, var_l2=0.0, "
              "c1_const=3.0, sup_x_norm=1.0, sup_x2_norm=1.0, epsilon=0.5)",
        changed=("epsilon", 0.25),
        invalid=(
            dict(fisher_info=0.0, third_abs_score_moment=0.0, var_l2=-1.0, c1_const=0.0,
                 sup_x_norm=0.0, sup_x2_norm=0.0, epsilon=0.0),
            [("fisher_info", 1.0, "fisher_info must be a finite real > 0"),
             ("third_abs_score_moment", 1.0, "third_abs_score_moment must be a finite real > 0"),
             ("var_l2", 0.0, "var_l2 must be a finite real >= 0"),
             ("c1_const", 1.0, "c1_const must be a finite real > 0"),
             ("sup_x_norm", 1.0, "sup_x_norm must be a finite real > 0"),
             ("sup_x2_norm", 1.0, "sup_x2_norm must be a finite real > 0"),
             ("epsilon", 0.5, "epsilon must be a finite real > 0")],
        ),
    ),
    "BetaParams": Row(
        [("theta0", REAL), ("beta", REAL)], (1.5, 2.0),
        shown="BetaParams(theta0=1.5, beta=2.0)",
        changed=("beta", 3.0),
        invalid=(dict(theta0=0.0, beta=0.0),
                 [("theta0", 1.5, "theta0 must be a finite real > 0, got 0.0"),
                  ("beta", 2.0, "beta must be a finite real > 0, got 0.0")]),
    ),
    "minimal_n": Row([("ing", IMPLICIT)], (_BETA_ING,)),
    "mse_upper_bound_a1": Row([("ing", IMPLICIT), ("n", SIZE)], (_BETA_ING, 12000)),
    "implicit_distance_bound": Row([("ing", IMPLICIT), ("n", SIZE)], (_BETA_ING, 12000)),
    "beta_ingredients": Row([("p", PARAMS)], (_B,)),
    "beta_b3": Row([("p", PARAMS), ("n", SIZE)], (_B, 12000)),
    "beta_distance_bound": Row([("p", PARAMS), ("n", SIZE)], (_B, 12000)),
    "get_model": Row([("model", MODEL), ("beta", REAL)], *[(name, 2.0) for name in MODEL_NAMES]),
    # steinmle.montecarlo
    "SimulationConfig": Row(
        [("model", MODEL), *_THETA0_N, ("trials", COUNT), ("seed", SEED),
         ("test_function", H_OR_NONE), ("beta", REAL), ("epsilon", EPSILON), ("c", C),
         ("workers", COUNT)],
        ("poisson", 5.0, 20, 10, 3, _H_ABS, 1.0, None, 2.5, 2),
        ("beta", 1.5, 12000, 10, 0, None, 2.0, None, "auto", 1),
        ("exp-canonical", 1.5, 20, 10, 0, None, 1.0, 0.5, "auto", 1),
        shown=f"SimulationConfig(model='poisson', theta0=5.0, n=20, trials=10, seed=3, "
              f"test_function={_H_REPR}, beta=1.0, epsilon=None, c=2.5, workers=2)",
        changed=("seed", 4),
        invalid=(
            dict(model="weibull", theta0="1", n=0, trials=0, seed=-1, test_function=5, beta=0.0,
                 epsilon=math.inf, c=True, workers=0),
            [("model", "poisson", "model must be one of"),
             ("n", 20, "n must be an integer >= 1, got 0"),
             ("trials", 10, "trials must be an integer >= 1, got 0"),
             ("workers", 1, "workers must be an integer >= 1, got 0"),
             ("seed", 0, "seed must be an integer >= 0, got -1"),
             ("beta", 1.0, "beta must be a finite real > 0, got 0.0"),
             ("theta0", -1.0, "theta0 must be a finite real >= 0, got '1'"),
             ("theta0", 1.0, "theta0 must be a finite real >= 0, got -1.0"),
             ("test_function", None, "test_function must be of type TestFunction, got 5"),
             ("epsilon", None, "epsilon must be a finite real > 0, got inf"),
             ("c", "auto", "c must be a finite real > 0, got True")],
        ),
    ),
    "run_rows": Row(
        [("cfg", CONFIG), ("n_values", N_VALUES), ("first_trials", FIRSTS), ("target", TARGET)],
        (_CFG, [20, 50], [0, 10], "distance"),
        keywords=("first_trials", "target"),
    ),
    "run_simulation": Row([("cfg", CONFIG)], (_CFG,)),
    "run_mse_sweep": Row(
        [("params", DRAWN_PARAMS), ("n_values", SWEEP_NS), ("trials", COUNT), ("seed", SEED),
         ("workers", COUNT)],
        (_B, [11848], 5, 3, 1),
    ),
    "ci_coverage": Row(
        [("model", MODEL), *_THETA0_N, ("alpha", ALPHA), ("trials", COUNT), ("seed", SEED),
         ("beta", SHAPE), ("workers", COUNT)],
        ("exp-canonical", 1.0, 10**7, 0.5, 10, 3, 1.0, 1),
        ("exp-canonical", 1.0, 1000, 0.25, 10, 3, 1.0, 1),  # the interval is the whole line
        keywords=("beta", "workers"),
    ),
    "active_backend": Row([], ()),
    "SimulationReport": Row(
        _output("model", "theta0", "n", "trials", "seed", "empirical_distance", "empirical_mse",
                "bound_total", "bound_terms", "standard_error", "expected_h", "target",
                "rng_algorithm", "backend"),
        ("poisson", 5.0, 20, 10, 0, 0.1, 0.2, 0.75, BoundBreakdown(_TERMS), None, 0.4, "mse", "r",
         "b"),
        shown="SimulationReport(model='poisson', theta0=5.0, n=20, trials=10, seed=0, "
              "empirical_distance=0.1, empirical_mse=0.2, bound_total=0.75, "
              "bound_terms=BoundBreakdown(terms=(('a', 0.25), ('b', 0.5)), total=0.75), "
              "standard_error=None, expected_h=0.4, target='mse', rng_algorithm='r', backend='b')",
        changed=("standard_error", 0.01),
        output=True,
    ),
    "CoverageResult": Row(
        _output("coverage", "trials", "b_k", "degenerate", "alpha"),
        (0.5, 10, 0.1, False, 0.05),
        shown="CoverageResult(coverage=0.5, trials=10, b_k=0.1, degenerate=False, alpha=0.05)",
        changed=("degenerate", True),
        output=True,
    ),
    # registry.Model, each method at each model
    "Model.distance_bound": Row(
        [("self", ENTRY), *_THETA0_N, ("h_weights", PAIR), ("epsilon", EPSILON), ("c", C)],
        *[(*entry, (1.0, 1.0), None, "auto") for entry in _ENTRIES],
        (get_model("exp-canonical"), 1.5, 100, (1.0, 1.0), 0.5, "auto"),
        (get_model("poisson"), 1.5, 100, (1.0, 1.0), None, 2.0),
    ),
    "Model.mse_bound": Row([("self", ENTRY), *_THETA0_N], _ENTRIES[-1]),  # None off the Beta model
    "Model.audit": Row([("self", ENTRY), ("theta0", REAL), ("n", AUDIT_N), ("epsilon", EPSILON)],
                       *[(*entry, None) for entry in _ENTRIES]),
    "Model.fisher_info": Row([("self", ENTRY), ("theta0", REAL)], *[e[:2] for e in _ENTRIES]),
    "Model.standardize_scale": Row([("self", ENTRY), *_THETA0_N], *_ENTRIES),
    "Model.target_sigma": Row([("self", ENTRY), ("theta0", REAL)], *[e[:2] for e in _ENTRIES]),
    "Model.mle_from_stat": Row([("self", ENTRY), ("statistic", STATISTIC), ("n", SIZE)],
                               *[(e[0], _STATS[e[0].name], 3) for e in _ENTRIES]),
}
for _name, _row in ROWS.items():  # a row calls the public name it is keyed by
    _owner, _, _attr = _name.rpartition(".")
    _row.fn = getattr(Model if _owner else montecarlo if _name in montecarlo.__all__ else steinmle,
                      _attr)
CONTRACT = [name for name, row in ROWS.items() if not row.output]
VALUE_TYPES = [name for name, row in ROWS.items() if row.shown]

# A second is far beyond any of these calls; a call that loops or allocates
# without bound takes longer.
TIME_BOUND_S = 1.0
_MOMENT_FIELDS = frozenset(
    ["third_abs_score_moment", "mse", "fourth_mle_moment", "sup_third_deriv", "r2_conditional_bound"]
)


def assert_finite(value, where):
    """Every float in ``value`` is finite, a ``BoundIngredients`` moment bound
    aside: a number, or nested dicts, lists, tuples, value types and models."""
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, (where, key))
    elif isinstance(value, (list, tuple)):
        for item in value:
            assert_finite(item, where)
    elif isinstance(value, Value):
        moments = _MOMENT_FIELDS if isinstance(value, BoundIngredients) else ()
        for name, item in value._field_items():
            if not (name in moments and item == math.inf):
                assert_finite(item, (where, name))
    elif isinstance(value, Model):
        assert_finite(value.beta, (where, "beta"))
    else:  # an int, a str, a label, a callable field, or a None field
        assert value is None or isinstance(value, (int, str)) or callable(value), where


def outcome(call, where=None):
    """What ``call`` returns, checked with ``assert_finite``, or the
    ``SteinMLEError`` it raises, within the time bound; any other error
    propagates."""
    start = time.perf_counter()
    try:
        value = call()
    except SteinMLEError as exc:
        value = exc
    else:
        assert_finite(value, where)
    assert time.perf_counter() - start < TIME_BOUND_S, where
    return value


# -- the library -------------------------------------------------------------------


def test_every_callable_has_a_row():
    def callables(module, names):
        return {name for name in names if callable(getattr(module, name))
                and not (isinstance(getattr(module, name), type)
                         and issubclass(getattr(module, name), Exception))}

    methods = {f"Model.{name}" for name, value in vars(Model).items()
               if name[0] != "_" and callable(value)}
    assert set(ROWS) == (callables(steinmle, steinmle.__all__)
                         | callables(montecarlo, montecarlo.__all__) | methods)


def test_every_error_class_is_exported():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert classes <= set(steinmle.__all__)
    assert all(getattr(steinmle, name) is getattr(errors, name) for name in classes)


@pytest.mark.parametrize("name", CONTRACT)
def test_each_parameter_refuses_what_is_not_of_its_kind(name):
    row = ROWS[name]
    for plain in row.plains:
        for i, (param, kind) in enumerate(row.params):
            for bad in kind.refused:
                args = plain[:i] + (bad,) + plain[i + 1:]
                with pytest.raises(DomainError, match=kind.pattern.format(name=re.escape(param))):
                    row.call(args)


def _as(scalar, value):
    """``value`` as a numpy scalar of type ``scalar``, or None where that is
    not exact."""
    if type(value) not in (int, float):
        return None
    if issubclass(scalar, np.integer) and not np.iinfo(scalar).min <= value <= np.iinfo(scalar).max:
        return None
    converted = scalar(value)
    return converted if converted.item() == value else None


def _shown(value):
    """A result as it is compared across argument types: its repr, which
    names a numpy scalar's type, and a Model's name and shape."""
    return repr((value.name, value.beta)) if isinstance(value, Model) else repr(value)


@pytest.mark.parametrize("name", CONTRACT)
def test_a_numpy_scalar_gives_the_plain_result(name):
    row = ROWS[name]
    for plain in row.plains:
        want = _shown(row.call(plain))
        for i, (_, kind) in enumerate(row.params):
            for scalar in kind.numpy_types:
                converted = _as(scalar, plain[i])
                if converted is not None:
                    args = plain[:i] + (converted,) + plain[i + 1:]
                    assert _shown(row.call(args)) == want, (name, i, scalar)


@pytest.mark.parametrize("name", [name for name in CONTRACT
                                  if ("h_weights", PAIR) in ROWS[name].params])
def test_float32_weights_give_the_plain_result(name):
    # PAIR has no numpy_types, since ``_as`` converts only plain numbers
    row = ROWS[name]
    i = row.params.index(("h_weights", PAIR))
    for plain in row.plains:
        with_pair = [plain[:i] + (pair,) + plain[i + 1:]
                     for pair in [(0.5, 0.25), (np.float32(0.5), np.float32(0.25))]]
        assert _shown(row.call(with_pair[1])) == _shown(row.call(with_pair[0])), name


# Drawn calls run after the checks above: a numpy scalar let through them can
# stall the Poisson c search, which those checks report as a failure first.
@pytest.mark.parametrize("name", CONTRACT)
@settings(max_examples=30)
@given(data=st.data())
def test_a_call_returns_a_finite_value_or_a_package_error(name, data):
    row = ROWS[name]
    args = data.draw(st.tuples(*(kind.strategy for _, kind in row.params)), label="args")
    outcome(lambda: row.call(args), (name, args))


# Arguments that once returned inf or raised a bare Python error.
_IMPLICIT_OVERFLOW = ImplicitModelIngredients(1e-10, 1e-150, 1.7e308, 5e-324, 1e150, 1e-10, 1e300)
KNOWN = [
    ("kolmogorov_from_bw", (0.5, 5e-324)),
    ("kolmogorov_from_bw", (math.inf,)),
    ("implicit_distance_bound", (_IMPLICIT_OVERFLOW, 10)),
    ("mse_upper_bound_a1", (_IMPLICIT_OVERFLOW, 10)),
    *[("Model.distance_bound", (get_model(model), theta0, n)) for model in MODEL_NAMES
      for theta0 in (1e300, 1e155, 1e-105, 1e-150, 1e-300) for n in (3, 10, 10**6)],
    # (theta0, n, statistic) at every Model method of every model
    *[(f"Model.{method}", (get_model(model), *args)) for model in MODEL_NAMES
      for theta0, n, stat in [(1.1e77, 10, 5e-324), (1e-105, 10, -5e-324), (1e200, 10, "abc"),
                              (1.0, 10**400, math.nan), ("abc", 10, 0.5), (-1.0, 10, -0.5)]
      for method, args in [("distance_bound", (theta0, n)), ("audit", (theta0, n)),
                           ("mse_bound", (theta0, n)), ("fisher_info", (theta0,)),
                           ("standardize_scale", (theta0, n)), ("target_sigma", (theta0,)),
                           ("mle_from_stat", (stat, n))]],
]


def test_known_arguments_keep_the_contract():
    for name, args in KNOWN:
        outcome(lambda: ROWS[name].call(args), (name, args))


# Calls that once returned a value or raised a bare Python error: (call,
# error class, message pattern).
LIBRARY_ERRORS = {
    "kolmogorov-str-sigma-at-zero": (functools.partial(steinmle.kolmogorov_from_bw, 0.0, "x"),
                                     DomainError, "^sigma must be"),
    "implicit-bound-below-minimal-n": (
        functools.partial(steinmle.implicit_distance_bound,
                          steinmle.beta_ingredients(BetaParams(1.5, 1.0)), 400),
        DomainError, "minimal n = 7460"),
    "config-c-array": (functools.partial(SimulationConfig, "poisson", 1.0, 10,
                                         c=np.array([1.0, 2.0])), DomainError, "^c must be"),
    # a config that no run can use is refused as it is built
    "config-epsilon-beyond-theta0": (
        functools.partial(SimulationConfig, "exp-canonical", 1.0, 10, epsilon=2.0), DomainError,
        re.escape("epsilon must lie in (0, theta0) = (0, 1.0), got 2.0")),
    # an option the model does not read, refused by its bound and by a config
    **{f"{kind}-{model}-{key}": (functools.partial(call(model), 1.5, 7460, **{key: 0.1}), DomainError,
                                 f"^{model}: " + ("c applies" if key == "c" else "the model takes no"))
       for model, key in [("exp-canonical", "c"), ("exp-noncanonical", "c"), ("poisson", "epsilon"),
                          ("beta", "epsilon"), ("beta", "c")]
       for kind, call in [("bound", lambda m: get_model(m).distance_bound),
                          ("config", lambda m: functools.partial(SimulationConfig, m))]},
    "simulate-beta-below-minimal-n": (functools.partial(montecarlo.run_simulation, SimulationConfig(
        "beta", 1.5, 100, trials=10)), DomainError, "minimal n = 7460"),
    "ingredients-nan-mse": (functools.partial(BoundIngredients, 1.0, 10, 2.0, 3.0, math.nan, 0.0625,
                                              4.0, 0.5, 0.5), DomainError, "^mse must be a real >= 0"),
    **{f"{fn.__name__}-negative-theta0": (functools.partial(fn, -1.0, 10), DomainError, "^theta0 must be")
       for fn in (steinmle.poisson_bound, steinmle.exp_canonical_ingredients,
                  steinmle.exp_noncanonical_ingredients)},
    "beta-model-shape-0": (functools.partial(get_model, "beta", 0.0), DomainError, "^beta must be"),
    "exp-canonical-n-below-3": (functools.partial(steinmle.exp_canonical_ingredients, 1.0, 2),
                                DomainError, "MSE requires n >= 3, got 2"),
    # theta0^2 overflows, underflows to 0, or is subnormal with an infinite reciprocal
    **{f"{method}-{model}-{theta0:g}": (
        functools.partial(getattr(get_model(model), method), *args), FloatRangeError, "^fisher_info")
       for model in ("exp-canonical", "exp-noncanonical") for theta0 in (1e200, 1e-200, 1e-160)
       for method, args in (("fisher_info", (theta0,)), ("standardize_scale", (theta0, 10)))},
    **{f"scale-{model}": (functools.partial(get_model(model).standardize_scale, 1.0, 10**400),
                          FloatRangeError, "^standardize_scale") for model in MODEL_NAMES},
}


@pytest.mark.parametrize("case", LIBRARY_ERRORS)
def test_library_error_class_and_message(case):
    call, error, pattern = LIBRARY_ERRORS[case]
    with pytest.raises(error, match=pattern):
        call()


@pytest.mark.parametrize("fn", [steinmle.poisson_bound, steinmle.exp_canonical_ingredients,
                                steinmle.exp_noncanonical_ingredients])
@pytest.mark.parametrize("theta0,cause", [(1e300, OverflowError), (1e-300, ZeroDivisionError)],
                         ids=["overflow", "underflow"])
def test_float_range_is_a_package_error(fn, theta0, cause):
    with pytest.raises(FloatRangeError, match=fn.__name__) as excinfo:
        fn(theta0, 10)
    assert isinstance(excinfo.value, SteinMLEError)
    assert isinstance(excinfo.value, ArithmeticError)
    assert isinstance(excinfo.value.__cause__, cause)


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=REALS)
def test_model_methods_agree_on_theta0(model, theta0):
    # target_sigma checks theta0 as the model does on every route, and only
    # the Beta model has an MSE bound
    entry = get_model(model)
    checked = outcome(lambda: real(theta0, "theta0", **entry.theta0_limit))
    sigma = outcome(lambda: entry.target_sigma(theta0))
    assert isinstance(sigma, SteinMLEError) == isinstance(checked, SteinMLEError)
    assert model == "beta" or entry.mse_bound(theta0, 10) is None


# -- value types -------------------------------------------------------------------


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_construction_repr_and_fields(name):
    row = ROWS[name]
    fields = row.fields
    for obj in (row.fn(*fields.values()), row.fn(**fields)):
        assert type(obj) is row.fn and repr(obj) == row.shown
        assert list(vars(obj)) == list(fields) and vars(obj) == fields


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_equality_and_hash_by_fields(name):
    row = ROWS[name]
    fields = row.fields
    a, b = row.fn(*fields.values()), row.fn(**fields)
    values = tuple(fields.values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a.__eq__(values) is NotImplemented and a != values
    field, value = row.changed
    changed = row.fn(**dict(fields, **{field: value}))
    assert changed != a and getattr(changed, field) == value


@pytest.mark.parametrize("copier", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy,
                                    copy.copy], ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("name", VALUE_TYPES)
def test_copies_are_equal(name, copier):
    row = ROWS[name]
    a = row.fn(**row.fields)
    twin = copier(a)
    assert type(twin) is row.fn and twin == a and hash(twin) == hash(a)
    assert vars(twin) == vars(a) and repr(twin) == repr(a)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_are_frozen(name):
    row = ROWS[name]
    obj = row.fn(**row.fields)
    before = dict(vars(obj))
    for field in [*row.fields, "not_a_field"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(obj, field, 1.0)
    for field in row.fields:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(obj, field)
    assert vars(obj) == before


@pytest.mark.parametrize("name", [name for name in VALUE_TYPES if ROWS[name].invalid])
def test_first_invalid_field_is_named(name):
    row = ROWS[name]
    kwargs, order = row.invalid
    kwargs = dict(row.fields, **kwargs)
    for field, valid, message in order:
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            row.fn(**kwargs)
        kwargs[field] = valid
    row.fn(**kwargs)


def test_defaults():
    h = TestFunction(abs, 0.5, 0.25)
    assert (h.label, h.gaussian_expectation) == ("", None)
    ing = BoundIngredients(1.0, 10, 2.0, 3.0, 0.1, 0.01, 4.0, 0.5, 0.5)
    assert ing.sup_third_is_deterministic is False
    # the total is always the fsum of the terms, whatever is passed for it
    assert BoundBreakdown(_TERMS, total=7.0) == BoundBreakdown(_TERMS)
    assert BoundBreakdown(_TERMS).total == 0.75
    cfg = SimulationConfig("poisson", 5.0, 20)
    assert (cfg.trials, cfg.seed, cfg.beta, cfg.epsilon, cfg.c, cfg.workers) == (
        10000, 0, 1.0, None, "auto", 1
    )
    h = cfg.test_function
    assert (h.label, h.sup_norm, h.lip_norm) == ("inv-quadratic", 0.5, 3.0 * math.sqrt(1.5) / 16.0)
    assert h.evaluator(0.0) == 0.5 and h.gaussian_expectation is not None
    rep = SimulationReport("poisson", 5.0, 20, 10, 0, 0.1, 0.2, 0.75, BoundBreakdown(_TERMS), None,
                           0.4)
    assert (rep.target, rep.rng_algorithm, rep.backend) == ("distance", RNG_ALGORITHM, BACKEND_NAME)


def test_implicit_ingredients_cache_their_root_on_first_use():
    row = ROWS["ImplicitModelIngredients"]
    ing, fields = row.fn(**row.fields), list(row.fields)
    assert list(vars(ing)) == fields
    n = steinmle.minimal_n(ing)
    assert list(vars(ing)) == [*fields, "_root"]
    root = vars(ing)["_root"]
    assert steinmle.minimal_n(ing) == n and ing._root is root
    # the cache is no field: repr, equality and hash ignore it
    fresh = row.fn(**row.fields)
    assert ing == fresh and hash(ing) == hash(fresh) and repr(ing) == repr(fresh)
    twin = pickle.loads(pickle.dumps(ing))
    assert list(vars(twin)) == [*fields, "_root"] and steinmle.minimal_n(twin) == n


# -- the CLI -----------------------------------------------------------------------

FORMATS = ("text", "csv", "json")
_EXP = ["--model", "exp-canonical", "--theta0", "1"]
_DRAWN_CI = ["ci", *_EXP, "--n", "10000000", "--alpha", "0.9"]
_DEGENERATE_CI = ["ci", *_EXP, "--n", "1000", "--alpha", "0.05"]
_RAW_SIMULATE = ["simulate", "--model", "beta", "--theta0", "1.5", "--beta", "2.5", "--n", "14816"]
_RAW_SWEEP = ["mse-sweep", "--beta", "2.5", "--n-from", "14816", "--n-to", "14816"]
_SEEDED = {
    "table-3": ["table", "3", "--trials", "5"],
    "simulate": ["simulate", *_EXP, "--n", "10", "--trials", "5"],
    "table-1": ["table", "1", "--trials", "5"],
    "ci": ["ci", *_EXP, "--n", "10", "--trials", "5"],
    "mse-sweep": ["mse-sweep", "--beta", "1", "--n-from", "7500", "--n-to", "7500", "--trials", "5"],
}
# Trial counts beyond one float64 array (2^60 and up), or below that but
# beyond any memory (10^18; a raw-sampled row allocates its array before its
# first block): refused before any draw.
_TRIAL_COUNT_ARGS = {
    "simulate-poisson": ["simulate", "--model", "poisson", "--theta0", "5", "--n", "5"],
    "simulate-beta-2.5": _RAW_SIMULATE,
    "table-1": ["table", "1"],
    "ci": _DRAWN_CI,
    "mse-sweep-beta-2.5": _RAW_SWEEP,
}
_FLOAT_RANGE = "an intermediate value"
_USAGE = "usage: steinmle"

# id -> (arguments, exit code, error class, message fragment); each runs in
# every format.  An error class None is a usage error, which argparse words
# alike in every format.
CLI_ERRORS = {
    "usage-unknown-model": (["bound", "--model", "weibull", "--theta0", "1", "--n", "10"], 2, None,
                            _USAGE),
    "usage-missing-option": (["bound", "--model", "poisson", "--theta0", "1"], 2, None, _USAGE),
    "usage-table-4": (["table", "4"], 2, None, _USAGE),
    "usage-abbreviated-option": (["bound", "--mod", "poisson", "--theta0", "1", "--n", "10"], 2,
                                 None, _USAGE),
    "usage-non-integer-n": (["bound", "--model", "poisson", "--theta0", "1", "--n", "1.5"], 2, None,
                            _USAGE),
    "usage-unknown-verb": (["weibull"], 2, None, _USAGE),
    "usage-no-verb": ([], 2, None, _USAGE),
    # c is checked before the zero bound at theta0 = 0
    "bound-poisson-theta0-0-negative-c": (
        ["bound", "--model", "poisson", "--theta0", "0", "--n", "10", "--c", "-3"], 2, "DomainError",
        "c must be a finite real > 0, got -3.0"),
    "bound-negative-theta0": (["bound", "--model", "exp-canonical", "--theta0", "-1", "--n", "10"],
                              2, "DomainError", "theta0 must be a finite real > 0, got -1.0"),
    "bound-beta-below-minimal-n": (["bound", "--model", "beta", "--theta0", "1.5", "--n", "7000"],
                                   2, "DomainError", "minimal n = 7460"),
    "ci-poisson": (["ci", "--model", "poisson", "--theta0", "1", "--n", "100", "--trials", "10"], 2,
                   "DomainError", "requires the unit-normal standardisation"),
    "mse-sweep-below-minimal-n": (["mse-sweep", "--n-from", "7000", "--n-to", "7000", "--trials",
                                   "5"], 2, "DomainError", "minimal n = 7460"),
    "mse-sweep-below-minimal-n-names-the-first-and-the-count": (
        ["mse-sweep", "--n-from", "1", "--n-to", "7460", "--trials", "2"], 2, "DomainError",
        "n below minimal n = 7460: 7459 of the n values, the smallest 1"),
    "constants-missing-n": (["constants", *_EXP], 2, "DomainError",
                            "exp-canonical: --n is required for the audit"),
    **{f"ci-trials-{name}": (["ci", *_EXP, *args], 2, "DomainError", "trials must")
       for name, args in [("degenerate-0", ["--n", "1000", "--trials", "0"]),
                          ("degenerate-negative", ["--n", "1000", "--trials", "-5"]),
                          ("interval-0", ["--n", "10000000", "--alpha", "0.9", "--trials", "0"])]},
    **{f"{verb}-negative-seed": (_SEEDED[verb] + ["--seed", "-1"], 2, "DomainError",
                                 "seed must be an integer >= 0, got -1")
       for verb in ("table-3", "mse-sweep", "ci")},
    **{f"{verb}-seed-beyond-the-philox-key": (
        _SEEDED[verb] + ["--seed", str(2**128)], 2, "DomainError",
        f"seed must be an integer < 2**128, got {2**128}") for verb in ("simulate", "table-1", "ci",
                                                                       "mse-sweep")},
    "table-1-env-seed-not-an-integer": (["table", "1", "--trials", "2"], 2, "DomainError",
                                        "STEINMLE_SEED must be an integer, got 'x'"),
    "table-1-env-seed-beyond-the-philox-key": (
        ["table", "1", "--trials", "2"], 2, "DomainError",
        f"STEINMLE_SEED must be an integer < 2**128, got {2**128}"),
    **{name: (args, 2, "DomainError", "epsilon" if "--epsilon" in args else "c applies")
       for name, args in {
           "bound-beta-epsilon": ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460",
                                  "--epsilon", "0.1"],
           "bound-poisson-epsilon": ["bound", "--model", "poisson", "--theta0", "5", "--n", "50",
                                     "--epsilon", "0.1"],
           "bound-exp-c": ["bound", *_EXP, "--n", "100", "--c", "2"],
           "bound-beta-c": ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460", "--c",
                            "2"],
           "simulate-poisson-epsilon": ["simulate", "--model", "poisson", "--theta0", "5", "--n",
                                        "20", "--trials", "5", "--epsilon", "0.1"],
           "simulate-exp-c": ["simulate", "--model", "exp-noncanonical", "--theta0", "2", "--n",
                              "20", "--trials", "5", "--c", "2"],
           "constants-poisson-epsilon": ["constants", "--model", "poisson", "--theta0", "5", "--n",
                                         "50", "--epsilon", "0.1"],
           "constants-beta-epsilon": ["constants", "--model", "beta", "--theta0", "1.5",
                                      "--epsilon", "0.1"],
       }.items()},
    **{f"bound-{model}-{flag}-weight-above-one": (
        ["bound", "--model", model, *args, *flag.split()], 2, "DomainError",
        "h weights up to 1 only")
       for model, args in [("poisson", ["--theta0", "5", "--n", "50"]),
                           ("beta", ["--theta0", "1.5", "--n", "7500"])]
       for flag in ["--h-sup 2 --h-lip 2", "--h-lip 1.0000000000000002", "--h-sup 1.5 --h-lip 0.5"]},
    **{f"{name}-raw-trial-beyond-the-sampler-range": (args, 2, "DomainError",
                                                      "exceeds the sampler's range 4294967296")
       for name, args in [
           ("simulate", ["simulate", "--model", "beta", "--theta0", "1.5", "--beta", "2.5",
                         "--n", str(10**12), "--trials", "1"]),
           ("ci", ["ci", "--model", "beta", "--theta0", "1.5", "--beta", "2.5", "--n",
                   str(10**12), "--trials", "1"]),
           ("mse-sweep", ["mse-sweep", "--beta", "2.5", "--n-from", str(2**32 + 1),
                          "--n-to", str(2**32 + 1), "--trials", "1"])]},
    **{f"{name}-workers-{workers}": (args + ["--workers", workers], 2, "DomainError",
                                     f"workers must be an integer >= 1, got {workers}")
       for name, args in [("simulate", _RAW_SIMULATE + ["--trials", "12"]), ("table-3", ["table", "3"]),
                          ("ci", _DRAWN_CI + ["--trials", "10"]),
                          ("mse-sweep", _RAW_SWEEP + ["--trials", "12"])]
       for workers in ("0", "-3")},
    # numerical failures: exit 3
    **{name: (args, 3, "FloatRangeError", message) for name, args, message in [
        ("bound-poisson-overflow", ["bound", "--model", "poisson", "--theta0", "1e300", "--n", "10"],
         "poisson_bound: an intermediate value overflowed"),
        ("bound-poisson-zero-division", ["bound", "--model", "poisson", "--theta0", "1e-300", "--n",
                                         "10"], "poisson_bound: an intermediate value underflowed"),
        ("bound-exp-overflow", ["bound", "--model", "exp-canonical", "--theta0", "1e300", "--n", "10"],
         "exp_canonical_ingredients: an intermediate value overflowed"),
        ("bound-exp-zero-division", ["bound", "--model", "exp-canonical", "--theta0", "1e-300",
                                     "--n", "10"], "exp_canonical_ingredients: " + _FLOAT_RANGE),
        ("simulate-overflow", ["simulate", "--model", "exp-canonical", "--theta0", "1e300", "--n",
                               "10", "--trials", "5"], "exp_canonical_ingredients: " + _FLOAT_RANGE),
        ("bound-beta-overflow", ["bound", "--model", "beta", "--theta0", "1e300", "--n", "10"],
         "beta_ingredients: an intermediate value overflowed"),
        ("bound-beta-sum-overflow", ["bound", "--model", "beta", "--theta0", "1e300", "--beta",
                                     "1.7976931348623157e308", "--n", "10"],
         "beta_ingredients: " + _FLOAT_RANGE),
        ("constants-zero-division", ["constants", "--model", "exp-noncanonical", "--theta0",
                                     "1e-300", "--n", "10"],
         "exp_noncanonical_ingredients: an intermediate value underflowed"),
        ("bound-beta-taylor-term-inf-times-zero", ["bound", "--model", "beta", "--theta0", "1e-70",
                                                   "--n", str(10**200)],
         "implicit_distance_bound: an intermediate value overflowed"),
        *[(f"bound-{model}-{flag}-infinite-term", ["bound", "--model", model, "--theta0", "1",
                                                   "--n", "10", f"--{flag}=1e308"],
           "breakdown term ")
          for model in ("exp-canonical", "exp-noncanonical") for flag in ("h-lip", "h-sup")],
        # theta0 + beta rounds to theta0, so psi_1(theta0) - psi_1(theta0 + beta)
        # is 0 in float, although every input is valid
        *[(f"{verb}-beta-information-cancelling-{beta}",
           [verb, "--model", "beta", "--theta0", "1.5", "--beta", beta, "--n", "100000000"],
           "cancelled") for verb in ("bound", "constants") for beta in ("1e-17", "1e-300")],
        *[(f"constants-{model}-ingredient-overflow",
           ["constants", "--model", model, "--theta0", theta0, "--n", "10"],
           f"audit: field {field!r} overflowed to inf; the input lies outside the float range of "
           "this computation")
          for model, theta0, field in [("exp-noncanonical", "1.1e77", "fourth_mle_moment"),
                                       ("exp-canonical", "1e-105", "third_abs_score_moment")]],
    ]},
    # sizes whose first array, or the sweep's list of n, cannot be allocated
    **{f"{name}-too-large-to-allocate": (args, 3, "MemoryError", "") for name, args in [
        ("simulate", ["simulate", *_EXP, "--n", "10", "--trials", str(10**18)]),
        ("table-1", ["table", "1", "--trials", str(10**18)]),
        ("ci", _DRAWN_CI + ["--trials", str(10**18)]),
        ("mse-sweep", ["mse-sweep", "--n-from", "1", "--n-to", str(10**18)])]},
    **{f"{name}-trials-{trials}": (args + ["--trials", str(trials)], 3, "MemoryError", "")
       for name, args in _TRIAL_COUNT_ARGS.items() for trials in (10**18, 2**60, 2**63, 10**20)},
    # ci refuses the count whether or not its interval is the whole line
    **{f"ci-{name}-trials-{trials}": (args + ["--trials", str(trials)], 3, "MemoryError", "")
       for name, args in [("degenerate", _DEGENERATE_CI), ("drawn", _DRAWN_CI)]
       for trials in (2**60, 2**63, 10**20)},
    # successes next to the refusals
    "ci-degenerate-at-ten-trials": (_DEGENERATE_CI + ["--trials", "10"], 0, None, ""),
    # the fourth central moment of 1/mean does not cancel below 0 at a tiny
    # theta0 and a huge n
    "bound-exp-canonical-fourth-moment-at-large-n": (
        ["bound", "--model", "exp-canonical", "--theta0", "1e-20", "--n", str(10**18)], 0, None, ""),
}
CLI_ENV = {
    "table-1-env-seed-not-an-integer": {"STEINMLE_SEED": "x"},
    "table-1-env-seed-beyond-the-philox-key": {"STEINMLE_SEED": str(2**128)},
}


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"{constant} in the JSON output, which strict JSON cannot carry")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CLI_ERRORS)
def test_cli_exit_code_error_and_message(case, fmt):
    args, code, error, fragment = CLI_ERRORS[case]
    start = time.perf_counter()
    result = CliRunner().invoke(main, args + ["--format", fmt], env=CLI_ENV.get(case))
    assert time.perf_counter() - start < TIME_BOUND_S
    assert result.exit_code == code, result.output
    if code == 0:
        assert result.stdout and result.stderr == ""
        if fmt == "json":
            _strict_json(result.stdout)
        return
    assert result.stdout == ""
    if error is None:
        message = result.stderr
    elif fmt == "json":
        err = json.loads(result.stderr)
        assert (err["schema"], err["error"]) == ("steinmle/error/v1", error)
        message = err["message"]
    else:
        assert result.stderr.startswith("error: ")
        message = result.stderr.removeprefix("error: ")
    assert fragment in message and message.strip(), message


def _keeps_the_exit_code_contract(args, fmt):
    result = CliRunner().invoke(main, args + ["--format", fmt])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 2, 3), (args, result.output)
    if fmt == "json" and result.exit_code:
        assert json.loads(result.stderr)["schema"] == "steinmle/error/v1"
    elif fmt == "json":
        _strict_json(result.stdout)


def _options(**values):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()
            if value is not None]


_OPTIONAL = st.none() | FLOATS
_NS = st.sampled_from([1, 2, 3, 10, 10**6, 10**18])


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=FLOATS, n=_NS, beta=_OPTIONAL, c=_OPTIONAL, epsilon=_OPTIONAL,
       h_sup=_OPTIONAL, h_lip=_OPTIONAL, fmt=st.sampled_from(["text", "json"]))
def test_bound_keeps_the_exit_code_contract(model, theta0, n, beta, c, epsilon, h_sup, h_lip, fmt):
    args = ["bound", "--model", model, f"--n={n}"] + _options(
        theta0=theta0, beta=beta, c=c, epsilon=epsilon, h_sup=h_sup, h_lip=h_lip
    )
    _keeps_the_exit_code_contract(args, fmt)


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=FLOATS, n=st.none() | _NS, beta=_OPTIONAL, epsilon=_OPTIONAL,
       fmt=st.sampled_from(["text", "json"]))
def test_constants_keeps_the_exit_code_contract(model, theta0, n, beta, epsilon, fmt):
    args = ["constants", "--model", model] + _options(theta0=theta0, n=n, beta=beta, epsilon=epsilon)
    _keeps_the_exit_code_contract(args, fmt)


# For Beta, integer shapes: the exact-law statistic costs the same at any n.
# Besides FLOATS, theta0 log-uniform on [1e-3, 1e3], where most draws pass
# the checks and reach the samplers and estimators.
_SIM_BETAS = st.sampled_from([1.0, 2.0, 3.0, 4.0])
_SIM_THETA0 = st.one_of(FLOATS, st.builds(lambda e: 10.0**e, st.floats(-3.0, 3.0)))


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_SIM_THETA0, n=_NS, beta=_SIM_BETAS, fmt=st.sampled_from(FORMATS))
def test_simulate_keeps_the_exit_code_contract(model, theta0, n, beta, fmt):
    args = ["simulate", "--model", model, f"--n={n}", "--trials=2"] + _options(
        theta0=theta0, beta=beta if model == "beta" else None
    )
    _keeps_the_exit_code_contract(args, fmt)


# Besides _OPTIONAL, alpha uniform on (0, 1), where the interval is defined.
_ALPHAS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _OPTIONAL)


@pytest.mark.parametrize("model", MODEL_NAMES)
@given(theta0=_SIM_THETA0, n=_NS, beta=_SIM_BETAS, alpha=_ALPHAS, fmt=st.sampled_from(FORMATS))
def test_ci_keeps_the_exit_code_contract(model, theta0, n, beta, alpha, fmt):
    args = ["ci", "--model", model, f"--n={n}", "--trials=2"] + _options(
        theta0=theta0, beta=beta if model == "beta" else None, alpha=alpha
    )
    _keeps_the_exit_code_contract(args, fmt)


# Sweep starts per known shape: the Beta(1.5, beta) minimal n, and for the
# integer shapes 10^6 and 10^18.  A non-integer shape draws n raw
# observations a trial, so it stays near its minimal n.
_SWEEP_STARTS = {1.0: (7460, 10**6, 10**18), 2.0: (11848, 10**6, 10**18), 2.5: (14816,)}


@given(theta0=_SIM_THETA0, beta=st.sampled_from(sorted(_SWEEP_STARTS)), start=st.integers(0, 2),
       steps=st.sampled_from([0, 1, 2, -1]), n_step=st.sampled_from([1, 10, 1000, 10**6, 0]),
       fmt=st.sampled_from(FORMATS))
def test_mse_sweep_keeps_the_exit_code_contract(theta0, beta, start, steps, n_step, fmt):
    # n-to lies 0 to 2 steps past n-from (at most three rows) or one below it
    starts = _SWEEP_STARTS[beta]
    n_from = starts[start % len(starts)]
    n_to = n_from + steps * max(n_step, 1)
    args = ["mse-sweep", f"--n-from={n_from}", f"--n-to={n_to}", f"--n-step={n_step}",
            "--trials=2"] + _options(theta0=theta0, beta=beta)
    _keeps_the_exit_code_contract(args, fmt)


# A reader that has gone before the output is written (as ``| head -1`` can
# leave it) gets no traceback: the CLI exits 141, the shell's code for a
# process killed by SIGPIPE.
@pytest.mark.parametrize("args", [["bound", "--model", "poisson", "--theta0", "5", "--n", "50"],
                                  ["table", "1", "--trials", "10"]], ids=["bound", "table-1"])
def test_closed_stdout_exits_141_without_a_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(steinmle.__file__)))
    try:
        result = subprocess.run([sys.executable, "-m", "steinmle.cli", *args],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""
