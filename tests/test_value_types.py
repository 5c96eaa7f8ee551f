"""The eight value types: construction, repr, equality, hashing, immutability,
pickling, what ``vars()`` holds and the order their fields are checked in.

Each type is pinned by one fixed instance, built once by position and once
by keyword.  None of this needs mpmath.
"""

import copy
import math
import pickle
import re

import pytest

from steinmle.errors import DomainError
from steinmle.montecarlo import CoverageResult, SimulationConfig, SimulationReport
from steinmle.montecarlo._pykernels import BACKEND_NAME, RNG_ALGORITHM
from steinmle.msebound import BetaParams, ImplicitModelIngredients, minimal_n
from steinmle.steincore import BoundBreakdown, BoundIngredients, TestFunction

H = TestFunction(abs, 0.5, 0.25, "abs")
H_REPR = (
    "TestFunction(evaluator=<built-in function abs>, sup_norm=0.5, lip_norm=0.25, "
    "label='abs', gaussian_expectation=None)"
)
TERMS = BoundBreakdown((("a", 0.25), ("b", 0.5)))

# type -> (its fields in order, with the fixed instance's values; its repr)
CASES = {
    TestFunction: (
        dict(evaluator=abs, sup_norm=0.5, lip_norm=0.25, label="abs", gaussian_expectation=None),
        H_REPR,
    ),
    BoundIngredients: (
        dict(
            theta0=1.0, n=10, fisher_info=2.0, third_abs_score_moment=3.0, mse=0.1,
            fourth_mle_moment=0.01, sup_third_deriv=4.0, r2_conditional_bound=0.5, epsilon=0.5,
            sup_third_is_deterministic=True,
        ),
        "BoundIngredients(theta0=1.0, n=10, fisher_info=2.0, third_abs_score_moment=3.0, "
        "mse=0.1, fourth_mle_moment=0.01, sup_third_deriv=4.0, r2_conditional_bound=0.5, "
        "epsilon=0.5, sup_third_is_deterministic=True)",
    ),
    BoundBreakdown: (
        dict(terms=(("a", 0.25), ("b", 0.5)), total=0.75),
        "BoundBreakdown(terms=(('a', 0.25), ('b', 0.5)), total=0.75)",
    ),
    ImplicitModelIngredients: (
        dict(
            fisher_info=1.0, third_abs_score_moment=2.0, var_l2=0.0, c1_const=3.0,
            sup_x_norm=1.0, sup_x2_norm=1.0, epsilon=0.5,
        ),
        "ImplicitModelIngredients(fisher_info=1.0, third_abs_score_moment=2.0, var_l2=0.0, "
        "c1_const=3.0, sup_x_norm=1.0, sup_x2_norm=1.0, epsilon=0.5)",
    ),
    BetaParams: (dict(theta0=1.5, beta=2.0), "BetaParams(theta0=1.5, beta=2.0)"),
    SimulationConfig: (
        dict(
            model="poisson", theta0=5.0, n=20, trials=10, seed=3, test_function=H, beta=1.0,
            epsilon=None, c=2.5, workers=2,
        ),
        f"SimulationConfig(model='poisson', theta0=5.0, n=20, trials=10, seed=3, "
        f"test_function={H_REPR}, beta=1.0, epsilon=None, c=2.5, workers=2)",
    ),
    SimulationReport: (
        dict(
            model="poisson", theta0=5.0, n=20, trials=10, seed=0, empirical_distance=0.1,
            empirical_mse=0.2, bound_total=0.75, bound_terms=TERMS, standard_error=None,
            expected_h=0.4, target="mse", rng_algorithm="r", backend="b",
        ),
        "SimulationReport(model='poisson', theta0=5.0, n=20, trials=10, seed=0, "
        "empirical_distance=0.1, empirical_mse=0.2, bound_total=0.75, "
        "bound_terms=BoundBreakdown(terms=(('a', 0.25), ('b', 0.5)), total=0.75), "
        "standard_error=None, expected_h=0.4, target='mse', rng_algorithm='r', backend='b')",
    ),
    CoverageResult: (
        dict(coverage=0.5, trials=10, b_k=0.1, degenerate=False, alpha=0.05),
        "CoverageResult(coverage=0.5, trials=10, b_k=0.1, degenerate=False, alpha=0.05)",
    ),
}
TYPES = list(CASES)
IDS = [cls.__name__ for cls in TYPES]


def _fields(cls):
    return CASES[cls][0]


def _by_position(cls):
    return cls(*_fields(cls).values())


def _by_keyword(cls):
    return cls(**_fields(cls))


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls):
    fields = _fields(cls)
    for obj in (_by_position(cls), _by_keyword(cls)):
        assert type(obj) is cls
        assert {name: getattr(obj, name) for name in fields} == fields


def test_defaults():
    h = TestFunction(abs, 0.5, 0.25)
    assert (h.label, h.gaussian_expectation) == ("", None)
    ing = BoundIngredients(1.0, 10, 2.0, 3.0, 0.1, 0.01, 4.0, 0.5, 0.5)
    assert ing.sup_third_is_deterministic is False
    # the total is always the fsum of the terms, whatever is passed for it
    assert BoundBreakdown((("a", 0.25), ("b", 0.5)), total=7.0) == TERMS
    assert BoundBreakdown((("a", 0.25), ("b", 0.5))).total == 0.75
    cfg = SimulationConfig("poisson", 5.0, 20)
    assert (cfg.trials, cfg.seed, cfg.beta, cfg.epsilon, cfg.c, cfg.workers) == (
        10000, 0, 1.0, None, "auto", 1
    )
    h = cfg.test_function
    assert (h.label, h.sup_norm, h.lip_norm) == ("inv-quadratic", 0.5, 3.0 * math.sqrt(1.5) / 16.0)
    assert h.evaluator(0.0) == 0.5 and h.gaussian_expectation is not None
    rep = SimulationReport("poisson", 5.0, 20, 10, 0, 0.1, 0.2, 0.75, TERMS, None, 0.4)
    assert (rep.target, rep.rng_algorithm, rep.backend) == ("distance", RNG_ALGORITHM, BACKEND_NAME)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_repr(cls):
    assert repr(_by_position(cls)) == CASES[cls][1]
    assert repr(_by_keyword(cls)) == CASES[cls][1]


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equality_and_hash_by_fields(cls):
    a, b = _by_position(cls), _by_keyword(cls)
    assert a is not b and a == b and not a != b
    values = tuple(_fields(cls).values())
    assert hash(a) == hash(b) == hash(values)
    assert a.__eq__(values) is NotImplemented
    assert a != values


# One field changed per type, to a valid value that compares unequal.
CHANGED = {
    TestFunction: ("lip_norm", 0.125),
    BoundIngredients: ("sup_third_is_deterministic", False),
    BoundBreakdown: ("terms", (("a", 0.25),)),
    ImplicitModelIngredients: ("epsilon", 0.25),
    BetaParams: ("beta", 3.0),
    SimulationConfig: ("seed", 4),
    SimulationReport: ("standard_error", 0.01),
    CoverageResult: ("degenerate", True),
}


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_one_changed_field_makes_unequal(cls):
    name, value = CHANGED[cls]
    changed = cls(**dict(_fields(cls), **{name: value}))
    assert changed != _by_keyword(cls)
    assert getattr(changed, name) == value


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_assignment_and_deletion_raise(cls):
    obj = _by_keyword(cls)
    before = dict(vars(obj))
    for name in [*_fields(cls), "not_a_field"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1.0)
    for name in _fields(cls):
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert vars(obj) == before


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
@pytest.mark.parametrize(
    "copier",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_are_equal(cls, copier):
    obj = _by_keyword(cls)
    twin = copier(obj)
    assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)
    assert vars(twin) == vars(obj) and repr(twin) == repr(obj)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_vars_holds_exactly_the_fields(cls):
    obj = _by_position(cls)
    assert list(vars(obj)) == list(_fields(cls))
    assert vars(obj) == _fields(cls)


def test_implicit_ingredients_cache_their_root_on_first_use():
    ing = _by_keyword(ImplicitModelIngredients)
    fields = list(_fields(ImplicitModelIngredients))
    assert list(vars(ing)) == fields
    n = minimal_n(ing)
    assert list(vars(ing)) == [*fields, "_root"]
    root = vars(ing)["_root"]
    assert minimal_n(ing) == n and ing._root is root
    # the cache is no field: repr, equality and hash ignore it
    fresh = _by_keyword(ImplicitModelIngredients)
    assert ing == fresh and hash(ing) == hash(fresh) and repr(ing) == repr(fresh)
    twin = pickle.loads(pickle.dumps(ing))
    assert list(vars(twin)) == [*fields, "_root"] and minimal_n(twin) == n


# Every field invalid at once, then the fields in the order the constructor
# names them, each with a valid value and the start of its message.
ALL_INVALID = {
    TestFunction: (
        dict(evaluator=3, sup_norm=-1.0, lip_norm=-1.0, gaussian_expectation=3),
        [
            ("evaluator", abs, "TestFunction.evaluator must be callable"),
            ("gaussian_expectation", None, "TestFunction.gaussian_expectation must be callable"),
            ("sup_norm", 0.5, "sup_norm must be a finite real >= 0"),
            ("lip_norm", 0.5, "lip_norm must be a finite real >= 0"),
        ],
    ),
    BoundIngredients: (
        dict(
            theta0=math.nan, n=0, fisher_info=0.0, third_abs_score_moment=-1.0, mse=-1.0,
            fourth_mle_moment=-1.0, sup_third_deriv=-1.0, r2_conditional_bound=-1.0, epsilon=0.0,
        ),
        [
            ("n", 10, "n must be an integer >= 1, got 0"),
            ("theta0", 1.0, "theta0 must be a finite real, got nan"),
            ("fisher_info", 1.0, "fisher_info must be a finite real > 0"),
            ("third_abs_score_moment", 1.0, "third_abs_score_moment must be a real >= 0"),
            ("mse", 1.0, "mse must be a real >= 0"),
            ("fourth_mle_moment", 1.0, "fourth_mle_moment must be a real >= 0"),
            ("sup_third_deriv", 1.0, "sup_third_deriv must be a real >= 0"),
            ("r2_conditional_bound", 1.0, "r2_conditional_bound must be a real >= 0"),
            ("epsilon", 0.5, "epsilon must be a finite real > 0"),
        ],
    ),
    BoundBreakdown: (
        dict(terms=(("a", 0.5), ("b", -1.0), ("c", math.nan))),
        [
            ("terms", (("a", 0.5), ("c", math.nan)), "breakdown term 'b' is negative: -1.0"),
            ("terms", (("a", 0.5),), "breakdown term 'c' is NaN"),
        ],
    ),
    ImplicitModelIngredients: (
        dict(
            fisher_info=0.0, third_abs_score_moment=0.0, var_l2=-1.0, c1_const=0.0,
            sup_x_norm=0.0, sup_x2_norm=0.0, epsilon=0.0,
        ),
        [
            ("fisher_info", 1.0, "fisher_info must be a finite real > 0"),
            ("third_abs_score_moment", 1.0, "third_abs_score_moment must be a finite real > 0"),
            ("var_l2", 0.0, "var_l2 must be a finite real >= 0"),
            ("c1_const", 1.0, "c1_const must be a finite real > 0"),
            ("sup_x_norm", 1.0, "sup_x_norm must be a finite real > 0"),
            ("sup_x2_norm", 1.0, "sup_x2_norm must be a finite real > 0"),
            ("epsilon", 0.5, "epsilon must be a finite real > 0"),
        ],
    ),
    BetaParams: (
        dict(theta0=0.0, beta=0.0),
        [
            ("theta0", 1.5, "theta0 must be a finite real > 0, got 0.0"),
            ("beta", 2.0, "beta must be a finite real > 0, got 0.0"),
        ],
    ),
    SimulationConfig: (
        dict(model="weibull", theta0="1", n=0, trials=0, seed=-1, beta=0.0, epsilon=math.inf,
             c=True, workers=0),
        [
            ("model", "poisson", "model must be one of"),
            ("n", 20, "n must be an integer >= 1, got 0"),
            ("trials", 10, "trials must be an integer >= 1, got 0"),
            ("workers", 1, "workers must be an integer >= 1, got 0"),
            ("seed", 0, "seed must be an integer >= 0, got -1"),
            ("beta", 1.0, "beta must be a finite real > 0, got 0.0"),
            ("theta0", -1.0, "theta0 must be a finite real >= 0, got '1'"),
            ("theta0", 1.0, "theta0 must be a finite real >= 0, got -1.0"),
            ("epsilon", None, "epsilon must be a finite real > 0, got inf"),
            ("c", "auto", "c must be a finite real > 0, got True"),
        ],
    ),
}


@pytest.mark.parametrize("cls", list(ALL_INVALID), ids=[c.__name__ for c in ALL_INVALID])
def test_first_invalid_field_is_named(cls):
    kwargs, order = ALL_INVALID[cls]
    kwargs = dict(kwargs)
    for name, valid, message in order:
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            cls(**kwargs)
        kwargs[name] = valid
    cls(**kwargs)

