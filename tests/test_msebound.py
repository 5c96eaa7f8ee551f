"""Implicit-MLE MSE bound and its Beta specialisation: frozen values and roots.

Reference numbers come from an independent 50-digit evaluation using
mpmath's own polygamma (a different algorithm from the package's evaluator).
"""

import math
import random
import threading
import time
from decimal import Decimal

import numpy as np
import pytest
from oracles import (
    bisected_minimal_n,
    bracketed_beta_root,
    decimal_b3_a1,
    decimal_d1,
    decimal_implicit_total,
)

from steinmle import msebound
from steinmle.cli import main
from steinmle.errors import ConvergenceError, DomainError, FloatRangeError
from steinmle.registry import get_model
from steinmle.steincore import BoundIngredients, mle_bound_general
from steinmle.msebound import (
    BetaParams,
    ImplicitModelIngredients,
    beta_b3,
    beta_distance_bound,
    beta_ingredients,
    beta_shape_roots,
    implicit_distance_bound,
    minimal_n,
    mse_upper_bound_a1,
)

P = BetaParams(1.5, 1.0)
# B1, B2, D_psi1 and minimal_n of P, as ``constants --model beta`` prints them
CONSTS = get_model("beta").audit(1.5, None)

# (B3/sqrt(n))^2 from the 50-digit oracle; published values round to
# 0.2517, 0.0416, 0.0223, 0.0151, 0.0112 (within 5e-4)
B3SQ_OVER_N = {
    7500: 0.25204839388717,
    7700: 0.041972869202633,
    7900: 0.022615120301252,
    8100: 0.015353203696692,
    8300: 0.011553271592562,
}


def _synthetic_ingredients(**overrides):
    base = dict(
        fisher_info=0.8,
        third_abs_score_moment=2.0,
        var_l2=0.0,
        c1_const=5.0,
        sup_x_norm=1.0,
        sup_x2_norm=1.0,
        epsilon=0.4,
    )
    base.update(overrides)
    return ImplicitModelIngredients(**base)


@pytest.fixture
def polygamma_calls(spy):
    """The arguments of every shared shift pass ``msebound`` makes."""
    return spy(msebound, "_polygammas")


class TestBetaIngredients:
    def test_b_constants(self):
        assert CONSTS["B2"] == pytest.approx(25.562962962962963, rel=1e-12, abs=0.0)
        assert CONSTS["B1"] == pytest.approx(39.807316257217488, rel=1e-9, abs=0.0)
        assert CONSTS["D_psi1"] == pytest.approx(4.0 / 9.0, rel=1e-12, abs=0.0)
        assert CONSTS["minimal_n"] == 7460

    def test_audit_builds_the_ingredients_once(self, polygamma_calls):
        # two shift passes for the ingredients, two more for B1
        audit = get_model("beta").audit(1.5, 7460)
        assert len(polygamma_calls) == 4
        assert list(audit) == ["model", "theta0", "beta", "B1", "B2", "D_psi1", "minimal_n",
                               "n", "B3"]
        assert audit["B3"] == beta_b3(P, 7460)

    def test_b1_against_independent_polygamma(self, mp):
        with mp.workdps(40):
            ref = float(
                8
                * (
                    mp.polygamma(3, mp.mpf("1.5"))
                    + mp.polygamma(3, mp.mpf("2.5"))
                    + 3 * mp.polygamma(1, mp.mpf("1.5")) ** 2
                    + 3 * mp.polygamma(1, mp.mpf("2.5")) ** 2
                )
            )
        assert CONSTS["B1"] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.01, 1.0, 1000.0])
    @pytest.mark.parametrize("theta0", [1e-3, 0.1, 1.5, 30.0, 1e3])
    def test_constants_bound_what_they_bound(self, theta0, beta, mp):
        # B2 = C1 >= sup |l'''| over the eps-ball: l''' = psi_2(theta + beta) -
        # psi_2(theta) falls in theta, so the sup sits at theta0 - eps = theta0/2;
        # B1 >= E score^4 = kappa_4 + 3 kappa_2^2, the cumulants of log X
        audit = get_model("beta", beta=beta).audit(theta0, None)
        with mp.workdps(30):
            t, b = mp.mpf(theta0), mp.mpf(beta)
            sup3 = mp.polygamma(2, t / 2 + b) - mp.polygamma(2, t / 2)
            kappa2 = mp.polygamma(1, t) - mp.polygamma(1, t + b)
            fourth = mp.polygamma(3, t) - mp.polygamma(3, t + b) + 3 * kappa2**2
            assert audit["B2"] >= sup3
            assert audit["B1"] >= fourth


class TestOneBuildARequest:
    """``registry.Model`` builds the Beta ingredients once for every bound,
    scale and information number that one request asks at one theta0."""

    @pytest.mark.parametrize(
        "args,passes",
        [
            (["simulate", "--model", "beta", "--theta0", "1.5", "--n", "7500", "--trials", "2"], 2),
            (["ci", "--model", "beta", "--theta0", "1.5", "--n", "7500", "--trials", "2"], 2),
            (["table", "3", "--trials", "2"], 2),
            (["mse-sweep", "--n-from", "7500", "--n-to", "7700", "--n-step", "100",
              "--trials", "2"], 2),
            # two shift passes for the ingredients, two more for B1
            (["constants", "--model", "beta", "--theta0", "1.5", "--n", "7460"], 4),
        ],
        ids=["simulate", "ci", "table-3", "mse-sweep", "constants"],
    )
    def test_polygamma_passes_of_a_verb(self, runner, polygamma_calls, args, passes):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(polygamma_calls) == passes

    def test_threads_sharing_a_model_at_two_theta0_get_their_own_values(self, monkeypatch):
        # Thread a's build at theta0 1.5 is held until thread b has asked
        # everything at 2.0; b asks again right after a's build is kept, and a
        # after that.  Each must get what a model of its own gives.
        n = {1.5: 7500, 2.0: 10200}

        def values(entry, theta0):
            return (entry.distance_bound(theta0, n[theta0]), entry.mse_bound(theta0, n[theta0]),
                    entry.standardize_scale(theta0, n[theta0]), entry.fisher_info(theta0))

        alone = {theta0: values(get_model("beta"), theta0) for theta0 in n}
        build, shared, got = msebound.beta_ingredients, get_model("beta"), {}
        a_building, b_asked, a_built, b_asked_again = (threading.Event() for _ in range(4))

        def held_build(p):
            if threading.current_thread().name == "a" and not a_building.is_set():
                a_building.set()
                b_asked.wait(10)
            return build(p)

        def a():
            first = shared.fisher_info(1.5)
            a_built.set()
            b_asked_again.wait(10)
            got[1.5] = (first, values(shared, 1.5))

        def b():
            a_building.wait(10)
            first = values(shared, 2.0)
            b_asked.set()
            a_built.wait(10)
            got[2.0] = (first, values(shared, 2.0))
            b_asked_again.set()

        monkeypatch.setattr(msebound, "beta_ingredients", held_build)
        threads = [threading.Thread(target=a, name="a"), threading.Thread(target=b, name="b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == {1.5: (alone[1.5][3], alone[1.5]), 2.0: (alone[2.0], alone[2.0])}

    @pytest.mark.parametrize(
        "bad,like",
        [(True, 1.0), ("1.5", 1.5), (np.array([1.5]), 1.5), (np.array([[1.0]]), 1.0)],
        ids=["bool", "str", "array", "2d-array"],
    )
    def test_a_reused_model_still_checks_theta0(self, bad, like):
        # the kept theta0 equals ``bad`` as a number: the check comes first
        entry = get_model("beta")
        calls = [
            entry.fisher_info,
            lambda theta0: entry.standardize_scale(theta0, 10543),
            lambda theta0: entry.distance_bound(theta0, 10543),
            lambda theta0: entry.mse_bound(theta0, 10543),
            lambda theta0: entry.audit(theta0, 10543),
        ]
        for call in calls:
            call(like)
            with pytest.raises(DomainError, match="^theta0 must be a finite real > 0"):
                call(bad)


class TestMinimalN:
    def test_equals_bisection_over_random_ingredients(self):
        # Every field log-uniform, so ||x^2|| and ||x||^2 almost never agree;
        # epsilon down to 1e-4 puts the minimal n up to ~1e19.
        rng = random.Random(20141108)
        u = lambda lo, hi: 10.0 ** rng.uniform(lo, hi)  # noqa: E731
        for _ in range(500):
            ing = ImplicitModelIngredients(u(-3, 3), u(-2, 2), rng.choice([0.0, u(-3, 2)]),
                                           u(-3, 3), u(-3, 3), u(-3, 3), u(-4, 0))
            m = minimal_n(ing)
            assert m == bisected_minimal_n(ing), ing
            assert mse_upper_bound_a1(ing, m) > 0.0
            if m > 1:
                with pytest.raises(DomainError, match=f"minimal n = {m} "):
                    mse_upper_bound_a1(ing, m - 1)

    def test_exact_root_is_excluded(self):
        # i = ||x|| = C1 = ||x^2|| = eps = 1: D1 = 1 - 2/n - 1/sqrt(n) is 0 at n = 4
        ing = ImplicitModelIngredients(1, 1, 0, 1, 1, 1, 1)
        assert decimal_d1(ing, 4) == 0
        assert minimal_n(ing) == 5
        mse_upper_bound_a1(ing, 5)
        with pytest.raises(DomainError, match="minimal n = 5 "):
            mse_upper_bound_a1(ing, 4)

    def test_one_when_d1_is_positive_at_one(self):
        ing = _synthetic_ingredients(c1_const=1e-3, sup_x2_norm=1e-3, epsilon=1.0)
        assert decimal_d1(ing, 1) > 0
        assert minimal_n(ing) == 1 == bisected_minimal_n(ing)

    @staticmethod
    def _fastest(call, repeats=5):
        """The fastest of a few calls, each on freshly built ingredients, so
        every call converts the fields to 50 digits anew."""
        times = []
        for _ in range(repeats):
            ing = ImplicitModelIngredients(1, 1, 0, 1, 1e-6, 1, 1e-6)
            start = time.perf_counter()
            call(ing)
            times.append(time.perf_counter() - start)
        return min(times)

    def test_tiny_epsilon_is_closed_form(self):
        # n* ~ 2 ||x^2|| / (i eps^2) = 2e12: a scan over n could not finish
        assert minimal_n(ImplicitModelIngredients(1, 1, 0, 1, 1e-6, 1, 1e-6)) == 2 * 10**12 + 2
        assert self._fastest(minimal_n) < 1e-3

    def test_tiny_epsilon_error_path_is_closed_form(self):
        def below(ing):
            with pytest.raises(DomainError, match=f"minimal n = {2 * 10**12 + 2} "):
                mse_upper_bound_a1(ing, 2 * 10**12 + 1)

        assert self._fastest(below) < 1e-3


class TestA1:
    @pytest.mark.parametrize("ing,n", [(beta_ingredients(P), 7500), (beta_ingredients(P), 8300),
                                       (_synthetic_ingredients(), 500),
                                       (_synthetic_ingredients(var_l2=0.7), 500)])
    def test_a1_is_the_positive_root(self, ing, n):
        # plugging A1 back into the quadratic D1 x^2 - b x - c leaves a
        # relative residual below 1e-9
        a1, dd, s, i = mse_upper_bound_a1(ing, n), float(decimal_d1(ing, n)), ing.sup_x_norm, ing.fisher_info
        b_lin = 2.0 * s * math.sqrt(ing.var_l2) / (n * i**1.5)
        c_const = (1.0 + 2.0 * s / math.sqrt(n) * (2.0 + ing.third_abs_score_moment / i**1.5)) / (n * i)
        residual = dd * a1 * a1 - b_lin * a1 - c_const
        assert abs(residual) <= 1e-9 * max(dd * a1 * a1, c_const)


def _assert_written_out(bd, ing, n):
    """The implicit distance bound ``bd`` at n has the four terms at A1 written
    out, in order, each within 2e-15."""
    a1, root_i = mse_upper_bound_a1(ing, n), math.sqrt(ing.fisher_info)
    written = (
        ("score", (2.0 + ing.third_abs_score_moment / ing.fisher_info**1.5) / math.sqrt(n)),
        ("markov_tail", 2.0 * a1**2 / ing.epsilon**2),
        ("taylor_remainder", math.sqrt(n) * ing.c1_const * a1**2 / (2.0 * root_i)),
        ("r2", math.sqrt(ing.var_l2) * a1 / root_i),
    )
    assert [label for label, _ in bd.terms] == [label for label, _ in written]
    for (_, got), (_, want) in zip(bd.terms, written):
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)


class TestImplicitDistanceBound:
    def test_var_l2_feeds_r2_term(self):
        ing = _synthetic_ingredients(var_l2=0.25)
        a1 = mse_upper_bound_a1(ing, 400)
        bd = implicit_distance_bound(ing, 400)
        assert dict(bd.terms)["r2"] == pytest.approx(0.5 * a1 / math.sqrt(ing.fisher_info))
        assert dict(implicit_distance_bound(_synthetic_ingredients(), 400).terms)["r2"] == 0.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("theta0", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
    def test_is_the_beta_bound_bit_for_bit(self, theta0, beta):
        # the bound-grid Beta lattice: every n from the minimal n on, the
        # general four-term assembly at MSE = the model's MSE bound (A1^2) and
        # sup |l'''| <= n C1 on the deterministic route, Taylor before R2
        p = BetaParams(theta0, beta)
        ing = beta_ingredients(p)
        entry = get_model("beta", beta=beta)
        floor = minimal_n(ing)
        for n in (floor, floor + 1, floor + 10, floor + 300, floor + 10000, floor + 150000):
            bd = implicit_distance_bound(ing, n)
            assert bd == beta_distance_bound(p, n)
            general = mle_bound_general(BoundIngredients(
                theta0, n, ing.fisher_info, ing.third_abs_score_moment, entry.mse_bound(theta0, n),
                0.0, n * ing.c1_const, 0.0, ing.epsilon, sup_third_is_deterministic=True,
            ))
            score, markov, r2, taylor = general.terms
            assert bd.terms == (score, markov, taylor, r2)
            _assert_written_out(bd, ing, n)
        with pytest.raises(DomainError, match=f"minimal n = {floor} "):
            implicit_distance_bound(ing, floor - 1)
        with pytest.raises(DomainError, match=f"minimal n = {floor} "):
            beta_b3(p, floor - 1)


class TestBetaB3:
    @pytest.mark.parametrize("n,ref", sorted(B3SQ_OVER_N.items()))
    def test_frozen_table(self, n, ref):
        b3 = beta_b3(P, n)
        assert b3 * b3 / n == pytest.approx(ref, rel=1e-9, abs=0.0)
        # published 4-decimal values within their rounding tolerance
        published = {7500: 0.2517, 7700: 0.0416, 7900: 0.0223, 8100: 0.0151, 8300: 0.0112}
        assert b3 * b3 / n == pytest.approx(published[n], abs=5e-4)


class TestBetaDistanceBound:
    def test_term_structure_at_7500(self):
        bd = beta_distance_bound(P, 7500)
        terms = dict(bd.terms)
        assert terms["score"] == pytest.approx(0.64070543372, abs=1e-8)
        assert terms["markov_tail"] == pytest.approx(0.89617206715, abs=1e-7)
        assert terms["taylor_remainder"] == pytest.approx(418.49186501, abs=1e-4)
        assert terms["r2"] == 0.0
        assert bd.total == pytest.approx(420.02874251, abs=1e-4)

    def test_strictly_decreasing_in_n(self):
        ns = [7460, 7500, 7700, 8000, 8459, 10**4, 10**5, 10**6]
        totals = [beta_distance_bound(P, n).total for n in ns]
        assert all(x > y for x, y in zip(totals, totals[1:]))

    def test_scaled_limit(self):
        # sqrt(n) * total -> (2 + B1^(3/4)/D^(3/2)) + B2/(2 D^(3/2))
        dpsi, b1, b2 = CONSTS["D_psi1"], CONSTS["B1"], CONSTS["B2"]
        limit = (2.0 + b1**0.75 / dpsi**1.5) + b2 / (2.0 * dpsi**1.5)
        n = 10**12
        assert math.sqrt(n) * beta_distance_bound(P, n).total == pytest.approx(
            limit, rel=1e-4
        )


def _mean_logs(theta0, beta, n, trials, seed=1):
    xs = np.random.default_rng(seed).beta(theta0, beta, size=(trials, n))
    return np.log(xs).mean(axis=1)


class TestBetaShapeRoots:
    @pytest.mark.parametrize("beta", [0.5, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("n", [5, 7, 50, 12000])
    @pytest.mark.parametrize("theta0", [0.3, 1.5, 8.0])
    def test_matches_the_bracketed_scalar_root(self, theta0, beta, n):
        stats = _mean_logs(theta0, beta, n, 20 if n > 1000 else 60)
        roots = beta_shape_roots(stats, beta)
        for stat, root in zip(stats.tolist(), roots.tolist()):
            assert root == pytest.approx(bracketed_beta_root(n, stat * n, beta), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [2.5, 2.0, 16.0])
    def test_a_lane_does_not_depend_on_its_row(self, beta):
        # lanes converging after different step counts, in one row; at beta =
        # 16 a one-lane sum of 16 terms would add pairwise if it were a
        # reduction, and a wider row's in order
        stats = np.concatenate([_mean_logs(t, beta, 7, 100) for t in (0.05, 1.5, 40.0)])
        row = beta_shape_roots(stats, beta)
        assert row.tolist() == [beta_shape_roots([s], beta)[0] for s in stats.tolist()]
        assert beta_shape_roots(stats[::-1], beta).tolist() == row[::-1].tolist()

    @pytest.mark.parametrize(
        "theta0,beta", [(1.5, 0.1), (8.0, 0.1), (400.0, 0.1), (400.0, 0.5), (0.05, 17.0)]
    )
    def test_within_a_few_ulps_of_the_exact_root(self, theta0, beta, mp):
        # where cancellation in psi(theta + beta) - psi(theta) put the scalar
        # root up to ~5e-10 off
        stats = _mean_logs(theta0, beta, 5, 10)
        for stat, root in zip(stats.tolist(), beta_shape_roots(stats, beta).tolist()):
            with mp.workdps(40):
                exact = mp.findroot(
                    lambda t: mp.digamma(t + beta) - mp.digamma(t) + mp.mpf(stat), root
                )
            assert root == pytest.approx(float(exact), rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0, 16.0])
    def test_integer_shape_within_4e16_of_the_exact_root(self, beta, mp):
        # the exact root of sum_{k<beta} 1/(theta + k) = -mean_log: 40-digit
        # Newton from the float root, which squares a ~1e-16 error each step
        stats = np.concatenate(
            [_mean_logs(t, beta, n, 50) for t in (0.05, 0.3, 1.5, 8.0, 40.0) for n in (5, 20)]
        )
        ks = range(int(beta))
        with mp.workdps(40):
            for stat, root in zip(stats.tolist(), beta_shape_roots(stats, beta).tolist()):
                t, exact = -mp.mpf(stat), mp.mpf(root)
                for _ in range(3):
                    score = mp.fsum(1 / (exact + k) for k in ks)
                    exact += (score - t) / mp.fsum(1 / (exact + k) ** 2 for k in ks)
                assert root == pytest.approx(float(exact), rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0, 16.0])
    def test_integer_shape_start_is_at_most_the_root(self, beta):
        stats = np.concatenate(
            [_mean_logs(t, beta, n, 20) for t in (0.05, 1.5, 40.0, 400.0) for n in (5, 12000)]
        )
        start = msebound._finite_sum_start(-stats, beta)
        assert np.all(start <= beta_shape_roots(stats, beta))
        # never below -1/mean_log, where the series path starts
        assert np.all(start >= -1.0 / stats)

    def test_beta_one_is_the_closed_form(self):
        stats = _mean_logs(1.5, 1.0, 50, 40)
        assert beta_shape_roots(stats, 1.0) == pytest.approx(-1.0 / stats, rel=4e-16, abs=0.0)

    def test_far_statistics(self):
        # roots near beta/|mean_log| and 1/|mean_log|; beyond ~1e150 a*b
        # overflows and the iteration reports that it did not converge
        assert beta_shape_roots([-1e-100], 2.0)[0] == pytest.approx(2e100, rel=1e-12, abs=0.0)
        assert beta_shape_roots([-1e300], 0.5)[0] == pytest.approx(1e-300, rel=1e-12, abs=0.0)
        with pytest.raises(ConvergenceError):
            beta_shape_roots([-1e-300], 2.0)

    def test_root_that_underflows_to_zero_is_a_float_range_error(self):
        # the start 1/|mean_log| is subnormal, and halving takes it to 0
        with pytest.raises(FloatRangeError, match="beta_shape_roots"):
            beta_shape_roots([-1.797e308], 0.5)
        with pytest.raises(FloatRangeError):
            beta_shape_roots([-0.5, -1.797e308], 0.5)

    @pytest.mark.parametrize(
        "bad", [[0.0], [-0.5, 0.1], [-math.inf], [math.nan], [[-0.5]]]
    )
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            beta_shape_roots(bad, 2.0)

    def test_empty_row(self):
        assert beta_shape_roots([], 2.0).size == 0


# (theta0, beta) pairs from 1e-3 to 1e5 and from 0.01 to 1000 (54 pairs), then
# the bound-grid Beta lattice, theta0 from 0.5 to 8 and beta from 0.5 to 4 (30
# pairs more)
_ORACLE_PAIRS = list(dict.fromkeys(
    [(theta0, beta) for theta0 in (1e-3, 1e-2, 0.1, 0.5, 1.5, 4.0, 30.0, 1e3, 1e5)
     for beta in (0.01, 0.3, 1.0, 2.5, 40.0, 1000.0)]
    + [(theta0, beta) for theta0 in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
       for beta in (0.5, 1.0, 2.0, 4.0)]))


def _oracle_ns(floor):
    """n from the minimal n to 10^8 times it, and one n beyond 2^53."""
    return (floor, floor + 1, floor + 3, floor + 1000, 2 * floor, 1000 * floor + 7,
            10**8 * floor, 3 * 2**53 + floor)


def _assert_above_within(pairs):
    """Each (got, 50-digit want, relative tolerance): want <= got <= want (1 + tol)."""
    for got, want, tol in pairs:
        assert want <= Decimal(got) <= want * (1 + Decimal(tol)), (got, want)


def _oracle_total(ing, n, bd):
    """The 50-digit total at the bound's own score term, rounded to float as
    every total is: a total is fsummed from its terms, so it is at or above
    this whenever its terms sum to at least the 50-digit value."""
    return Decimal(float(decimal_implicit_total(ing, n, dict(bd.terms)["score"])))


class TestAgainstTheDecimalOracle:
    """B3, A1 and the distance bound's total against the 50-digit pass of
    ``oracles.decimal_b3_a1``: never below it.  B3 and A1 carry the rounding
    margin once, within 2e-15 relative; the total's Markov and Taylor terms
    carry it twice, through A1^2, and its fsum rounds to nearest."""

    @pytest.mark.parametrize("theta0,beta", _ORACLE_PAIRS)
    def test_beta_pair(self, theta0, beta):
        p = BetaParams(theta0, beta)
        ing = beta_ingredients(p)
        floor = minimal_n(ing)
        assert floor == bisected_minimal_n(ing)
        for n in _oracle_ns(floor):
            b3, a1 = decimal_b3_a1(ing, n)
            bd = implicit_distance_bound(ing, n)
            total = _oracle_total(ing, n, bd)
            _assert_above_within([(beta_b3(p, n), b3, "2e-15"),
                                  (mse_upper_bound_a1(ing, n), a1, "2e-15"),
                                  (bd.total, total, "4.5e-15")])

    @pytest.mark.parametrize("ing,a1_tol,total_tol", [
        # the x + sqrt(x^2 + ...) route, with its wider margin
        (_synthetic_ingredients(var_l2=0.7), "4.5e-15", "9e-15"),
        # a minimal n near 2e36, where forming D1 cancels 37 digits
        (ImplicitModelIngredients(1, 1, 0, 1, 1, 1, 1e-18), "2e-15", "4.5e-15"),
    ], ids=["var_l2_above_zero", "minimal_n_of_37_digits"])
    def test_synthetic_ingredients(self, ing, a1_tol, total_tol):
        floor = minimal_n(ing)
        assert floor == bisected_minimal_n(ing)
        for n in _oracle_ns(floor):
            _, a1 = decimal_b3_a1(ing, n)
            bd = implicit_distance_bound(ing, n)
            _assert_above_within([(mse_upper_bound_a1(ing, n), a1, a1_tol),
                                  (bd.total, _oracle_total(ing, n, bd), total_tol)])
            # each term, R2 = sqrt(Var l'') A1 / sqrt(i) among them, written out
            _assert_written_out(bd, ing, n)
