"""Implicit-MLE MSE bound and its Beta specialisation: frozen values and roots.

Reference numbers come from an independent 50-digit evaluation using
mpmath's own polygamma (a different algorithm from the package's evaluator).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import beta_score, bracketed_beta_root
from scipy.special import gammaln

from steinmle import msebound
from steinmle.errors import ConvergenceError, DegenerateSampleError, DomainError
from steinmle.registry import get_model
from steinmle.msebound import (
    BetaParams,
    ImplicitModelIngredients,
    beta_b3,
    beta_b_constants,
    beta_distance_bound,
    beta_ingredients,
    beta_shape_roots,
    d1,
    implicit_distance_bound,
    minimal_n,
    mse_upper_bound_a1,
)

P = BetaParams(1.5, 1.0)

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


class TestBetaParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            BetaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            BetaParams(1.0, -1.0)


class TestBetaIngredients:
    def test_fisher_is_polygamma_difference(self):
        ing = beta_ingredients(P)
        # beta = 1 identity: psi_1(t) - psi_1(t+1) = 1/t^2 exactly
        assert ing.fisher_info == pytest.approx(1.0 / 1.5**2, rel=1e-12)

    def test_b_constants(self):
        consts = beta_b_constants(P)
        assert consts["B2"] == pytest.approx(25.562962962962963, rel=1e-12)
        assert consts["B1"] == pytest.approx(39.807316257217488, rel=1e-9)
        assert consts["D_psi1"] == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert consts["minimal_n"] == 7460

    def test_b1_against_independent_polygamma(self):
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
        assert beta_b_constants(P)["B1"] == pytest.approx(ref, rel=1e-12)

    def test_var_l2_zero_and_unit_sup_norms(self):
        ing = beta_ingredients(P)
        assert ing.var_l2 == 0.0
        assert ing.sup_x_norm == 1.0 and ing.sup_x2_norm == 1.0

    def test_epsilon_default_and_override(self):
        assert beta_ingredients(P).epsilon == pytest.approx(0.75)
        ing = beta_ingredients(P, epsilon=0.5)
        assert ing.c1_const == pytest.approx(6.0 / 1.0**4 + 6.6)
        with pytest.raises(DomainError):
            beta_ingredients(P, epsilon=2.0)

    @given(
        theta0=st.floats(min_value=0.05, max_value=50.0),
        beta=st.floats(min_value=0.05, max_value=50.0),
    )
    def test_fisher_positive(self, theta0, beta):
        ing = beta_ingredients(BetaParams(theta0, beta))
        assert ing.fisher_info > 0.0


class TestD1:
    def test_limit_is_one(self):
        assert d1(beta_ingredients(P), 10**14) == pytest.approx(1.0, abs=1e-5)

    def test_sign_change_at_minimal_n(self):
        ing = beta_ingredients(P)
        assert d1(ing, 7460) > 0.0
        assert d1(ing, 7459) <= 0.0
        assert d1(ing, 7000) <= 0.0


class TestMinimalN:
    def test_beta_reference(self):
        assert minimal_n(beta_ingredients(P)) == 7460

    def test_zero_c1_limit(self):
        ing = _synthetic_ingredients(c1_const=1e-12)
        expected = math.ceil(2.0 / (ing.fisher_info * ing.epsilon**2))
        assert abs(minimal_n(ing) - expected) <= 1

    def test_monotone_in_epsilon(self):
        n_half = minimal_n(_synthetic_ingredients(epsilon=0.4))
        n_quarter = minimal_n(_synthetic_ingredients(epsilon=0.2))
        assert n_quarter > n_half

    def test_consistent_with_d1(self):
        for ing in (beta_ingredients(P), _synthetic_ingredients()):
            m = minimal_n(ing)
            assert d1(ing, m) > 0.0
            if m > 1:
                assert d1(ing, m - 1) <= 0.0


class TestA1:
    def test_reduces_when_var_l2_zero(self):
        ing = beta_ingredients(P)
        n = 7500
        dd = d1(ing, n)
        expected = (
            1.0
            / (2.0 * dd)
            * math.sqrt(
                4.0
                * dd
                / (n * ing.fisher_info)
                * (
                    1.0
                    + 2.0
                    / math.sqrt(n)
                    * (2.0 + ing.third_abs_score_moment / ing.fisher_info**1.5)
                )
            )
        )
        assert mse_upper_bound_a1(ing, n) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n,ref", sorted(B3SQ_OVER_N.items()))
    def test_squared_matches_frozen_table(self, n, ref):
        a1 = mse_upper_bound_a1(beta_ingredients(P), n)
        assert a1 * a1 == pytest.approx(ref, rel=1e-9)

    def test_rejects_below_minimal_n(self):
        with pytest.raises(DomainError, match="minimal n"):
            mse_upper_bound_a1(beta_ingredients(P), 7000)

    @pytest.mark.parametrize(
        "ing,n",
        [
            (beta_ingredients(P), 7500),
            (beta_ingredients(P), 8300),
            (_synthetic_ingredients(), 500),
            (_synthetic_ingredients(var_l2=0.7), 500),
        ],
    )
    def test_a1_is_the_positive_root(self, ing, n):
        # plugging A1 back into the quadratic D1 x^2 - b x - c leaves a
        # relative residual below 1e-9
        a1 = mse_upper_bound_a1(ing, n)
        dd = d1(ing, n)
        b_lin = 2.0 * ing.sup_x_norm * math.sqrt(ing.var_l2) / (n * ing.fisher_info**1.5)
        c_const = (
            1.0
            + 2.0
            * ing.sup_x_norm
            / math.sqrt(n)
            * (2.0 + ing.third_abs_score_moment / ing.fisher_info**1.5)
        ) / (n * ing.fisher_info)
        residual = dd * a1 * a1 - b_lin * a1 - c_const
        assert abs(residual) <= 1e-9 * max(dd * a1 * a1, c_const)


class TestImplicitDistanceBound:
    def test_reduces_to_score_term(self):
        ing = beta_ingredients(P)
        bd = implicit_distance_bound(ing, 8000, 0.0)
        assert bd.term("markov_tail") == 0.0
        assert bd.term("taylor_remainder") == 0.0
        assert bd.term("r2") == 0.0
        assert bd.total == bd.term("score")

    def test_monotone_in_a1(self):
        ing = beta_ingredients(P)
        totals = [implicit_distance_bound(ing, 8000, a).total for a in (0.0, 0.1, 0.5, 1.0)]
        assert all(x < y for x, y in zip(totals, totals[1:]))

    def test_var_l2_feeds_r2_term(self):
        ing = _synthetic_ingredients(var_l2=0.25)
        bd = implicit_distance_bound(ing, 400, 0.2)
        assert bd.term("r2") == pytest.approx(0.5 * 0.2 / math.sqrt(ing.fisher_info))


class TestBetaB3:
    @pytest.mark.parametrize("n,ref", sorted(B3SQ_OVER_N.items()))
    def test_frozen_table(self, n, ref):
        b3 = beta_b3(P, n)
        assert b3 * b3 / n == pytest.approx(ref, rel=1e-9)
        # published 4-decimal values within their rounding tolerance
        published = {7500: 0.2517, 7700: 0.0416, 7900: 0.0223, 8100: 0.0151, 8300: 0.0112}
        assert b3 * b3 / n == pytest.approx(published[n], abs=5e-4)

    def test_rejects_below_minimal(self):
        with pytest.raises(DomainError, match="minimal n = 7460"):
            beta_b3(P, 7459)

    def test_agrees_with_a1(self):
        for n in (7500, 8300, 20000):
            assert beta_b3(P, n) == pytest.approx(
                math.sqrt(n) * mse_upper_bound_a1(beta_ingredients(P), n), rel=1e-10
            )


class TestBetaDistanceBound:
    def test_term_structure_at_7500(self):
        bd = beta_distance_bound(P, 7500)
        assert bd.term("score") == pytest.approx(0.64070543372, abs=1e-8)
        assert bd.term("markov_tail") == pytest.approx(0.89617206715, abs=1e-7)
        assert bd.term("taylor_remainder") == pytest.approx(418.49186501, abs=1e-4)
        assert bd.term("r2") == 0.0
        assert bd.total == pytest.approx(420.02874251, abs=1e-4)

    def test_matches_closed_form_combination(self):
        # the displayed three-term closed form, assembled independently here
        consts = beta_b_constants(P)
        dpsi, b1, b2 = consts["D_psi1"], consts["B1"], consts["B2"]
        for n in (7500, 8300, 100000):
            b3 = beta_b3(P, n)
            expected = (
                (2.0 + b1**0.75 / dpsi**1.5) / math.sqrt(n)
                + 8.0 * b3**2 / (n * 1.5**2)
                + b2 * b3**2 / (2.0 * math.sqrt(n) * math.sqrt(dpsi))
            )
            assert beta_distance_bound(P, n).total == pytest.approx(expected, rel=1e-10)

    def test_strictly_decreasing_in_n(self):
        ns = [7460, 7500, 7700, 8000, 8459, 10**4, 10**5, 10**6]
        totals = [beta_distance_bound(P, n).total for n in ns]
        assert all(x > y for x, y in zip(totals, totals[1:]))

    def test_scaled_limit(self):
        # sqrt(n) * total -> (2 + B1^(3/4)/D^(3/2)) + B2/(2 D^(3/2))
        consts = beta_b_constants(P)
        dpsi, b1, b2 = consts["D_psi1"], consts["B1"], consts["B2"]
        limit = (2.0 + b1**0.75 / dpsi**1.5) + b2 / (2.0 * dpsi**1.5)
        n = 10**12
        assert math.sqrt(n) * beta_distance_bound(P, n).total == pytest.approx(
            limit, rel=1e-4
        )


def test_beta_audit_takes_one_polygamma_pass_per_argument(monkeypatch):
    # psi_1 and psi_3 at theta0 and at theta0 + beta, shared by the
    # ingredients, the constants and B3
    calls = []

    def counted(x, orders):
        calls.append(x)
        return polygammas(x, orders)

    polygammas = msebound._polygammas
    monkeypatch.setattr(msebound, "_polygammas", counted)
    audit = get_model("beta", beta=2.0).audit(1.5, 12000)
    assert calls == [1.5, 3.5]
    assert audit["B3"] == beta_b3(BetaParams(1.5, 2.0), 12000)


def _beta_mle(xs, beta):
    """The registered Beta estimator at the sample's mean log-observation."""
    return get_model("beta", beta=beta).mle_from_stat(math.fsum(np.log(xs)) / len(xs), len(xs))


class TestBetaMle:
    def test_closed_form_beta_one(self):
        rng = np.random.default_rng(7)
        xs = rng.beta(1.5, 1.0, size=400)
        theta = _beta_mle(xs, 1.0)
        closed = -len(xs) / math.fsum(math.log(v) for v in xs)
        assert theta == pytest.approx(closed, rel=1e-10)

    def test_constant_sample_identity(self):
        theta_star = 2.7
        xs = [math.exp(-1.0 / theta_star)] * 25
        assert _beta_mle(xs, 1.0) == pytest.approx(theta_star, rel=1e-10)

    def test_score_residual_beta_two(self):
        rng = np.random.default_rng(11)
        xs = rng.beta(1.3, 2.0, size=300)
        theta = _beta_mle(xs, 2.0)
        n = len(xs)
        sum_log = math.fsum(math.log(v) for v in xs)
        assert abs(beta_score(theta, 2.0, n, sum_log)) < 1e-9 * n

    def test_grid_search_oracle_beta_two(self):
        rng = np.random.default_rng(23)
        xs = rng.beta(0.9, 2.0, size=200)
        n = len(xs)
        sum_log = float(np.log(xs).sum())
        sum_log1m = float(np.log1p(-xs).sum())
        grid = np.linspace(1e-4, 50.0, 10**6)
        loglik = (
            n * (gammaln(grid + 2.0) - gammaln(grid))
            + (grid - 1.0) * sum_log
            + (2.0 - 1.0) * sum_log1m
        )
        best = float(grid[int(np.argmax(loglik))])
        spacing = float(grid[1] - grid[0])
        assert abs(_beta_mle(xs, 2.0) - best) <= spacing

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            get_model("beta", beta=0.0)
        for beta in (1.0, 2.0):
            model = get_model("beta", beta=beta)
            for mean_log in (0.0, 0.5):
                with pytest.raises(DegenerateSampleError):
                    model.mle_from_stat(mean_log, 3)


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
            assert root == pytest.approx(bracketed_beta_root(n, stat * n, beta), rel=1e-12)

    def test_a_lane_does_not_depend_on_its_row(self):
        # lanes converging after different step counts, in one row
        stats = np.concatenate([_mean_logs(t, 2.5, 7, 30) for t in (0.05, 1.5, 40.0)])
        row = beta_shape_roots(stats, 2.5)
        assert row.tolist() == [beta_shape_roots([s], 2.5)[0] for s in stats.tolist()]
        assert beta_shape_roots(stats[::-1], 2.5).tolist() == row[::-1].tolist()

    @pytest.mark.parametrize(
        "theta0,beta", [(1.5, 0.1), (8.0, 0.1), (400.0, 0.1), (400.0, 0.5), (0.05, 17.0)]
    )
    def test_within_a_few_ulps_of_the_exact_root(self, theta0, beta):
        # where cancellation in psi(theta + beta) - psi(theta) put the scalar
        # root up to ~5e-10 off
        stats = _mean_logs(theta0, beta, 5, 10)
        for stat, root in zip(stats.tolist(), beta_shape_roots(stats, beta).tolist()):
            with mp.workdps(40):
                exact = mp.findroot(
                    lambda t: mp.digamma(t + beta) - mp.digamma(t) + mp.mpf(stat), root
                )
            assert root == pytest.approx(float(exact), rel=4e-16)

    def test_beta_one_is_the_closed_form(self):
        stats = _mean_logs(1.5, 1.0, 50, 40)
        assert beta_shape_roots(stats, 1.0) == pytest.approx(-1.0 / stats, rel=4e-16)

    def test_far_statistics(self):
        # roots near beta/|mean_log| and 1/|mean_log|; beyond ~1e150 a*b
        # overflows and the iteration reports that it did not converge
        assert beta_shape_roots([-1e-100], 2.0)[0] == pytest.approx(2e100, rel=1e-12)
        assert beta_shape_roots([-1e300], 0.5)[0] == pytest.approx(1e-300, rel=1e-12)
        with pytest.raises(ConvergenceError):
            beta_shape_roots([-1e-300], 2.0)

    @pytest.mark.parametrize(
        "bad", [[0.0], [-0.5, 0.1], [-math.inf], [math.nan], [[-0.5]]]
    )
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            beta_shape_roots(bad, 2.0)

    def test_empty_row(self):
        assert beta_shape_roots([], 2.0).size == 0


class TestIngredientValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            _synthetic_ingredients(fisher_info=0.0)
        with pytest.raises(DomainError):
            _synthetic_ingredients(var_l2=-1.0)
        with pytest.raises(DomainError):
            _synthetic_ingredients(epsilon=-0.1)


class TestIntegerTypesForN:
    """numpy integers are integers: every n check takes them, bool it rejects."""

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_integers_give_the_plain_int_result(self, int_type):
        ing = beta_ingredients(P)
        n = int_type(7500)
        assert beta_b3(P, n) == beta_b3(P, 7500)
        assert d1(ing, n) == d1(ing, 7500)
        assert mse_upper_bound_a1(ing, n) == mse_upper_bound_a1(ing, 7500)
        assert beta_distance_bound(P, n).total == beta_distance_bound(P, 7500).total
        assert (
            implicit_distance_bound(ing, n, 0.01).total
            == implicit_distance_bound(ing, 7500, 0.01).total
        )

    def test_bool_rejected(self):
        ing = beta_ingredients(P)
        for call in (
            lambda: beta_b3(P, True),
            lambda: beta_distance_bound(P, True),
            lambda: d1(ing, True),
            lambda: mse_upper_bound_a1(ing, True),
            lambda: implicit_distance_bound(ing, True, 0.01),
        ):
            with pytest.raises(DomainError):
                call()


def _mpmath_reference(ing, n):
    """D1, B3 and A1 at n, and the minimal n, in mpmath at 50 digits.

    The same formulas as the package, in a different extended-precision
    arithmetic (binary, ~169 bits, against the package's 50-digit decimal).
    """
    with mp.workdps(50):
        nn, i = mp.mpf(n), mp.mpf(ing.fisher_info)
        eps, c1 = mp.mpf(ing.epsilon), mp.mpf(ing.c1_const)
        x, x2, var = mp.mpf(ing.sup_x_norm), mp.mpf(ing.sup_x2_norm), mp.mpf(ing.var_l2)
        third = mp.mpf(ing.third_abs_score_moment)
        i32 = i ** mp.mpf("1.5")
        dd = 1 - 2 * x2 / (nn * i * eps**2) - x * c1 / (mp.sqrt(nn) * i32)
        b3 = mp.sqrt((4 + (8 / mp.sqrt(nn)) * (2 + third / i32)) * dd) / (2 * mp.sqrt(i) * dd)
        lin = 2 * x * mp.sqrt(var) / (nn * i32)
        rad = 4 * x**2 * var / (nn**2 * i**3) + (4 * dd / (nn * i)) * (
            1 + (2 * x / mp.sqrt(nn)) * (2 + third / i32)
        )
        a1 = (lin + mp.sqrt(rad)) / (2 * dd)
        ce = c1 * eps
        floor = mp.ceil(x**2 * (ce + mp.sqrt(ce**2 + 8 * i**2)) ** 2 / (4 * i**3 * eps**2))
        return float(dd), float(b3), float(a1), int(floor)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("theta0", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
def test_decimal_combination_equals_mpmath(theta0, beta):
    # the bound-grid Beta lattice: every float must be the same bit for bit
    p = BetaParams(theta0, beta)
    ing = beta_ingredients(p)
    floor = minimal_n(ing)
    for offset in (0, 1, 10, 300):
        n = floor + offset
        want_d1, want_b3, want_a1, want_floor = _mpmath_reference(ing, n)
        assert floor == want_floor
        assert d1(ing, n) == want_d1
        assert beta_b3(p, n) == want_b3
        assert mse_upper_bound_a1(ing, n) == want_a1
