"""Exponential-family ingredient formulas against quadrature oracles."""

import math
from fractions import Fraction

import pytest
from oracles import expfam_fisher_info, expfam_third_score_moment

from steinmle.errors import DomainError
from steinmle.expfam import (
    EXP_THIRD_ABS_BOUND,
    exp_canonical_ingredients,
    exp_noncanonical_ingredients,
)
from steinmle.steincore import mle_bound_general, score_bound


def exp_third_abs_central(theta0, mp):
    """Quadrature oracle for E|1/theta - X|^3, X ~ Exp(theta)."""
    with mp.workdps(30):
        theta = mp.mpf(theta0)
        val = mp.quad(
            lambda x: abs(1 / theta - x) ** 3 * theta * mp.e ** (-theta * x),
            [0, 1 / theta, mp.inf],
        )
        return float(val)


def mean_law_quadrature(f, n, lam, mid, mp):
    """Quadrature oracle for E f(T), T ~ Gamma(n, rate lam): the law of the
    sample mean, split at ``mid``."""
    with mp.workdps(30):
        density = lambda t: t ** (n - 1) * mp.e ** (-lam * t) * lam**n / mp.gamma(n)  # noqa: E731
        return float(mp.quad(lambda t: f(t) * density(t), [0, mid, mp.inf]))


class TestGenericOps:
    """Both builders against the generic formulas with T(x) = -x: the
    canonical k(theta) = theta has k' = 1, the mean parametrisation
    k(theta) = 1/theta has k' = -1/theta^2."""

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("build,field,generic", [
        # Var T = 1/theta^2 at rate theta
        (exp_canonical_ingredients, "fisher_info", lambda t: expfam_fisher_info(1.0, 1.0 / t**2)),
        # Var(-X) = theta^2 at mean theta; at theta 2, fisher = 1/16 * 4 = 1/4
        (exp_noncanonical_ingredients, "fisher_info", lambda t: expfam_fisher_info(-1.0 / t**2, t**2)),
        # E|T - D|^3 = E|X - 1/theta|^3 <= EXP_THIRD_ABS_BOUND / theta^3
        (exp_canonical_ingredients, "third_abs_score_moment",
         lambda t: expfam_third_score_moment(1.0, EXP_THIRD_ABS_BOUND / t**3)),
        # E|T - D|^3 = E|X - theta|^3 <= EXP_THIRD_ABS_BOUND * theta^3 at mean theta
        (exp_noncanonical_ingredients, "third_abs_score_moment",
         lambda t: expfam_third_score_moment(-1.0 / t**2, EXP_THIRD_ABS_BOUND * t**3)),
    ], ids=["fisher_info_canonical", "fisher_info_noncanonical", "third_moment_canonical",
            "third_moment_noncanonical"])
    def test_field_equals_the_generic_formula(self, build, field, generic, theta0):
        got = getattr(build(theta0, 10), field)
        assert got == pytest.approx(generic(theta0), rel=1e-14, abs=0.0)


class TestThirdMomentConstant:
    def test_constant_is_a_valid_upper_bound(self, mp):
        # exact value is 12/e - 2; the shipped constant must dominate it with
        # slack below 1e-3 (it is a rounded-up literal)
        for theta0 in (0.5, 1.0, 3.0):
            exact = exp_third_abs_central(theta0, mp)
            bound = EXP_THIRD_ABS_BOUND / theta0**3
            assert exact <= bound
            assert bound - exact < 1e-3
        assert exp_third_abs_central(1.0, mp) == pytest.approx(12.0 / math.e - 2.0, rel=1e-12, abs=0.0)


class TestCanonicalIngredients:
    def test_field_values(self):
        ing = exp_canonical_ingredients(2.0, 10)
        assert ing.fisher_info == pytest.approx(0.25)
        assert ing.third_abs_score_moment == pytest.approx(2.41456 / 8.0)
        assert ing.mse == pytest.approx(12.0 * 4.0 / 72.0)
        assert ing.r2_conditional_bound == 0.0
        assert ing.sup_third_deriv == pytest.approx(16.0 * 10 / 8.0)
        assert ing.epsilon == 1.0
        assert ing.sup_third_is_deterministic

    def test_epsilon_override(self):
        ing = exp_canonical_ingredients(1.0, 10, epsilon=0.25)
        assert ing.sup_third_deriv == pytest.approx(2.0 * 10 / 0.75**3)
        with pytest.raises(DomainError):
            exp_canonical_ingredients(1.0, 10, epsilon=1.5)

    def test_mse_against_quadrature(self, mp):
        # estimator 1/mean has mean-Gamma distribution; integrate directly
        n, theta0 = 6, 1.3
        ref = mean_law_quadrature(lambda t: (1 / t - theta0) ** 2, n, n * theta0, 1 / theta0, mp)
        assert exp_canonical_ingredients(theta0, n).mse == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [5, 10, 1000, 10**6, 10**18])
    @pytest.mark.parametrize("theta0", [1.0, 1.3, 1e-20])
    def test_fourth_moment_against_exact_fractions(self, theta0, n):
        # E(1/mean - theta0)^4 from the raw moments E(1/mean)^k =
        # (n theta0)^k / ((n-1)...(n-k)), in exact rational arithmetic;
        # the float is within 4 ulp and never negative
        t = Fraction(theta0)
        raw = [Fraction(1)]
        for k in range(1, 5):
            raw.append(raw[-1] * n * t / (n - k))
        exact = raw[4] - 4 * t * raw[3] + 6 * t**2 * raw[2] - 4 * t**3 * raw[1] + t**4
        got = exp_canonical_ingredients(theta0, n).fourth_mle_moment
        assert abs(Fraction(got) - exact) <= exact / 2**50


class TestNonCanonicalIngredients:
    def test_field_values(self):
        ing = exp_noncanonical_ingredients(2.0, 10)
        assert ing.fisher_info == pytest.approx(0.25)
        assert ing.mse == pytest.approx(0.4)
        assert ing.fourth_mle_moment == pytest.approx(3.0 * 16.0 / 100.0 * 1.2)
        assert ing.r2_conditional_bound == pytest.approx(1.0)
        assert ing.sup_third_deriv == pytest.approx(160.0 * 10 / 8.0)
        assert not ing.sup_third_is_deterministic

    def test_fourth_moment_against_quadrature(self, mp):
        n, theta0 = 7, 2.0
        ref = mean_law_quadrature(lambda t: (t - theta0) ** 4, n, n / mp.mpf(theta0), theta0, mp)
        assert exp_noncanonical_ingredients(theta0, n).fourth_mle_moment == pytest.approx(
            ref, rel=1e-9
        )


class TestClosedFormTotals:
    @pytest.mark.parametrize("n", [3, 10, 100, 10**4])
    def test_canonical_unit_weight_closed_form(self, n):
        # 4.41456/sqrt(n) + 8(n+2)/((n-1)(n-2)) + 8 sqrt(n) (n+2)/((n-1)(n-2))
        got = mle_bound_general(exp_canonical_ingredients(1.0, n), (1.0, 1.0)).total
        expected = (
            4.41456 / math.sqrt(n)
            + 8.0 * (n + 2) / ((n - 1) * (n - 2))
            + 8.0 * math.sqrt(n) * (n + 2) / ((n - 1) * (n - 2))
        )
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 10, 100, 10**4])
    @pytest.mark.parametrize("theta0", [0.5, 1.0, 4.0])
    def test_noncanonical_unit_weight_closed_form(self, n, theta0):
        # 4.41456/sqrt(n) + 8/n + 2/sqrt(n) + 80 sqrt(3(2/n + 1))/sqrt(n),
        # independent of theta0
        got = mle_bound_general(exp_noncanonical_ingredients(theta0, n), (1.0, 1.0)).total
        expected = (
            4.41456 / math.sqrt(n)
            + 8.0 / n
            + 2.0 / math.sqrt(n)
            + 80.0 * math.sqrt(3.0 * (2.0 / n + 1.0)) / math.sqrt(n)
        )
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestModelLevelInvariants:
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 3.0 * math.sqrt(1.5) / 16.0)])
    def test_theta0_invariance(self, weights):
        for maker in (exp_canonical_ingredients, exp_noncanonical_ingredients):
            totals = [
                mle_bound_general(maker(theta0, 50), weights).total
                for theta0 in (0.1, 1.0, 7.0)
            ]
            ref = totals[0]
            assert all(abs(t - ref) <= 1e-12 * ref for t in totals)

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 50, 10**3, 10**6])
    def test_noncanonical_dominates_canonical(self, n):
        can = mle_bound_general(exp_canonical_ingredients(1.0, n), (1.0, 1.0)).total
        non = mle_bound_general(exp_noncanonical_ingredients(1.0, n), (1.0, 1.0)).total
        assert non > can

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 10**4, 10**6])
    def test_direct_sum_bound_dominated_by_general(self, n):
        # the sample mean is a normalised sum: its direct bound is the score bound
        ing = exp_noncanonical_ingredients(3.0, n)
        direct = score_bound(ing, (1.0, 1.0)).total
        assert direct == pytest.approx((2.0 + 2.41456) / math.sqrt(n), rel=1e-15, abs=0.0)
        assert direct <= mle_bound_general(ing, (1.0, 1.0)).total
