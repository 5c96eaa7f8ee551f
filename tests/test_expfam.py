"""Exponential-family ingredient formulas against quadrature oracles."""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from oracles import expfam_fisher_info, expfam_third_score_moment

from steinmle.errors import DomainError
from steinmle.expfam import (
    EXP_THIRD_ABS_BOUND,
    exp_canonical_ingredients,
    exp_noncanonical_ingredients,
)
from steinmle.registry import get_model
from steinmle.steincore import mle_bound_general, score_bound


def exp_third_abs_central(theta0):
    """Quadrature oracle for E|1/theta - X|^3, X ~ Exp(theta)."""
    with mp.workdps(30):
        theta = mp.mpf(theta0)
        val = mp.quad(
            lambda x: abs(1 / theta - x) ** 3 * theta * mp.e ** (-theta * x),
            [0, 1 / theta, mp.inf],
        )
        return float(val)


class TestGenericOps:
    """Both builders against the generic formulas with T(x) = -x: the
    canonical k(theta) = theta has k' = 1, the mean parametrisation
    k(theta) = 1/theta has k' = -1/theta^2."""

    def test_theta_space_enforced(self):
        for build in (exp_canonical_ingredients, exp_noncanonical_ingredients):
            with pytest.raises(DomainError):
                build(-1.0, 10)

    def test_fisher_info_canonical(self):
        # Var T = 1/theta^2 at rate theta
        for theta0 in (0.5, 1.0, 2.0):
            want = expfam_fisher_info(1.0, 1.0 / theta0**2)
            assert exp_canonical_ingredients(theta0, 10).fisher_info == pytest.approx(want, rel=1e-14)

    def test_fisher_info_noncanonical(self):
        # k'(2) = -1/4, Var(-X) = 4 at mean 2: fisher = 1/16 * 4 = 1/4
        assert expfam_fisher_info(-0.25, 4.0) == pytest.approx(0.25)
        for theta0 in (0.5, 1.0, 2.0):
            want = expfam_fisher_info(-1.0 / theta0**2, theta0**2)
            assert exp_noncanonical_ingredients(theta0, 10).fisher_info == pytest.approx(want, rel=1e-14)

    def test_third_moment_canonical(self):
        # E|T - D|^3 = E|X - 1/theta|^3 <= EXP_THIRD_ABS_BOUND / theta^3
        for theta0 in (0.5, 1.0, 2.0):
            want = expfam_third_score_moment(1.0, EXP_THIRD_ABS_BOUND / theta0**3)
            got = exp_canonical_ingredients(theta0, 10).third_abs_score_moment
            assert got == pytest.approx(want, rel=1e-14)

    def test_third_moment_noncanonical(self):
        # E|T - D|^3 = E|X - theta|^3 <= EXP_THIRD_ABS_BOUND * theta^3 at mean theta
        for theta0 in (0.5, 1.0, 2.0):
            want = expfam_third_score_moment(-1.0 / theta0**2, EXP_THIRD_ABS_BOUND * theta0**3)
            got = exp_noncanonical_ingredients(theta0, 10).third_abs_score_moment
            assert got == pytest.approx(want, rel=1e-14)


class TestThirdMomentConstant:
    def test_constant_is_a_valid_upper_bound(self):
        # exact value is 12/e - 2; the shipped constant must dominate it with
        # slack below 1e-3 (it is a rounded-up literal)
        for theta0 in (0.5, 1.0, 3.0):
            exact = exp_third_abs_central(theta0)
            bound = EXP_THIRD_ABS_BOUND / theta0**3
            assert exact <= bound
            assert bound - exact < 1e-3
        assert exp_third_abs_central(1.0) == pytest.approx(12.0 / math.e - 2.0, rel=1e-12)


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

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            exp_canonical_ingredients(1.0, 2)

    def test_epsilon_override(self):
        ing = exp_canonical_ingredients(1.0, 10, epsilon=0.25)
        assert ing.sup_third_deriv == pytest.approx(2.0 * 10 / 0.75**3)
        with pytest.raises(DomainError):
            exp_canonical_ingredients(1.0, 10, epsilon=1.5)

    def test_mse_against_quadrature(self):
        # estimator 1/mean has mean-Gamma distribution; integrate directly
        n, theta0 = 6, 1.3
        with mp.workdps(30):
            lam = n * theta0
            ref = float(
                mp.quad(
                    lambda t: (1 / t - theta0) ** 2
                    * t ** (n - 1)
                    * mp.e ** (-lam * t)
                    * lam**n
                    / mp.gamma(n),
                    [0, 1 / theta0, mp.inf],
                )
            )
        assert exp_canonical_ingredients(theta0, n).mse == pytest.approx(ref, rel=1e-9)

    def test_fourth_moment_against_quadrature(self):
        n, theta0 = 6, 1.3
        with mp.workdps(30):
            lam = n * theta0
            ref = float(
                mp.quad(
                    lambda t: (1 / t - theta0) ** 4
                    * t ** (n - 1)
                    * mp.e ** (-lam * t)
                    * lam**n
                    / mp.gamma(n),
                    [0, 1 / theta0, mp.inf],
                )
            )
        assert exp_canonical_ingredients(theta0, n).fourth_mle_moment == pytest.approx(
            ref, rel=1e-9
        )

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

    def test_fourth_moment_infinite_below_n5(self):
        assert math.isinf(exp_canonical_ingredients(1.0, 4).fourth_mle_moment)


class TestNonCanonicalIngredients:
    def test_field_values(self):
        ing = exp_noncanonical_ingredients(2.0, 10)
        assert ing.fisher_info == pytest.approx(0.25)
        assert ing.mse == pytest.approx(0.4)
        assert ing.fourth_mle_moment == pytest.approx(3.0 * 16.0 / 100.0 * 1.2)
        assert ing.r2_conditional_bound == pytest.approx(1.0)
        assert ing.sup_third_deriv == pytest.approx(160.0 * 10 / 8.0)
        assert not ing.sup_third_is_deterministic

    def test_fourth_moment_against_quadrature(self):
        n, theta0 = 7, 2.0
        with mp.workdps(30):
            lam = n / mp.mpf(theta0)
            ref = float(
                mp.quad(
                    lambda t: (t - theta0) ** 4
                    * t ** (n - 1)
                    * mp.e ** (-lam * t)
                    * lam**n
                    / mp.gamma(n),
                    [0, theta0, mp.inf],
                )
            )
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
        assert got == pytest.approx(expected, rel=1e-12)

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
        assert got == pytest.approx(expected, rel=1e-12)


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

    def test_noncanonical_dominates_canonical(self):
        for n in [3, 4, 5, 10, 50, 10**3, 10**6]:
            can = mle_bound_general(exp_canonical_ingredients(1.0, n), (1.0, 1.0)).total
            non = mle_bound_general(exp_noncanonical_ingredients(1.0, n), (1.0, 1.0)).total
            assert non > can

    def test_direct_sum_bound_dominated_by_general(self):
        # the sample mean is a normalised sum: its direct bound is the score bound
        for n in [1, 2, 3, 10, 100, 10**4, 10**6]:
            ing = exp_noncanonical_ingredients(3.0, n)
            direct = score_bound(ing, (1.0, 1.0)).total
            assert direct == pytest.approx((2.0 + 2.41456) / math.sqrt(n), rel=1e-15)
            assert direct <= mle_bound_general(ing, (1.0, 1.0)).total


class TestGenericFamilyRoute:
    def test_user_supplied_family_reproduces_builtin_bound(self):
        # assemble the rate-parametrised exponential through the generic
        # family formulas (k' = 1; the T-moments and the conditional bounds
        # supplied here) and compare with the shipped ingredient generator
        theta0, n = 1.7, 40
        var_T = 1.0 / theta0**2  # Var(-X) for Exp(theta0)
        third_T = EXP_THIRD_ABS_BOUND / theta0**3
        fisher = expfam_fisher_info(1.0, var_T)
        third = expfam_third_score_moment(1.0, third_T)
        builtin = exp_canonical_ingredients(theta0, n)
        assert fisher == pytest.approx(builtin.fisher_info, rel=1e-14)
        assert third == pytest.approx(builtin.third_abs_score_moment, rel=1e-14)
        from steinmle.steincore import BoundIngredients

        generic = BoundIngredients(
            theta0=theta0,
            n=n,
            fisher_info=fisher,
            third_abs_score_moment=third,
            mse=builtin.mse,
            fourth_mle_moment=builtin.fourth_mle_moment,
            sup_third_deriv=builtin.sup_third_deriv,
            r2_conditional_bound=builtin.r2_conditional_bound,
            epsilon=builtin.epsilon,
            sup_third_is_deterministic=True,
        )
        got = mle_bound_general(generic, (1.0, 1.0)).total
        want = mle_bound_general(builtin, (1.0, 1.0)).total
        assert got == pytest.approx(want, rel=1e-14)


class TestDescriptors:
    """The registered models' audit and estimator for the exponential models."""

    def test_audit_serialises(self):
        for name in ("exp-canonical", "exp-noncanonical"):
            payload = get_model(name).audit(1.5, 20)
            text = json.dumps(payload)
            assert json.loads(text)["model"] == name
            assert payload["ingredients"]["n"] == 20

    def test_descriptor_mle_closed_forms(self):
        # sample means 0.5 and 2.0
        assert get_model("exp-canonical").mle_from_stat(0.5, 2) == pytest.approx(2.0)
        assert get_model("exp-noncanonical").mle_from_stat(2.0, 2) == pytest.approx(2.0)


class TestIntegerTypesForN:
    """numpy integers are integers for the ingredient builders; bool is refused."""

    BUILDERS = [exp_canonical_ingredients, exp_noncanonical_ingredients]

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    @pytest.mark.parametrize("build", BUILDERS)
    def test_numpy_integers_give_the_plain_int_ingredients(self, build, int_type):
        ing = build(1.0, int_type(10))
        assert type(ing.n) is int
        assert ing == build(1.0, 10)
        json.dumps(ing.to_dict())

    @pytest.mark.parametrize("build", BUILDERS)
    def test_bool_rejected(self, build):
        with pytest.raises(DomainError):
            build(1.0, True)
