"""Bound assembly: frozen reference values, weight linearity, CI behaviour.

Expected numbers were computed with an independent 50-digit evaluation of
the closed forms (mpmath); the published table columns are checked in
test_acceptance.py.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinmle.errors import DomainError, FloatRangeError
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.montecarlo import _pykernels, ci_coverage
from steinmle.registry import get_model
from steinmle.steincore import (
    BoundBreakdown,
    BoundIngredients,
    _ci_offsets,
    inv_quadratic_test_function,
    kolmogorov_from_bw,
    mle_bound_general,
    score_bound,
)


def _ingredients(**overrides):
    base = dict(
        theta0=1.0,
        n=100,
        fisher_info=1.0,
        third_abs_score_moment=2.41456,
        mse=0.01,
        fourth_mle_moment=0.0003,
        sup_third_deriv=1600.0,
        r2_conditional_bound=0.0,
        epsilon=0.5,
        sup_third_is_deterministic=False,
    )
    base.update(overrides)
    return BoundIngredients(**base)


class TestTestFunction:
    def test_default_h_norms(self):
        h = inv_quadratic_test_function()
        assert h.sup_norm == 0.5
        assert h.lip_norm == pytest.approx(0.22963966338592295, rel=1e-14, abs=0.0)
        assert h.sup_norm + h.lip_norm <= 1.0  # inside the bounded-Lipschitz class
        # numerical check that the declared norms actually dominate h
        xs = [k / 500.0 - 5.0 for k in range(5001)]
        values = [h.evaluator(x) for x in xs]
        assert max(abs(v) for v in values) <= h.sup_norm + 1e-12
        slopes = [
            abs(values[i + 1] - values[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
        ]
        assert max(slopes) <= h.lip_norm + 1e-6


class TestBoundBreakdown:
    def test_total_is_exact_sum(self):
        bd = BoundBreakdown(terms=(("a", 0.1), ("b", 0.2), ("c", 0.3)))
        assert bd.total == math.fsum([0.1, 0.2, 0.3])
        assert dict(bd.terms)["b"] == 0.2

    def test_empty_terms_total_zero(self):
        bd = BoundBreakdown(terms=())
        assert bd.terms == () and bd.total == 0.0

    def test_negative_zero_term_is_accepted(self):
        bd = BoundBreakdown(terms=(("a", -0.0), ("b", 0.5)))
        assert math.copysign(1.0, bd.terms[0][1]) == -1.0 and bd.total == 0.5
        assert BoundBreakdown(terms=(("a", -0.0),)).total == 0.0

    @pytest.mark.parametrize(
        "terms,error,message",
        [
            ((("a", math.nan),), DomainError, "breakdown term 'a' is NaN"),
            # a negative term that the total hides
            ((("a", 1.0), ("b", -0.5)), DomainError, "breakdown term 'b' is negative: -0.5"),
            ((("a", -5e-324), ("b", 1.0)), DomainError, "breakdown term 'a' is negative: -5e-324"),
            ((("a", -math.inf),), DomainError, "breakdown term 'a' is negative: -inf"),
            ((("a", 0.1), ("b", math.inf)), FloatRangeError,
             "breakdown term 'b' overflowed to inf; the input lies outside the float range of this bound"),
            # fsum refuses inf - inf; the first bad term is named
            ((("a", math.inf), ("b", -math.inf)), FloatRangeError,
             "breakdown term 'a' overflowed to inf; the input lies outside the float range of this bound"),
            # the first bad term in order, whatever its kind
            ((("a", math.nan), ("b", -1.0)), DomainError, "breakdown term 'a' is NaN"),
            ((("a", -1.0), ("b", math.nan)), DomainError, "breakdown term 'a' is negative: -1.0"),
            # a bad term is named before a total that overflows
            ((("a", 1e308), ("b", 1e308), ("c", math.nan)), DomainError, "breakdown term 'c' is NaN"),
            ((("a", 1e308), ("b", 1e308)), FloatRangeError,
             "the bound total overflowed; the input lies outside the float range of this bound"),
        ],
        ids=["nan", "hidden-negative", "negative-subnormal", "minus-inf", "inf", "inf-minus-inf",
             "nan-first", "negative-first", "nan-and-overflow", "total-overflow"],
    )
    def test_bad_terms_raise_the_worded_error(self, terms, error, message):
        with pytest.raises(error) as excinfo:
            BoundBreakdown(terms=terms)
        assert type(excinfo.value) is error and str(excinfo.value) == message

    def test_numbers_are_stored_as_plain_floats(self):
        terms = ((np.str_("a"), np.float32(0.5)), ("b", 2), ("c", np.float64(0.25)), ("d", np.int64(1)))
        bd = BoundBreakdown(terms=terms)
        assert bd.terms == (("a", 0.5), ("b", 2.0), ("c", 0.25), ("d", 1.0))
        assert all(type(label) is str and type(value) is float for label, value in bd.terms)
        assert type(bd.total) is float and bd.total == 3.75

    def test_json_round_trip(self):
        bd = BoundBreakdown(terms=(("score", 0.25), ("markov_tail", 0.5)))
        parsed = json.loads(json.dumps(bd.to_dict()))
        assert parsed == {
            "terms": [
                {"label": "score", "value": 0.25},
                {"label": "markov_tail", "value": 0.5},
            ],
            "total": 0.75,
        }

    def test_csv_rows(self):
        bd = BoundBreakdown(terms=(("score", 0.25),))
        assert bd.to_csv_rows() == [("score", "0.25"), ("total", "0.25")]


class TestScoreBound:
    def test_zero_weights(self):
        ing = exp_canonical_ingredients(1.0, 100)
        assert score_bound(ing, (0.0, 0.0)).total == 0.0

    def test_single_term_labelled_score(self):
        ing = exp_canonical_ingredients(1.0, 10)
        bd = score_bound(ing)
        assert tuple(dict(bd.terms)) == ("score",)


class TestMleBoundGeneral:
    def test_canonical_unit_weights_terms(self):
        bd = mle_bound_general(exp_canonical_ingredients(1.0, 10), (1.0, 1.0))
        terms = dict(bd.terms)
        assert tuple(terms) == ("score", "markov_tail", "r2", "taylor_remainder")
        assert terms["score"] == pytest.approx(1.3960064468, abs=1e-9)
        assert terms["markov_tail"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert terms["r2"] == 0.0
        assert terms["taylor_remainder"] == pytest.approx(4.2163702136, abs=1e-9)
        assert bd.total == pytest.approx(6.9457, abs=1e-4)

    def test_non_finite_ingredients_raise_float_range_error(self):
        with pytest.raises(FloatRangeError, match="markov_tail"):
            mle_bound_general(_ingredients(mse=math.inf), (1.0, 1.0))

    def test_overflowed_n_times_information_is_a_float_range_error(self):
        # n i = 1e310 overflows, and 1/sqrt(n i) would zero the R2 and Taylor
        # terms, a bound below the exact one; n = 10**298 still fits
        fields = dict(fisher_info=1e10, third_abs_score_moment=1.0, mse=1e-300,
                      fourth_mle_moment=1.0, sup_third_deriv=1e300, r2_conditional_bound=1e160,
                      epsilon=1.0)
        with pytest.raises(FloatRangeError, match="^mle_bound_general: .* overflowed"):
            mle_bound_general(_ingredients(n=10**300, **fields), (1.0, 1.0))
        terms = dict(mle_bound_general(_ingredients(n=10**298, **fields), (1.0, 1.0)).terms)
        assert terms["r2"] == 1e6
        assert terms["taylor_remainder"] == 5e145

    @given(
        sup=st.floats(min_value=0.0, max_value=3.0),
        lip=st.floats(min_value=0.0, max_value=3.0),
        scale=st.floats(min_value=0.1, max_value=7.0),
    )
    def test_weight_linearity(self, sup, lip, scale):
        ing = exp_noncanonical_ingredients(2.0, 25)
        base = dict(mle_bound_general(ing, (sup, lip)).terms)
        scaled_sup = dict(mle_bound_general(ing, (scale * sup, lip)).terms)
        scaled_lip = dict(mle_bound_general(ing, (sup, scale * lip)).terms)
        # markov term scales with the sup weight, the rest with the lip weight
        assert scaled_sup["markov_tail"] == pytest.approx(
            scale * base["markov_tail"], rel=1e-12, abs=1e-300
        )
        for label in ("score", "r2", "taylor_remainder"):
            assert scaled_sup[label] == base[label]
            assert scaled_lip[label] == pytest.approx(
                scale * base[label], rel=1e-12, abs=1e-300
            )
        assert scaled_lip["markov_tail"] == base["markov_tail"]

    @pytest.mark.parametrize("maker,n_lo", [(exp_canonical_ingredients, 3), (exp_noncanonical_ingredients, 1)])
    def test_total_non_increasing_in_n(self, maker, n_lo):
        ns = list(range(n_lo, 60)) + [100, 1000, 10**4, 10**5, 10**6]
        totals = [mle_bound_general(maker(1.0, n), (1.0, 1.0)).total for n in ns]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_root_n_rate_limit(self):
        # sqrt(n) * total -> 4.41456 + 8 for the reciprocal-mean model
        n = 10**8
        total = mle_bound_general(exp_canonical_ingredients(1.0, n), (1.0, 1.0)).total
        assert math.sqrt(n) * total == pytest.approx(12.41456, abs=1e-2)


class TestKolmogorovConversion:
    @given(
        b1=st.floats(min_value=0.0, max_value=1e6),
        b2=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_monotone_and_concave(self, b1, b2):
        lo, hi = sorted((b1, b2))
        assert kolmogorov_from_bw(lo) <= kolmogorov_from_bw(hi)
        mid = 0.5 * (lo + hi)
        assert kolmogorov_from_bw(mid) >= 0.5 * (
            kolmogorov_from_bw(lo) + kolmogorov_from_bw(hi)
        ) - 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            kolmogorov_from_bw(-0.1)

    @given(b=st.floats(min_value=0.0, max_value=1e300))
    def test_unit_normal_target_is_two_root_b(self, b):
        assert kolmogorov_from_bw(b, 1.0) == kolmogorov_from_bw(b) == 2.0 * math.sqrt(b)

    @pytest.mark.parametrize("theta0", [1e-6, 1e-3, 0.04, 1.0])
    @pytest.mark.parametrize("b", [1e-12, 1e-6, 1e-3, 0.106, 0.5, 3.0])
    def test_density_bound_form(self, theta0, b):
        # against N(0, theta0): max(2 sqrt(b), sqrt(2 C b)), C = (2 pi theta0)^(-1/2)
        root_2cb = math.sqrt(2.0 * b / math.sqrt(2.0 * math.pi * theta0))
        got = kolmogorov_from_bw(b, math.sqrt(theta0))
        assert got == pytest.approx(max(2.0 * math.sqrt(b), root_2cb), rel=1e-15, abs=0.0)
        # sqrt(2 C b) takes over exactly when C > 2, i.e. theta0 < 1/(8 pi)
        assert (root_2cb > 2.0 * math.sqrt(b)) == (theta0 < 1.0 / (8.0 * math.pi))

    def test_shifted_narrow_normal_breaks_only_the_unit_form(self):
        # N(delta, s^2) against N(0, s^2), s^2 = 1e-3: a unit-Lipschitz h moves
        # by at most delta, so d_bW <= delta, while d_K = 2 Phi(delta / 2s) - 1
        sigma, delta = math.sqrt(1e-3), 0.106
        d_k = math.erf(delta / (2.0 * sigma * math.sqrt(2.0)))
        assert d_k == pytest.approx(0.906, abs=1e-3)
        assert kolmogorov_from_bw(delta) < d_k
        assert kolmogorov_from_bw(delta, sigma) >= d_k

    def test_point_mass_target(self):
        assert kolmogorov_from_bw(0.0, 0.0) == 0.0
        with pytest.raises(DomainError, match="sigma"):
            kolmogorov_from_bw(0.1, 0.0)


class TestConservativeCI:
    """The interval theta_hat - offsets, from ``_ci_offsets``: the one copy
    ``ci_coverage`` applies to a whole row."""

    @staticmethod
    def interval(theta_hat, n, fisher_info, alpha, b_k):
        hi, lo = _ci_offsets(n, fisher_info, alpha, b_k)
        return theta_hat - hi, theta_hat - lo

    def test_reduces_to_normal_interval(self):
        lower, upper = self.interval(0.0, 1, 1.0, 0.05, 0.0)
        assert lower == pytest.approx(-1.9599639845, abs=1e-8)
        assert upper == pytest.approx(1.9599639845, abs=1e-8)

    def test_degenerate_when_widening_swallows_tail(self):
        assert _ci_offsets(10, 1.0, 0.05, 0.025) is None
        res = ci_coverage("exp-canonical", 1.0, 10, 0.05, trials=5)
        assert res.degenerate and res.coverage == 1.0 and res.b_k >= 0.025

    def test_worked_example(self):
        # theta_hat 1, n 100, i 1, alpha 0.05, b_k 0.01: quantiles at 0.985/0.015
        lower, upper = self.interval(1.0, 100, 1.0, 0.05, 0.01)
        assert lower == pytest.approx(0.782990962242, abs=1e-6)
        assert upper == pytest.approx(1.217009037758, abs=1e-6)

    def test_an_estimate_on_an_interval_edge_covers(self, monkeypatch):
        # the intervals are closed: an estimate at theta0 plus either offset
        # puts theta0 exactly on an edge (exp-noncanonical: the identity estimator)
        model, theta0, n, alpha = "exp-noncanonical", 2.0, 10**9, 0.5
        entry = get_model(model)
        b_k = kolmogorov_from_bw(entry.distance_bound(theta0, n).total)
        offsets = np.array(_ci_offsets(n, entry.fisher_info(theta0), alpha, b_k))
        hats = theta0 + offsets
        assert (hats - offsets).tolist() == [theta0, theta0]
        monkeypatch.setattr(_pykernels, "trial_stats", lambda *args: hats)
        assert ci_coverage(model, theta0, n, alpha, trials=2).coverage == 1.0

    def test_width_monotone_in_n_and_bk(self):
        def width(n, bk):
            hi, lo = _ci_offsets(n, 1.0, 0.05, bk)
            return hi - lo

        widths_n = [width(n, 0.001) for n in (10, 100, 1000)]
        assert widths_n[0] >= widths_n[1] >= widths_n[2]
        widths_bk = [width(50, bk) for bk in (0.0, 0.005, 0.02)]
        assert widths_bk[0] <= widths_bk[1] <= widths_bk[2]
