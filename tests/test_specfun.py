"""Special-function accuracy: frozen values, recurrences, independent oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import EULER_GAMMA, polygamma_series, scalar_asymptotic_coeffs, scalar_polygamma

from steinmle import specfun
from steinmle.errors import DomainError, FloatRangeError
from steinmle.specfun import (
    _ASYMPTOTIC_COEFFS,
    _polygammas,
    inv_quadratic_expectation,
    normal_expectation,
    polygamma,
    std_normal_quantile,
)
from steinmle.steincore import TestFunction, inv_quadratic_test_function

# log-spaced accuracy grid spanning the contractual domain
ACCURACY_GRID = [10.0 ** (-3 + 9 * k / 40) for k in range(41)]


class TestPolygamma:
    def test_known_identities(self):
        assert polygamma(1, 0.5) == pytest.approx(math.pi**2 / 2, rel=1e-12, abs=0.0)
        assert polygamma(3, 0.5) == pytest.approx(math.pi**4, rel=1e-12, abs=0.0)
        assert polygamma(0, 1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_accuracy_against_mpmath(self, order, mp):
        with mp.workdps(40):
            for x in ACCURACY_GRID + [1e5, 1e6]:
                ref = float(mp.digamma(x)) if order == 0 else float(mp.polygamma(order, x))
                got = polygamma(order, x)
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (order, x)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_direct_series_oracle_agrees(self, order):
        for x in [1e-2, 0.3, 1.0, 1.5, 2.5, 7.0, 55.0]:
            assert polygamma(order, x) == pytest.approx(
                polygamma_series(order, x), rel=1e-9
            ), (order, x)

    def test_recurrence_on_log_grid(self):
        # psi(x+1) - psi(x) = 1/x; psi_m(x+1) - psi_m(x) = (-1)^m m!/x^(m+1)
        grid = [10.0 ** (-2 + 6 * k / 30) for k in range(31)]
        for x in grid:
            assert polygamma(0, x + 1) - polygamma(0, x) == pytest.approx(
                1.0 / x, rel=1e-10
            )
            for m in (1, 2, 3):
                expected = (-1.0) ** m * math.factorial(m) / x ** (m + 1)
                got = polygamma(m, x + 1) - polygamma(m, x)
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (m, x)

    @pytest.mark.parametrize("order", [1, 3])
    def test_positive_and_strictly_decreasing(self, order):
        values = [polygamma(order, x) for x in ACCURACY_GRID]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_coefficient_table_equals_the_loop_products(self, order):
        assert list(_ASYMPTOTIC_COEFFS[order]) == scalar_asymptotic_coeffs(order)

    def test_shared_shift_pass_equals_the_scalar_loop(self):
        # 10^4 log-uniform arguments on [1e-3, 1e6], the cut itself and the
        # float just below it, where the shift takes one step
        rng = random.Random(20261018)
        xs = [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(10_000)]
        xs += [16.0, math.nextafter(16.0, 0.0), 1e-3, 1e6]
        for x in xs:
            expected = [scalar_polygamma(m, x) for m in range(4)]
            assert _polygammas(x, (0, 1, 2, 3)) == expected, x
            assert _polygammas(x, (1, 3)) == expected[1::2], x
            assert [polygamma(m, x) for m in range(4)] == expected, x

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polygamma(1, 0.0)
        with pytest.raises(DomainError):
            polygamma(1, -3.0)
        with pytest.raises(DomainError):
            polygamma(4, 1.0)
        with pytest.raises(DomainError):
            polygamma(1.5, 1.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("x", [5e-324, 1e-310])
    def test_argument_too_small_for_floats_is_a_range_error(self, order, x):
        # 1/x overflows for order 0 and 1/x^(m+1) underflows or overflows for
        # m >= 1: every order refuses alike, none returns an infinity
        with pytest.raises(FloatRangeError, match="polygamma"):
            polygamma(order, x)


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-10)

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_antisymmetry(self, p):
        # Below p ~ 1e-6 the double representation of 1 - p itself moves the
        # quantile by more than 1e-9; the property is tested where the input
        # carries enough precision.
        assert std_normal_quantile(p) == pytest.approx(-std_normal_quantile(1.0 - p), abs=1e-9)

    def test_deep_lower_tail_accuracy(self, mp):
        # Verify through the forward map: ncdf(quantile(p)) recovers p to
        # full relative precision even at extreme tail probabilities.
        with mp.workdps(50):
            for p in (1e-12, 1e-100, 1e-300):
                x = std_normal_quantile(p)
                assert float(mp.ncdf(x)) == pytest.approx(p, rel=1e-11, abs=0.0)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_roundtrip(self, x):
        # the erfc form keeps the upper tail to an ulp of 1; NormalDist().cdf
        # (erf-based) rounds one ulp further there, ~1.7e-8 in x at x = 6
        assert std_normal_quantile(0.5 * math.erfc(-x / math.sqrt(2.0))) == pytest.approx(x, abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


class TestNormalExpectation:
    # sqrt(0.5), sqrt(5) and sqrt(60) are the Poisson target sigmas the
    # benchmark's small-n rows integrate against.
    @pytest.mark.parametrize(
        "sigma",
        [1e-4, 0.1, 1.0, 1.7, math.sqrt(0.5), math.sqrt(5.0), math.sqrt(60.0), 100.0, 1e4],
    )
    def test_scaled_target(self, sigma, mp):
        # E[h(sigma Z)] against a direct high-precision quadrature
        h = inv_quadratic_test_function()
        with mp.workdps(30):
            ref = float(
                mp.quad(lambda t: 1.0 / ((sigma * t) ** 2 + 2) * mp.npdf(t), [-mp.inf, 0, mp.inf])
            )
        assert normal_expectation(h, scale=sigma) == pytest.approx(ref, abs=1e-9)

    # 201 log-spaced scales over [1e-4, 1e4], the Poisson target sigmas, and
    # both sides of the series / continued-fraction cut at 1/scale = 3 and of
    # the earlier cut at 6.
    EXACT_SCALES = [10.0 ** (-4 + 8 * k / 200) for k in range(201)] + [
        1.0,
        math.sqrt(0.5),
        math.sqrt(5.0),
        math.sqrt(60.0),
        1.0 / 3.0,
        1.0 / 2.999,
        1.0 / 3.001,
        1.0 / 6.0,
        1.0 / 5.999,
        1.0 / 6.001,
    ]
    # 1/scale every 0.001 over [3, 6], where the continued fraction took
    # over from the series when the cut moved down from 6.
    MOVED_SCALES = [1.0 / (3.0 + k / 1000) for k in range(3001)]

    def test_exact_expectation_is_correctly_rounded(self, mp):
        def reference(sigma):
            with mp.workdps(50):
                x = 1 / mp.mpf(sigma)
                return float(x * mp.sqrt(mp.pi) / 2 * mp.exp(x * x) * mp.erfc(x))

        h = inv_quadratic_test_function()
        wrong = [
            s
            for s in self.EXACT_SCALES + self.MOVED_SCALES
            if normal_expectation(h, scale=s) != reference(s)
        ]
        assert wrong == []

    def test_fraction_gives_the_series_value_where_the_cut_moved(self, monkeypatch):
        fraction = [inv_quadratic_expectation(s) for s in self.MOVED_SCALES]
        monkeypatch.setattr(specfun, "_SERIES_CUT", 6.0)
        series = [inv_quadratic_expectation(s) for s in self.MOVED_SCALES]
        assert fraction == series

    def test_exact_expectation_is_used_only_when_carried(self):
        marker = TestFunction(
            evaluator=lambda x: 1.0, sup_norm=1.0, lip_norm=0.0, gaussian_expectation=lambda s: s
        )
        assert normal_expectation(marker, scale=3.0) == 3.0
        assert normal_expectation(marker, scale=0.0) == 1.0  # point mass: h(0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, "1", True])
    def test_exact_expectation_domain(self, bad):
        with pytest.raises(DomainError):
            inv_quadratic_expectation(bad)

    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.longdouble])
    def test_exact_expectation_takes_numpy_scalars(self, scalar):
        assert repr(inv_quadratic_expectation(scalar(0.5))) == repr(inv_quadratic_expectation(0.5))

    @pytest.mark.parametrize(
        "h",
        [lambda x: 1.0, inv_quadratic_test_function().evaluator,
         TestFunction(evaluator=lambda x: 1.0, sup_norm=1.0, lip_norm=0.0)],
        ids=["bare-callable", "bare-evaluator", "test-function-without"],
    )
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_h_without_gaussian_expectation_is_a_domain_error(self, h, scale):
        with pytest.raises(DomainError, match="gaussian_expectation"):
            normal_expectation(h, scale)

    def test_rejects_non_callable(self):
        with pytest.raises(DomainError):
            normal_expectation(3.0)
        with pytest.raises(DomainError, match="^scale must be"):
            normal_expectation(inv_quadratic_test_function(), scale=-1.0)
