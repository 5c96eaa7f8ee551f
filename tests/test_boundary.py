"""The Poisson closed form against the paper's general six-term perturbed
bound."""

import math

import numpy as np
import pytest

from oracles import poisson_perturbed_terms
from test_bound_snapshots import _poisson_c_grid

from steinmle import boundary
from steinmle.boundary import _poisson_parts, _poisson_total, minimize_poisson_c, poisson_bound
from steinmle.errors import DomainError

POISSON_LABELS = (
    "param_shift",
    "mle_gap",
    "score_mismatch",
    "perturbed_score",
    "markov_tail",
    "perturbed_taylor",
)


class TestAgainstGeneralPerturbedBound:
    """``poisson_bound`` is the paper's general six-term perturbed bound
    instantiated for the Poisson mean: term by term, it equals the general
    formula fed the Poisson moments (``oracles.half_line_perturbed_bound``)."""

    @pytest.mark.parametrize("theta0", [1e-6, 1e-3, 0.5, 1.0, 5.0, 60.0, 1e4])
    @pytest.mark.parametrize("n", [1, 3, 20, 1000, 10**8])
    @pytest.mark.parametrize("c", ["auto", 0.5, 1e-3])
    def test_terms_match(self, theta0, n, c):
        closed = poisson_bound(theta0, n, c)
        c_val = minimize_poisson_c(theta0, n) if c == "auto" else c
        assert tuple(dict(closed.terms)) == POISSON_LABELS
        for (label, value), want in zip(closed.terms, poisson_perturbed_terms(theta0, n, c_val)):
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), label


class TestPoissonBound:
    def test_degenerate_parameter_is_exactly_zero(self):
        bd = poisson_bound(0.0, 50)
        assert bd.total == 0.0
        assert tuple(dict(bd.terms)) == POISSON_LABELS

    def test_reference_value(self):
        # independent 50-digit evaluation of the five-term closed form
        bd = poisson_bound(1.0, 100, 1.0)
        assert bd.total == pytest.approx(2.92158539519, abs=1e-9)
        terms = dict(bd.terms)
        assert terms["param_shift"] + terms["mle_gap"] == pytest.approx(0.2)
        assert terms["perturbed_score"] == pytest.approx(0.4828427125, abs=1e-9)
        assert terms["markov_tail"] == pytest.approx(0.0784236839, abs=1e-9)
        assert terms["perturbed_taylor"] == pytest.approx(
            0.0990099010 + 2.0613090977, abs=1e-8
        )

    def test_scaled_total_converges(self):
        # sqrt(n) * total at fixed c -> 2c + 2 + 4^(3/4) + 1 + 12 sqrt(3)
        limit = 2.0 + 2.0 + 4.0**0.75 + 1.0 + 12.0 * math.sqrt(3.0)
        got = math.sqrt(1e10) * poisson_bound(1.0, 10**10, 1.0).total
        assert got == pytest.approx(limit, abs=1e-3)

    def test_order_root_n(self):
        scaled = [
            math.sqrt(n) * poisson_bound(2.0, n, 0.5).total
            for n in (10, 10**2, 10**4, 10**6, 10**8)
        ]
        assert max(scaled) < 50.0
        assert abs(scaled[-1] - scaled[-2]) < 1e-2

    def test_validation(self):
        with pytest.raises(DomainError):
            poisson_bound(-1.0, 10)
        with pytest.raises(DomainError):
            poisson_bound(1.0, 0)
        with pytest.raises(DomainError):
            poisson_bound(1.0, 10, 0.0)
        with pytest.raises(DomainError):
            poisson_bound(1.0, 10, -2.0)


class TestAutoC:
    @pytest.mark.parametrize("theta0,n", [(1.0, 100), (0.01, 4), (5.0, 37), (0.3, 1000)])
    def test_auto_beats_fixed_choices(self, theta0, n):
        auto_total = poisson_bound(theta0, n, "auto").total
        for c in (0.1, 1.0, 10.0):
            if c < n * theta0:
                assert auto_total <= poisson_bound(theta0, n, c).total + 1e-12

    @pytest.mark.parametrize("theta0,n", [(1.0, 100), (0.01, 4), (2.5, 50)])
    def test_auto_beats_log_grid(self, theta0, n):
        auto_total = poisson_bound(theta0, n, "auto").total
        lo, hi = 1e-6, n * theta0
        for k in range(50):
            c = 10.0 ** (math.log10(lo) + k * (math.log10(hi) - math.log10(lo)) / 49.0)
            assert auto_total <= poisson_bound(theta0, n, c).total + 1e-10

    def test_interior_optimum_found(self):
        # small mean and tiny n put the optimum in the interior of (0, n*theta0]
        c_star = minimize_poisson_c(0.01, 4)
        total_star = poisson_bound(0.01, 4, c_star).total
        assert total_star < poisson_bound(0.01, 4, 1e-9).total

    @pytest.mark.parametrize("theta0", [1e-9, 1e-6, 1e-3, 0.01, 0.3, 1.0, 5.0, 60.0, 1e3, 1e6])
    def test_auto_matches_dense_scan(self, theta0):
        # the minimum over 20,001 log-spaced c in [min(1e-12, n theta0/2), n theta0],
        # each total from the general formula; the auto c is never worse
        for n in (1, 2, 5, 20, 100, 1000, 10**6, 10**12):
            hi = n * theta0
            grid = np.logspace(math.log10(min(1e-12, hi / 2.0)), math.log10(hi), 20001)
            terms = poisson_perturbed_terms(theta0, n, grid)
            totals = sum(np.broadcast_to(term, grid.shape) for term in terms)
            assert poisson_bound(theta0, n).total <= totals.min() * (1.0 + 1e-12), n

    @pytest.mark.parametrize("theta0", [1e-6, 1e-3, 0.04, 1.0, 60.0])
    @pytest.mark.parametrize("n", [1, 5, 50, 10**6])
    def test_search_and_breakdown_share_one_formula(self, theta0, n):
        # the total the search minimises is the total the breakdown reports,
        # bit for bit, at both ends of the searched range and at its result
        hi = n * theta0
        parts = _poisson_parts(theta0, n)
        c_auto = minimize_poisson_c(theta0, n)
        searched = _poisson_total(theta0, n, c_auto, parts)
        assert poisson_bound(theta0, n).total == searched
        for c in (min(1e-12, hi / 2.0), hi, c_auto):
            assert _poisson_total(theta0, n, c, parts) == poisson_bound(theta0, n, c=c).total, c

    def test_searched_c_stays_in_range(self):
        # over the pinned Poisson points, c lies in [min(1e-12, n theta0/2), n theta0]
        for theta0, n in _poisson_c_grid():
            hi = n * theta0
            assert min(1e-12, hi / 2.0) <= minimize_poisson_c(theta0, n) <= hi, (theta0, n)

    def test_search_prices_at_most_92_trial_values(self, monkeypatch):
        # the golden section and the two bracket ends, counted at the pinned
        # Poisson points; a scan added back would price dozens more
        priced = []

        def counted(theta0, n, c, parts):
            priced.append(c)
            return _poisson_total(theta0, n, c, parts)

        monkeypatch.setattr(boundary, "_poisson_total", counted)
        most = 0
        for theta0, n in _poisson_c_grid():
            priced.clear()
            minimize_poisson_c(theta0, n)
            most = max(most, len(priced))
        assert most <= 92


class TestPoissonDirectBound:
    """The normalised-sum bound (2 + (3 theta0 + 1)^(3/4) / theta0^(3/4))/sqrt(n)
    for the Poisson mean: the perturbed-score term of ``poisson_bound``."""

    @staticmethod
    def direct(theta0, n, c="auto"):
        return dict(poisson_bound(theta0, n, c).terms)["perturbed_score"]

    def test_reference_values(self):
        assert self.direct(1.0, 100) == pytest.approx(0.4828427125, abs=1e-9)
        third = (2.0 + 2.0**0.75 * 3.0**0.75) / math.sqrt(25)
        assert self.direct(1.0 / 3.0, 25) == pytest.approx(third, rel=1e-12, abs=0.0)

    def test_dominated_by_perturbed_bound(self):
        for theta0 in (0.2, 1.0, 4.0):
            for n in (5, 50, 500, 5000):
                direct = self.direct(theta0, n)
                assert direct <= poisson_bound(theta0, n, "auto").total
                for c in (0.5, 2.0):
                    if c < n * theta0:
                        assert self.direct(theta0, n, c) == direct
                        assert direct <= poisson_bound(theta0, n, c).total

    def test_validation(self):
        # theta0 = 0 is the degenerate case, where the term is exactly zero
        assert self.direct(0.0, 10) == 0.0
        with pytest.raises(DomainError):
            self.direct(-1.0, 10)
