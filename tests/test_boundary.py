"""The Poisson closed form against the paper's general six-term perturbed
bound."""

import math

import numpy as np
import pytest
from conftest import run_python
from oracles import poisson_perturbed_terms
from test_bound_snapshots import _poisson_c_grid

from steinmle import boundary
from steinmle.boundary import _poisson_parts, _poisson_total, minimize_poisson_c, poisson_bound

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


class TestAutoC:
    @pytest.mark.parametrize("theta0", [1e-9, 1e-6, 1e-3, 0.01, 0.3, 1.0, 5.0, 60.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 1000, 10**6, 10**12])
    def test_auto_matches_dense_scan(self, theta0, n):
        # the minimum over 20,001 log-spaced c in [min(1e-12, n theta0/2), n theta0],
        # each total from the general formula; the auto c is never worse
        hi = n * theta0
        grid = np.logspace(math.log10(min(1e-12, hi / 2.0)), math.log10(hi), 20001)
        terms = poisson_perturbed_terms(theta0, n, grid)
        totals = sum(np.broadcast_to(term, grid.shape) for term in terms)
        assert poisson_bound(theta0, n).total <= totals.min() * (1.0 + 1e-12)

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

    def test_float32_theta0_searches_in_double(self):
        # a float32 theta0 once kept the golden-section bracket in float32,
        # which never narrowed to the tolerance: the search did not return
        code = ("import numpy as np; from steinmle.boundary import minimize_poisson_c; "
                "print(minimize_poisson_c(np.float32(1.0), 10).hex())")
        out = run_python("-c", code, capture_output=True, text=True, timeout=30)
        assert out.stdout == minimize_poisson_c(1.0, 10).hex() + "\n", out.stderr

    def test_searched_c_stays_in_range(self):
        # over the pinned Poisson points, c lies in [min(1e-12, n theta0/2), n theta0]
        for theta0, n in _poisson_c_grid():
            hi = n * theta0
            assert min(1e-12, hi / 2.0) <= minimize_poisson_c(theta0, n) <= hi, (theta0, n)

    def test_search_prices_at_most_92_trial_values(self, spy):
        # the golden section and the two bracket ends, counted at the pinned
        # Poisson points; a scan added back would price dozens more
        priced = spy(boundary, "_poisson_total")
        most = 0
        for theta0, n in _poisson_c_grid():
            priced.clear()
            minimize_poisson_c(theta0, n)
            most = max(most, len(priced))
        assert most <= 92
