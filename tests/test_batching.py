"""Rows run as a batch give the values each row gives alone.

The harness's row engine maps several rows to their estimates in one call
and then standardises, evaluates h on and reduces each row's slice alone, and
``ci_coverage`` computes its interval offsets once a run.  Each test here
keeps the per-trial or per-row computation as its reference and requires
identical results.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from oracles import per_trial_coverage

from steinmle import cli, msebound
from steinmle.errors import DomainError
from steinmle.montecarlo import (
    SimulationConfig,
    ci_coverage,
    harness,
    run_mse_sweep,
    run_rows,
    run_simulation,
)
from steinmle.montecarlo import _pykernels
from steinmle.msebound import BetaParams, beta_b3, beta_ingredients, minimal_n
from steinmle.registry import get_model
from steinmle.specfun import inv_quadratic_expectation, normal_expectation
from steinmle.steincore import TestFunction, inv_quadratic_test_function


def _per_trial_row(params, n, trials, seed, row):
    """One sweep row as each row was computed on its own: its own estimator
    call, and h on one Python float at a time."""
    entry = get_model("beta", beta=params.beta)
    stats = _pykernels.trial_stats("beta", params.theta0, params.beta, n, seed,
                                   row * trials, (row + 1) * trials)
    theta_hats = entry.mle_from_stat(stats, n)
    scale = math.sqrt(n * beta_ingredients(params).fisher_info)
    h = inv_quadratic_test_function().evaluator
    h_values = [h(float(scale * (t - params.theta0))) for t in theta_hats]
    mean_h = math.fsum(h_values) / trials
    mse = math.fsum(((theta_hats - params.theta0) ** 2).tolist()) / trials
    dev = np.asarray(h_values) - mean_h
    se = math.sqrt(math.fsum((dev * dev).tolist()) / (trials - 1)) / math.sqrt(trials)
    return mean_h, mse, se


class TestSweepBatch:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5])
    def test_batched_rows_equal_rows_run_alone(self, beta):
        params = BetaParams(1.5, beta)
        floor = minimal_n(beta_ingredients(params))
        n_values = [floor, floor + 37, floor + 500, floor + 1234]
        reports = run_mse_sweep(params, n_values, trials=15, seed=5)
        for row, (rep, n) in enumerate(zip(reports, n_values)):
            mean_h, mse, se = _per_trial_row(params, n, 15, 5, row)
            assert rep.empirical_distance == abs(mean_h - rep.expected_h)
            assert rep.empirical_mse == mse
            assert rep.standard_error == se

    @pytest.mark.parametrize("cap", [1, 10, 45, 16384])
    def test_grouping_does_not_change_a_row(self, monkeypatch, cap):
        # cap 1 solves one row a call; 10 and 45 split five 9-trial rows into
        # groups of one and of five; 16384 is the default, one group
        params = BetaParams(1.5, 2.0)
        n_values = [11848 + 100 * k for k in range(5)]
        reference = [r.to_dict() for r in run_mse_sweep(params, n_values, trials=9, seed=2)]
        monkeypatch.setattr(harness, "_ROOT_LANES", cap)
        assert [r.to_dict() for r in run_mse_sweep(params, n_values, trials=9, seed=2)] == reference

    def test_rows_beyond_the_lane_cap_are_split(self, spy):
        # 6000 trials a row: two rows fit in 16384 lanes, so three rows take
        # two solves; every row still equals its per-trial reference
        params = BetaParams(1.5, 2.0)
        calls = spy(type(get_model("beta", beta=2.0)), "mle_from_stat")
        n_values = [11848, 12848, 13848]
        reports = run_mse_sweep(params, n_values, trials=6000, seed=8)
        assert [np.size(stat) for _, stat, _ in calls] == [12000, 6000]
        for row, (rep, n) in enumerate(zip(reports, n_values)):
            mean_h, mse, se = _per_trial_row(params, n, 6000, 8, row)
            assert (rep.empirical_distance, rep.empirical_mse, rep.standard_error) == (
                abs(mean_h - rep.expected_h), mse, se)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5])
    def test_row_bounds_equal_b3_squared_over_n(self, monkeypatch, spy, beta):
        # the exact n-free root is built once a sweep, and each row's bound
        # is still the MSE bound a model gives for that n alone, B3^2/n
        params = BetaParams(1.5, beta)
        floor = minimal_n(beta_ingredients(params))
        n_values = [floor, floor + 1, floor + 999, 3 * floor]
        built = spy(msebound, "_root_parts")
        reports = run_mse_sweep(params, n_values, trials=3, seed=4)
        assert len(built) == 1
        monkeypatch.undo()
        for rep, n in zip(reports, n_values):
            bound = get_model("beta", beta=beta).mse_bound(1.5, n)
            assert bound == pytest.approx(beta_b3(params, n) ** 2 / n, rel=5e-16, abs=0.0)
            assert rep.bound_total == bound
            assert rep.bound_terms.terms == (("mse_bound", bound),)


def _table_rows(which, trials, seed):
    """The JSON rows of ``steinmle table WHICH``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["table", str(which), "--trials", str(trials), "--seed", str(seed),
                  "--format", "json"])
    return json.loads(out.getvalue())["rows"]


class TestTableBatch:
    @pytest.mark.parametrize("trials", [1, 2, 50])  # one trial: no standard error
    @pytest.mark.parametrize("which", [1, 2])
    def test_each_row_equals_a_lone_simulation(self, which, trials):
        spec = cli._TABLE_SPECS[which]
        rows = _table_rows(which, trials, seed=3)
        assert [row["n"] for row in rows] == spec["ns"]
        for row in rows:
            row.pop("direct_bound", None)
            cfg = SimulationConfig(spec["model"], spec["theta0"], row["n"], trials, 3,
                                   test_function=inv_quadratic_test_function())
            assert json.dumps(row) == json.dumps(run_simulation(cfg).to_dict())

    @pytest.mark.parametrize("cap", [1, 100, 16384])
    def test_grouping_does_not_change_a_table_row(self, monkeypatch, cap):
        # 50-trial rows: cap 1 maps one row a call, 100 two rows, 16384 all five
        reference = _table_rows(1, 50, seed=4)
        monkeypatch.setattr(harness, "_ROOT_LANES", cap)
        assert _table_rows(1, 50, seed=4) == reference

    def test_one_estimator_call_and_one_expectation_for_a_table(self, spy):
        calls = spy(type(get_model("exp-canonical")), "mle_from_stat")
        scales = spy(harness, "normal_expectation")
        rows = _table_rows(1, 50, seed=1)
        assert len(calls) == 1 and [scale for _, scale in scales] == [1.0]
        assert {row["expected_h"] for row in rows} == {normal_expectation(inv_quadratic_test_function(), scale=1.0)}


class TestEvaluatorContract:
    def test_array_evaluator_equals_float_evaluator(self):
        h = inv_quadratic_test_function().evaluator
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000),
                             [0.0, -0.0, 1e-300, 1e154, 1e200, -1e200, math.sqrt(2 / 3)]])
        with np.errstate(over="ignore"):  # x * x is inf at 1e200, as for a float
            row = h(xs)
        assert row.dtype == np.float64 and row.shape == xs.shape
        assert row.tolist() == [h(float(x)) for x in xs]

    def test_simulation_row_equals_per_trial_evaluation(self):
        cfg = SimulationConfig(model="exp-noncanonical", theta0=2.0, n=30, trials=400, seed=6)
        rep = run_simulation(cfg)
        entry = get_model("exp-noncanonical")
        stats = _pykernels.trial_stats("exp-noncanonical", 2.0, 1.0, 30, 6, 0, 400)
        z = entry.standardize_scale(2.0, 30) * (entry.mle_from_stat(stats, 30) - 2.0)
        h = cfg.test_function.evaluator
        mean_h = math.fsum(h(float(v)) for v in z) / 400
        assert rep.empirical_distance == abs(mean_h - rep.expected_h)

    @pytest.mark.parametrize(
        "strided",
        [lambda row: np.ascontiguousarray(row[::-1])[::-1],  # a reversed view: stride -8
         lambda row: np.repeat(row, 2)[::2]],  # every other element: stride 16
        ids=["reversed", "every-other"],
    )
    def test_strided_evaluator_result_gives_the_same_report(self, strided):
        # the reductions read h's values through the buffer, strides and all
        h = inv_quadratic_test_function()
        view = TestFunction(evaluator=lambda x: strided(h.evaluator(x)), sup_norm=h.sup_norm,
                            lip_norm=h.lip_norm, gaussian_expectation=h.gaussian_expectation)
        assert not strided(np.zeros(4)).flags.c_contiguous
        for model, theta0 in [("exp-canonical", 1.0), ("poisson", 5.0)]:
            kwargs = dict(model=model, theta0=theta0, n=25, trials=300, seed=8)
            contiguous = run_simulation(SimulationConfig(**kwargs, test_function=h)).to_dict()
            assert run_simulation(SimulationConfig(**kwargs, test_function=view)).to_dict() == contiguous

    @pytest.mark.parametrize(
        "evaluator",
        [lambda x: 1.0 / (math.exp(x) + 1.0),  # math functions take no array
         lambda x: 0.5 if x > 0 else 0.25,  # truth of an array is ambiguous
         lambda x: 0.5],  # a constant: one value for the whole row
        ids=["math", "branch", "constant"],
    )
    def test_scalar_only_evaluator_is_a_domain_error(self, evaluator):
        # it carries an exact E h, so the run reaches the evaluator
        h = TestFunction(evaluator=evaluator, sup_norm=0.5, lip_norm=0.25,
                         gaussian_expectation=inv_quadratic_expectation)
        cfg = SimulationConfig(model="exp-canonical", theta0=1.0, n=10, trials=20, test_function=h)
        with pytest.raises(DomainError, match="elementwise on a float64 array"):
            run_simulation(cfg)

    @pytest.mark.parametrize("model,theta0", [("exp-canonical", 1.0), ("poisson", 0.0)])
    def test_h_without_exact_expectation_draws_nothing(self, monkeypatch, model, theta0):
        # refused before any row is drawn, also at the point-mass target of poisson at 0
        drawn = []
        monkeypatch.setattr(_pykernels, "trial_stats", lambda *args: drawn.append(args))
        h = TestFunction(evaluator=inv_quadratic_test_function().evaluator, sup_norm=0.5,
                         lip_norm=0.25)
        cfg = SimulationConfig(model=model, theta0=theta0, n=10, trials=20, test_function=h)
        with pytest.raises(DomainError, match="gaussian_expectation"):
            run_rows(cfg, [10, 20])
        assert drawn == []


def _per_trial_coverage(model, theta0, n, alpha, trials, seed, beta=1.0, workers=1):
    """Coverage with one interval and one containment test per trial."""
    res = ci_coverage(model, theta0, n, alpha, trials, seed, beta=beta, workers=workers)
    entry = get_model(model, beta=beta)
    stats = _pykernels.trial_stats(model, theta0, beta, n, seed, 0, trials, workers)
    theta_hats = entry.mle_from_stat(stats, n)
    return res, per_trial_coverage(theta_hats, theta0, n, entry.fisher_info(theta0), alpha, res.b_k)


class TestCoverageVectorised:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    @pytest.mark.parametrize(
        "model,theta0,n,alpha",
        [("exp-canonical", 1.0, 10**7, 0.9), ("exp-canonical", 0.5, 10**8, 0.3),
         ("exp-noncanonical", 2.0, 10**8, 0.9)],
    )
    def test_equals_per_trial_intervals(self, model, theta0, n, alpha, seed):
        res, reference = _per_trial_coverage(model, theta0, n, alpha, 2000, seed)
        assert not res.degenerate
        assert 0.0 < reference < 1.0
        assert res.coverage == reference

    @pytest.mark.parametrize("seed", [5, 6])
    def test_equals_per_trial_intervals_at_two_workers(self, seed):
        res, reference = _per_trial_coverage("exp-canonical", 1.0, 10**7, 0.9, 3000, seed,
                                             workers=2)
        assert res.coverage == reference
        assert res == ci_coverage("exp-canonical", 1.0, 10**7, 0.9, 3000, seed, workers=1)
