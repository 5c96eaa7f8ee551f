"""Harness behaviour: determinism, parity, sampler correctness, coverage."""

import functools
import json
import math
import statistics
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import bracketed_beta_root, conditioned_mean, kolmogorov_q, ks_two_sample, polygamma_series

from steinmle.errors import DegenerateSampleError, DomainError, UnknownModelError
from steinmle.montecarlo import SimulationConfig, ci_coverage, run_mse_sweep, run_simulation
from steinmle.montecarlo import _pykernels, harness
from steinmle.msebound import BetaParams, beta_ingredients, minimal_n
from steinmle.registry import MODEL_NAMES, get_model


def _draw(model, theta0, n, seed, beta=1.0):
    """n raw draws from the stream that trial 0 of ``seed`` starts."""
    return _pykernels.draw(model, theta0, beta, n, _pykernels.make_generator(seed, 0))


def _se_var(x):
    # standard error of the sample variance: sqrt((m4 - m2^2) / N)
    c = x - x.mean()
    return math.sqrt((float(np.mean(c**4)) - float(np.mean(c**2)) ** 2) / len(x))


class TestSamplers:
    @pytest.mark.parametrize("trial", [0, 1, 7, 12345, 2**64 + 5])
    def test_trial_stream_is_the_jumped_stream(self, trial):
        for seed in (0, 11, 2**100):
            made = _pykernels.make_generator(seed, trial)
            jumped = np.random.Generator(np.random.Philox(key=seed).jumped(trial))
            made_state, jumped_state = made.bit_generator.state, jumped.bit_generator.state
            for part in ("counter", "key"):
                assert (made_state["state"][part] == jumped_state["state"][part]).all()
            assert made.random(6).tolist() == jumped.random(6).tolist()
            assert made.standard_gamma(7.0, 5).tolist() == jumped.standard_gamma(7.0, 5).tolist()

    @pytest.mark.parametrize("seed,trial", [(7, 3), (2**64, 2**64 - 1), (2**128 - 1, 2**128 - 1)])
    def test_re_keyed_stream_forgets_the_previous_one(self, seed, trial):
        # draws that leave a half-used 32-bit word and a part-used block of
        # the previous stream must not leak into the next one
        used = _pykernels.make_generator(11, 0)
        used.integers(0, 2**32, 3, dtype=np.uint32)
        used.random(1)
        made = _pykernels.make_generator(seed, trial)
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=trial << 128))
        assert made.integers(0, 2**32, 5, dtype=np.uint32).tolist() == (
            fresh.integers(0, 2**32, 5, dtype=np.uint32).tolist()
        )
        assert made.standard_gamma(3.0, 4).tolist() == fresh.standard_gamma(3.0, 4).tolist()

    def test_threads_share_no_stream(self):
        # each thread re-keys its own generator, so rows drawn at once in
        # several threads are the rows each draws alone
        def row(seed):
            return _pykernels.trial_stats("exp-canonical", 1.0, 1.0, 5, seed, 0, 64).tolist()

        alone = {seed: row(seed) for seed in range(6)}
        wrong = []

        def work(seed):
            for _ in range(300):
                if row(seed) != alone[seed]:
                    wrong.append(seed)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in alone]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_poisson_zero_is_degenerate(self):
        x = _draw("poisson", 0.0, 500, 3)
        assert np.all(x == 0.0)

    def test_gamma_ratio_matches_inverse_cdf_sampler(self):
        # same law as inverting the Beta(1.5, 1) cdf x^1.5 directly: two-sample
        # KS below the 1% critical value at 1e5 draws a side
        n = 10**5
        ours = _draw("beta", 1.5, n, 21, beta=1.0)
        rng = np.random.Generator(np.random.Philox(key=99))
        reference = rng.random(n) ** (1.0 / 1.5)
        stat = ks_two_sample(ours, reference)[0]
        critical_1pct = 1.628 * math.sqrt(2.0 / n)
        assert stat < critical_1pct

    def test_generator_input_consumes_stream(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        a = _pykernels.draw("exp-canonical", 1.0, 1.0, 100, rng)
        b = _pykernels.draw("exp-canonical", 1.0, 1.0, 100, rng)
        assert not np.array_equal(a, b)

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            _draw("weibull", 1.0, 10, 0)
        with pytest.raises(UnknownModelError, match="exp-canonical"):
            _pykernels.trial_stats("weibull", 1.0, 1.0, 10, 0, 0, 5)

    def test_beta_small_shape_draws_stay_positive(self):
        # Generator.beta(0.01, b) returns exact zeros (about 6 in 10^4);
        # they are clamped so the log-observation stays finite
        for beta in (1.0, 2.0):
            x = _draw("beta", 0.01, 10**5, 3, beta=beta)
            assert float(x.min()) > 0.0
        stats = _pykernels.trial_stats("beta", 0.01, 2.0, 50, 3, 0, 2000)
        assert np.all(np.isfinite(stats))

    def test_poisson_mean_beyond_numpy_range(self):
        # n * theta0 = 1e20 is past numpy's Poisson limit (~9.2e18); the sum
        # is drawn in independent pieces
        rng = np.random.Generator(np.random.Philox(key=4))
        stats = _pykernels.sample_stats("poisson", 1e17, 1.0, 1000, 2000, rng)
        assert abs(float(stats.mean()) - 1e17) < 5.0 * math.sqrt(1e17 / 1000 / 2000)
        rep = run_simulation(
            SimulationConfig(model="poisson", theta0=1e17, n=1000, trials=20, seed=1)
        )
        assert 0.2 < rep.empirical_mse / (1e17 / 1000) < 3.0

    def test_poisson_mean_beyond_sampler_range_rejected(self):
        cfg = SimulationConfig(model="poisson", theta0=1e30, n=1000, trials=5, seed=1)
        with pytest.raises(DomainError, match="sampler's range"):
            run_simulation(cfg)


def _assert_matches_raw_statistic(model, theta0, beta, n, trials=4000):
    direct = _pykernels.trial_stats(model, theta0, beta, n, 31, 0, trials)
    x = _pykernels.draw(model, theta0, beta, trials * n, _pykernels.make_generator(31, 1))
    raw = (np.log(x) if model == "beta" else x).reshape(trials, n).mean(axis=1)
    assert ks_two_sample(direct, raw)[1] > 1e-3
    se_mean = math.sqrt((direct.var(ddof=1) + raw.var(ddof=1)) / trials)
    assert abs(float(direct.mean() - raw.mean())) < 5.0 * se_mean
    se_var = math.hypot(_se_var(direct), _se_var(raw))
    assert abs(float(direct.var(ddof=1) - raw.var(ddof=1))) < 5.0 * se_var


class TestKsOracle:
    """The two-sample KS test that the statistic laws are checked with."""

    @pytest.mark.parametrize("lam,q", [(1.3581, 0.05), (1.6276, 0.01)])
    def test_tail_matches_the_smirnov_table(self, lam, q):
        # the published two-sided critical values of the limit of sqrt(m) D
        assert abs(kolmogorov_q(lam) - q) < 1e-4

    def test_statistic_is_the_largest_gap_with_ties(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 6, 40), rng.integers(0, 8, 30)
        gaps = [
            abs(Fraction(int((a <= x).sum()), len(a)) - Fraction(int((b <= x).sum()), len(b)))
            for x in np.concatenate([a, b])
        ]
        assert ks_two_sample(a, b)[0] == float(max(gaps))

    def test_a_wrong_law_is_refused(self):
        # exp-canonical's statistic at theta0 = 1 is Gamma(n)/n, not Gamma(n + 1)/n
        n, trials = 5, 4000
        direct = _pykernels.trial_stats("exp-canonical", 1.0, 1.0, n, 31, 0, trials)
        wrong = np.random.default_rng(31).standard_gamma(n + 1, trials) / n
        assert ks_two_sample(direct, wrong)[1] < 1e-3


# The law table: every sampling path on a log grid of theta0 (the Poisson
# sampler's inversion below mean 10 and PTRS from 10 on, both) and of the Beta
# shape (raw and integer).  A row is (path, model, theta0, beta, n, count):
# "draw" takes count raw observations from ``draw``, "stats" count per-trial
# statistics from ``sample_stats``, and "raw" count Beta trials from the
# raw-sample blocks of ``trial_stats`` (the last row's trials each span more
# than a block).  10^6 Beta draws go to theta0 <= 0.1 alone, where
# Generator.beta puts many draws below 2^-64 and a few at exactly 0.
LAW_SEED = 16
THETA0S = (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
SHAPES = (0.1, 1.0, 2.5, 50.0)
LAWS = [
    *[(path, model, t, 1.0, n, 10**4) for model in MODEL_NAMES[:3] for t in THETA0S
      for path, n in (("draw", 1), ("stats", 5))],
    *[("draw", "beta", t, b, 1, 10**4) for t in THETA0S for b in SHAPES],
    *[("raw" if _pykernels.raw_sampled("beta", b) else "stats", "beta", t, b,
       *((1000, 1000) if t <= 0.1 else (10, 2000))) for t in THETA0S for b in SHAPES],
    ("raw", "beta", 1e-2, 2.5, _pykernels.BLOCK_OBS + 1000, 16),
]


@functools.cache
def _exact_law(model, theta0, beta):
    """Mean and variance of one observation, or of its log for the Beta model:
    psi(theta0) - psi(theta0 + beta) and psi1(theta0) - psi1(theta0 + beta),
    from the series oracle rather than the package's polygamma (at 2000
    terms, within 1e-15 of mpmath on this grid)."""
    if model == "exp-canonical":
        return 1.0 / theta0, 1.0 / theta0**2
    if model == "exp-noncanonical":
        return theta0, theta0**2
    if model == "poisson":
        return theta0, theta0
    return tuple(polygamma_series(m, theta0, 2000) - polygamma_series(m, theta0 + beta, 2000)
                 for m in (0, 1))


class TestStatisticLaws:
    """Each per-trial statistic sampler against the statistic of raw draws."""

    @pytest.mark.parametrize("n", [5, 50])
    @pytest.mark.parametrize(
        "model,theta0,beta",
        [
            ("exp-canonical", 1.0, 1.0),
            ("exp-noncanonical", 2.0, 1.0),
            ("poisson", 3.5, 1.0),
            ("beta", 1.5, 1.0),
            ("beta", 1.5, 2.0),
            ("beta", 1.5, 3.0),
        ],
    )
    def test_matches_raw_sample_statistic(self, model, theta0, beta, n):
        _assert_matches_raw_statistic(model, theta0, beta, n)

    @pytest.mark.parametrize("path,model,theta0,beta,n,count", LAWS,
                             ids=[f"{r[0]}-{r[1]}-{r[2]:g}-{r[3]:g}-n{r[4]}" for r in LAWS])
    def test_every_sampling_path_has_the_exact_moments(self, path, model, theta0, beta, n, count):
        # the mean to 5 SE, and the variance (over n for a trial's statistic)
        # to 5 SE of the sample variance
        if path == "draw":
            x = _pykernels.draw(model, theta0, beta, count, _pykernels.make_generator(LAW_SEED, 0))
            # the support: the integers >= 0 for Poisson, (0, 1) for Beta, else
            # x > 0; at beta = 0.1 only, 1 - X lies below half an ulp in 23 to
            # 505 of the 10^4 draws, which round to exactly 1.0
            assert float(x.min()) >= 0.0 and (model != "poisson" or np.all(x == np.floor(x)))
            assert model == "poisson" or float(x.min()) > 0.0
            assert model != "beta" or (x.max() <= 1.0 if beta == 0.1 else x.max() < 1.0)
            stats = np.log(x) if model == "beta" else x
        elif path == "stats":
            stats = _pykernels.sample_stats(model, theta0, beta, n, count,
                                            _pykernels.make_generator(LAW_SEED, 0))
        else:
            assert _pykernels.raw_sampled(model, beta)
            stats = _pykernels.trial_stats(model, theta0, beta, n, LAW_SEED, 0, count)
        mean, var = _exact_law(model, theta0, beta)
        assert abs(float(stats.mean()) - mean) < 5.0 * math.sqrt(var / n / count)
        assert abs(float(stats.var(ddof=1)) - var / n) < 5.0 * _se_var(stats)

    @given(theta0=st.builds(lambda e: 10.0**e, st.floats(-3.0, 6.0)), m=st.integers(1, 10**6))
    @example(theta0=1e-3, m=10**6)
    @example(theta0=1e6, m=10**6)
    def test_integer_shape_lies_below_the_minimal_n(self, theta0, m):
        # raw_sampled keys on the shape alone: a row's bound needs n at least
        # the minimal n, so an integer shape m draws its m gammas a trial, never
        # more than the n raw observations
        assert minimal_n(beta_ingredients(BetaParams(theta0, m))) > m

class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records each pool's size and
    maps in the calling process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


class TestRawBlockPool:
    """trial_stats sizes its pool by the blocks it has and the CPUs there are."""

    # n = 22000 makes blocks of 2 trials, so 6 trials are 3 blocks
    N, TRIALS = 22000, 6

    @pytest.fixture
    def sizes(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        return _RecordingPool.sizes

    def _stats(self, trials, workers):
        return _pykernels.trial_stats("beta", 1.5, 2.5, self.N, 9, 0, trials, workers)

    def test_pool_is_no_larger_than_the_block_list(self, sizes, monkeypatch):
        monkeypatch.setattr(_pykernels.os, "cpu_count", lambda: 64)
        assert _pykernels.block_trials(self.N) == 2
        stats = self._stats(self.TRIALS, 10**6)
        assert sizes == [3]
        assert stats.tolist() == self._stats(self.TRIALS, 1).tolist()

    def test_pool_is_no_larger_than_the_cpu_count(self, sizes, monkeypatch):
        monkeypatch.setattr(_pykernels.os, "cpu_count", lambda: 2)
        self._stats(self.TRIALS, 10**6)
        assert sizes == [2]

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_starts_no_pool(self, sizes, monkeypatch, cpus):
        monkeypatch.setattr(_pykernels.os, "cpu_count", lambda: cpus)
        self._stats(self.TRIALS, 10**6)
        assert sizes == []

    def test_one_block_or_a_closed_form_law_starts_no_pool(self, sizes, monkeypatch):
        monkeypatch.setattr(_pykernels.os, "cpu_count", lambda: 64)
        self._stats(2, 10**6)
        _pykernels.trial_stats("beta", 1.5, 2.0, self.N, 9, 0, self.TRIALS, 10**6)
        _pykernels.trial_stats("exp-canonical", 1.0, 1.0, 5, 9, 0, 10**5, 10**6)
        assert sizes == []

    @pytest.mark.parametrize("beta,n", [(2.5, 50)])
    def test_sample_stats_refuses_a_raw_sampled_config(self, beta, n):
        # int(2.5) is 2: without the check this would draw the Beta(theta0, 2) law
        assert _pykernels.raw_sampled("beta", beta)
        with pytest.raises(DomainError, match="raw samples"):
            _pykernels.sample_stats("beta", 1.5, beta, n, 10, _pykernels.make_generator(0, 0))


def test_registry_is_one_class():
    assert len({type(get_model(m)) for m in MODEL_NAMES}) == 1


class TestMleOp:
    def test_closed_forms(self):
        assert get_model("exp-canonical").mle_from_stat(0.5, 2) == pytest.approx(2.0)
        assert get_model("exp-noncanonical").mle_from_stat(2.0, 2) == pytest.approx(2.0)
        assert get_model("poisson").mle_from_stat(2.0, 4) == pytest.approx(2.0)
        # beta with unit known shape: -n / sum(log x)
        xs = [0.2, 0.5, 0.9]
        mean_log = math.fsum(math.log(v) for v in xs) / 3
        assert get_model("beta", beta=1.0).mle_from_stat(mean_log, 3) == pytest.approx(
            -3.0 / math.fsum(math.log(v) for v in xs), rel=1e-10
        )

    def test_beta_root_finder_from_stat(self):
        rng = np.random.default_rng(3)
        xs = rng.beta(1.2, 2.0, size=500)
        entry = get_model("beta", beta=2.0)
        stat = float(np.log(xs).mean())
        assert entry.mle_from_stat(stat, len(xs)) == pytest.approx(
            bracketed_beta_root(len(xs), float(np.log(xs).sum()), 2.0), rel=1e-10
        )

    @pytest.mark.parametrize("model,beta,stat", [("exp-canonical", 1.0, 0.0), ("beta", 1.0, 0.0),
                                                 ("beta", 1.0, 0.5), ("beta", 2.0, 0.0), ("beta", 2.0, 0.5)])
    def test_degenerate_samples(self, model, beta, stat):
        with pytest.raises(DegenerateSampleError):
            get_model(model, beta=beta).mle_from_stat(stat, 3)

    @pytest.mark.parametrize(
        "model,beta,sign",
        [
            ("exp-canonical", 1.0, 1.0),
            ("exp-noncanonical", 1.0, 1.0),
            ("poisson", 1.0, 1.0),
            ("beta", 1.0, -1.0),
            ("beta", 2.0, -1.0),
            ("beta", 2.5, -1.0),
        ],
    )
    def test_row_of_statistics_equals_the_per_trial_estimates(self, model, beta, sign):
        entry = get_model(model, beta=beta)
        stats = sign * np.random.default_rng(8).gamma(7.0, 1.0, 200) / 7.0
        row = entry.mle_from_stat(stats, 7)
        per_trial = [entry.mle_from_stat(float(s), 7) for s in stats]
        assert all(type(t) is float for t in per_trial)
        assert row.tolist() == per_trial

    @pytest.mark.parametrize(
        "model,beta,bad", [("exp-canonical", 1.0, 0.0), ("beta", 1.0, 0.0), ("beta", 2.0, 0.5)]
    )
    def test_one_degenerate_statistic_in_a_row_raises(self, model, beta, bad):
        stats = np.full(5, -0.5 if model == "beta" else 0.5)
        stats[3] = bad
        with pytest.raises(DegenerateSampleError):
            get_model(model, beta=beta).mle_from_stat(stats, 7)


class TestDeterminism:
    def test_seed_changes_empirical(self):
        base = SimulationConfig(model="exp-canonical", theta0=1.0, n=100, trials=300, seed=1)
        other = SimulationConfig(model="exp-canonical", theta0=1.0, n=100, trials=300, seed=2)
        assert (
            run_simulation(base).empirical_distance
            != run_simulation(other).empirical_distance
        )

    def test_raw_block_sweep_identical_across_worker_counts(self):
        # Beta(1.5, 2.5) draws raw samples in blocks of 4 (n=14816) and 2
        # (n=22000) trials; two workers split each row at those blocks
        assert _pykernels.raw_sampled("beta", 2.5)
        csv = [
            [
                rep.csv_row()
                for rep in run_mse_sweep(
                    BetaParams(1.5, 2.5), [14816, 22000], trials=12, seed=5, workers=w
                )
            ]
            for w in (1, 2)
        ]
        assert csv[0] == csv[1]


class TestRunSimulation:
    @pytest.mark.parametrize("theta0", [0.5, 5.0])
    def test_poisson_row_lies_within_its_noise_of_the_normal_limit(self, theta0):
        # At n = 50 the exact |E h(sqrt(n)(mean - theta0)) - E h(N(0, theta0))|
        # lies below the noise of 10^4 trials, so the row reads a few SE (2.3
        # and 1.7 here); a standardisation at sqrt(n theta0) reads 60-75 SE.
        rep = run_simulation(SimulationConfig("poisson", theta0, 50, trials=10**4, seed=0))
        assert rep.empirical_distance <= 5.0 * rep.standard_error

    def test_single_trial_reports_no_standard_error(self):
        cfg = SimulationConfig(model="exp-canonical", theta0=1.0, n=20, trials=1, seed=0)
        rep = run_simulation(cfg)
        assert rep.standard_error is None
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["standard_error"] is None

    def test_no_test_function_is_the_default_h(self):
        cfg = SimulationConfig("poisson", 5.0, 20, trials=50, seed=1, test_function=None)
        assert cfg.test_function.label == "inv-quadratic"
        assert run_simulation(cfg) == run_simulation(SimulationConfig("poisson", 5.0, 20, 50, 1))

    @pytest.mark.parametrize("trials", [2, 500, 10000])
    def test_standard_error_matches_stdev(self, trials):
        cfg = SimulationConfig(model="exp-canonical", theta0=1.0, n=5, trials=trials, seed=4)
        rep = run_simulation(cfg)
        entry = get_model("exp-canonical")
        stats = _pykernels.trial_stats("exp-canonical", 1.0, 1.0, 5, 4, 0, trials)
        scale = entry.standardize_scale(1.0, 5)
        h = cfg.test_function.evaluator
        h_values = [h(scale * (entry.mle_from_stat(float(s), 5) - 1.0)) for s in stats]
        expected = statistics.stdev(h_values) / math.sqrt(trials)
        assert rep.standard_error == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_poisson_degenerate_case(self):
        cfg = SimulationConfig(model="poisson", theta0=0.0, n=50, trials=100, seed=1)
        rep = run_simulation(cfg)
        assert rep.bound_total == 0.0
        assert rep.empirical_distance == 0.0
        assert rep.empirical_mse == 0.0

    def test_poisson_positive_dominance(self):
        cfg = SimulationConfig(model="poisson", theta0=1.0, n=100, trials=2000, seed=8)
        rep = run_simulation(cfg)
        assert rep.empirical_distance <= rep.bound_total

    def test_beta_distance_row_at_valid_n(self):
        cfg = SimulationConfig(model="beta", theta0=1.5, n=7500, trials=30, seed=19)
        rep = run_simulation(cfg)
        assert rep.target == "distance"
        assert rep.empirical_distance <= rep.bound_total
        assert tuple(dict(rep.bound_terms.terms)) == ("score", "markov_tail", "taylor_remainder", "r2")

    def test_standardised_moments_converge(self):
        # mean of sqrt(n i)(theta_hat - theta0) near 0, variance near 1
        trials, n = 1500, 10**5
        cfg = SimulationConfig(model="exp-canonical", theta0=1.0, n=n, trials=trials, seed=29)
        entry = get_model("exp-canonical")
        stats = _pykernels.trial_stats("exp-canonical", 1.0, 1.0, n, 29, 0, trials)
        standardized = entry.standardize_scale(1.0, n) * (1.0 / stats - 1.0)
        mean = float(standardized.mean())
        var = float(standardized.var(ddof=1))
        assert abs(mean) < 5.0 / math.sqrt(trials)
        assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / trials)
        rep = run_simulation(cfg)
        assert rep.empirical_distance <= rep.bound_total


class TestMseSweep:
    def test_single_row(self):
        reports = run_mse_sweep(BetaParams(1.5, 1.0), [7500], trials=200, seed=42)
        rep = reports[0]
        assert rep.target == "mse"
        assert rep.bound_total == pytest.approx(0.2520483938871623, rel=1e-9, abs=0.0)
        assert rep.empirical_mse <= rep.bound_total
        assert rep.error == rep.bound_total - rep.empirical_mse

    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5])
    def test_rows_carry_the_registry_bound_and_scale(self, beta):
        n_values = [minimal_n(beta_ingredients(BetaParams(1.5, beta))) + k for k in (0, 700)]
        reports = run_mse_sweep(BetaParams(1.5, beta), n_values, trials=20, seed=3)
        entry = get_model("beta", beta=beta)
        for row, (rep, n) in enumerate(zip(reports, n_values)):
            assert rep.bound_total == entry.mse_bound(1.5, n)
            stats = _pykernels.trial_stats("beta", 1.5, beta, n, 3, 20 * row, 20 * (row + 1))
            theta_hats = entry.mle_from_stat(stats, n)
            z = entry.standardize_scale(1.5, n) * (theta_hats - 1.5)
            mean_h = math.fsum(1.0 / (v * v + 2.0) for v in z.tolist()) / 20
            assert rep.empirical_distance == abs(mean_h - rep.expected_h)

    def test_a_refused_n_draws_nothing(self, monkeypatch):
        # every row's bound is computed before any row is drawn
        drawn = []
        monkeypatch.setattr(_pykernels, "trial_stats", lambda *a: drawn.append(a))
        for n_values in ([7000], [7500, 7000], [7500, 7700, 7459]):
            with pytest.raises(DomainError, match="minimal n = 7460"):
                run_mse_sweep(BetaParams(1.5, 1.0), n_values, trials=10, seed=0)
        assert drawn == []

    @pytest.mark.parametrize("theta0", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_refuses_exactly_the_n_below_minimal_n(self, monkeypatch, theta0, beta):
        # the refusal comes from the bound (D1 <= 0); it must fall exactly
        # where minimal_n puts the edge, and minimal_n only words it
        floor = minimal_n(beta_ingredients(BetaParams(theta0, beta)))
        monkeypatch.setattr(_pykernels, "trial_stats", lambda *a: np.full(a[6] - a[5], -0.5))
        for n in (1, floor - 2, floor - 1, floor, floor + 1, floor + 2):
            if n < floor:
                message = f"n below minimal n = {floor}: 1 of the n values, the smallest {n}"
                with pytest.raises(DomainError, match=f"^{message}$"):
                    run_mse_sweep(BetaParams(theta0, beta), [n], trials=2, seed=0)
            else:
                assert run_mse_sweep(BetaParams(theta0, beta), [n], trials=2, seed=0)[0].n == n

    def test_row_engine_checks_its_row_layout(self):
        cfg = SimulationConfig("beta", 1.5, 7500, trials=3)
        with pytest.raises(DomainError, match="2 n values but 1 first trials"):
            harness.run_rows(cfg, [7500, 7600], first_trials=[0])
        with pytest.raises(DomainError, match="first trial must be an integer >= 0"):
            harness.run_rows(cfg, [7500], first_trials=[-1])
        with pytest.raises(DomainError, match="n_values must be nonempty"):
            harness.run_rows(cfg, [])
        with pytest.raises(DomainError, match="target must be"):
            harness.run_rows(cfg, target="variance")
        with pytest.raises(DomainError, match="target must be"):
            harness.run_rows(SimulationConfig("poisson", 5.0, 20, trials=3), target="mse")

    def test_trial_range_ends_at_the_last_stream(self):
        # trials have streams 0 to 2^128 - 1: a row may end at 2^128, not past it
        cfg = SimulationConfig("poisson", 5.0, 5, trials=2)
        assert harness.run_rows(cfg, [5], first_trials=[2**128 - 2])[0].trials == 2
        with pytest.raises(DomainError, match=r"trial_stop must be <= 2\*\*128"):
            harness.run_rows(cfg, [5], first_trials=[2**128 - 1])

    def test_rows_use_disjoint_streams(self):
        reports = run_mse_sweep(BetaParams(1.5, 1.0), [7500, 7500], trials=50, seed=42)
        assert reports[0].empirical_mse != reports[1].empirical_mse

    def test_efficiency_matches_inverse_information(self):
        # empirical MSE tracks 1/(n * fisher) within 10%
        reports = run_mse_sweep(BetaParams(1.5, 1.0), [7500], trials=2000, seed=1234)
        fisher = get_model("beta").fisher_info(1.5)
        ratio = reports[0].empirical_mse * 7500 * fisher
        assert abs(ratio - 1.0) < 0.10

    def test_bound_dominates_across_admissible_range(self):
        # spot-check the dominance across the admissible window, including
        # both edges (the bound blows up toward the minimal n, so the edge
        # rows dominate by a wide margin)
        reports = run_mse_sweep(
            BetaParams(1.5, 1.0), [7460, 7800, 8459], trials=150, seed=6
        )
        for rep in reports:
            assert rep.empirical_mse <= rep.bound_total


class TestCiCoverage:
    def test_nondegenerate_coverage_exceeds_target(self):
        res = ci_coverage("exp-canonical", 1.0, 10**6, 0.5, trials=200, seed=77)
        assert not res.degenerate
        assert res.b_k < 0.25
        assert res.coverage >= 1.0 - 0.5
        assert res.coverage >= 0.9  # widened quantiles push far past 50%

    @pytest.mark.parametrize(
        "model,theta0,n", [("exp-canonical", 1.0, 10**10), ("exp-noncanonical", 2.0, 10**12)]
    )
    def test_informative_interval_at_alpha_005(self, model, theta0, n):
        # b_k < alpha/2 = 0.025 only from n ~ 6.3e9 (exp-canonical) and 8.6e11
        # (exp-noncanonical) on; below, the interval is the whole line
        res = ci_coverage(model, theta0, n, 0.05, 10**4, seed=0)
        assert not res.degenerate
        assert res.b_k < 0.025
        se = math.sqrt(res.coverage * (1.0 - res.coverage) / res.trials)
        assert res.coverage >= 1.0 - 0.05 - 3.0 * se


class TestConditionalExpectationCheck:
    def test_constant_function_equal(self):
        lhs, rhs, _, _ = conditioned_mean("exp-canonical", 1.0, 40, lambda m: 2.5, 0.2, 500, 3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)

    def test_infinite_eps_equal(self):
        lhs, rhs, _, count = conditioned_mean("exp-noncanonical", 2.0, 40, lambda m: m, 1e12, 500, 4)
        assert count == 500
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
