"""Simulation harness: empirical distances, MSE sweeps, coverage checks.

Protocol for the distance experiments: draw ``trials`` independent samples
of size n, evaluate the estimator on each, standardise (by
sqrt(n i(theta0)) toward Z, or by sqrt(n) toward N(0, theta0) on the
boundary route), push the standardised values through the test function h,
and compare the trial mean of h with the Gaussian expectation of h (exact
for the default h, by quadrature for any other).  The reported "empirical
distance" is that h-specific discrepancy; it is a lower proxy of the
class-supremum distance that the attached bound controls, never an estimate
of the supremum itself.

Reproducibility: each trial's sufficient statistic is drawn from its exact
law (see ``_pykernels``).  A row of trials draws from one Philox stream keyed
by the seed, and the Beta model with a non-integer known shape, or one above
n, draws raw samples in blocks with a stream each; which stream a row or
block uses does not depend on the worker count, which only spreads those
blocks over processes.  Trial summaries are reduced with exactly-rounded
summation (fsum), which is permutation-invariant.  Identical config
therefore yields byte-identical serialised reports at any worker count.

Batching: a row's statistics map to its estimates in one ``mle_from_stat``
call, and its standardised estimates go through h in one call of
``TestFunction.evaluator`` on the whole float64 row.  Work that rows share
is done once: ``run_simulation`` takes E h as ``expected_h`` (``table 1|2``
computes it once for its five rows), and ``run_mse_sweep`` solves the Beta
shape root for consecutive rows in one call.  Neither changes a value: the
estimators and the shape root act on each trial alone, and h elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import registry
from .._validate import integer, real
from ..errors import DomainError, SteinMLEError
from ..msebound import BetaParams, _beta_mse_bound, beta_ingredients, minimal_n
from ..specfun import normal_expectation
from ..steincore import (
    BoundBreakdown,
    TestFunction,
    _ci_offsets,
    inv_quadratic_test_function,
    kolmogorov_from_bw,
)
from . import _pykernels
from ._pykernels import BACKEND_NAME, RNG_ALGORITHM

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "CoverageResult",
    "expected_h",
    "run_simulation",
    "run_mse_sweep",
    "ci_coverage",
]

REPORT_CSV_COLUMNS = (
    "model",
    "theta0",
    "n",
    "trials",
    "seed",
    "empirical_distance",
    "empirical_mse",
    "bound_total",
    "error",
)


# A sweep solves the shape root for at most this many trials a call (one row
# if a row holds more), so the root's (16 x trials) shift block grows no
# larger than that of one such row.
_ROOT_LANES = 16384


@dataclass(frozen=True)
class SimulationConfig:
    """One distance experiment: model, true parameter, sizes, seed, h."""

    model: str
    theta0: float
    n: int
    trials: int = 10000
    seed: int = 0
    test_function: TestFunction = field(default_factory=inv_quadratic_test_function)
    beta: float = 1.0  # Beta model's known second shape
    epsilon: Optional[float] = None
    c: object = "auto"  # Poisson perturbation constant
    workers: int = 1

    def __post_init__(self):
        if self.model not in registry.MODEL_NAMES:
            raise DomainError(
                f"model must be one of {registry.MODEL_NAMES}, got {self.model!r}"
            )
        for name in ("n", "trials", "workers"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        object.__setattr__(self, "seed", integer(self.seed, "seed", ge=0))


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one experiment row.

    ``target`` records which quantity ``bound_total`` controls: the
    h-specific distance ("distance") or the estimator MSE ("mse").  The
    ``error`` column of the CSV schema is bound minus the corresponding
    empirical value.
    """

    model: str
    theta0: float
    n: int
    trials: int
    seed: int
    empirical_distance: float
    empirical_mse: float
    bound_total: float
    bound_terms: BoundBreakdown
    standard_error: Optional[float]
    expected_h: float
    target: str = "distance"
    rng_algorithm: str = RNG_ALGORITHM
    backend: str = BACKEND_NAME

    @property
    def empirical(self) -> float:
        return self.empirical_mse if self.target == "mse" else self.empirical_distance

    @property
    def error(self) -> float:
        return self.bound_total - self.empirical

    def to_dict(self) -> dict:
        return {
            "schema": "steinmle/simulation-report/v1",
            "model": self.model,
            "theta0": self.theta0,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "empirical_distance": self.empirical_distance,
            "empirical_mse": self.empirical_mse,
            "bound_total": self.bound_total,
            "bound_terms": self.bound_terms.to_dict(),
            "standard_error": self.standard_error,
            "expected_h": self.expected_h,
            "target": self.target,
            "error": self.error,
            "rng_algorithm": self.rng_algorithm,
            "backend": self.backend,
        }

    def csv_row(self) -> tuple:
        """The row's cells under ``REPORT_CSV_COLUMNS``: the model name as it
        is, every number as its repr."""
        cells = (getattr(self, column) for column in REPORT_CSV_COLUMNS)
        return tuple(cell if isinstance(cell, str) else repr(cell) for cell in cells)


def active_backend() -> str:
    """Name of the sampling kernels, as every report records it."""
    return BACKEND_NAME


def _stats_chunk(args):
    return _pykernels.trial_stats(*args)


def _collect_stats(
    model: str,
    theta0: float,
    beta: float,
    n: int,
    seed: int,
    trial_start: int,
    trials: int,
    workers: int,
) -> np.ndarray:
    stop = trial_start + trials
    step = _pykernels.block_trials(n)
    if workers <= 1 or trials <= step or not _pykernels.raw_sampled(model, beta, n):
        return _pykernels.trial_stats(model, theta0, beta, n, seed, trial_start, stop)
    # Raw-sample blocks are the unit of work; their streams do not depend on
    # which process draws them.
    tasks = [
        (model, theta0, beta, n, seed, t, min(t + step, stop))
        for t in range(trial_start, stop, step)
    ]
    # Imported here: it loads multiprocessing, which no other path needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(tasks) // (workers * 4))
        return np.concatenate(list(pool.map(_stats_chunk, tasks, chunksize=chunksize)))


def _h_row(h: TestFunction, standardized: np.ndarray) -> np.ndarray:
    """h at every standardised estimate of a row, in one evaluator call."""
    contract = "TestFunction.evaluator must act elementwise on a float64 array"
    try:
        values = np.asarray(h.evaluator(standardized), dtype=float)
    except SteinMLEError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{contract}; it raised {type(exc).__name__}: {exc}") from exc
    if values.shape != standardized.shape:
        raise DomainError(
            f"{contract}; it returned shape {values.shape} for shape {standardized.shape}"
        )
    return values


def _summarise(h_values: np.ndarray, theta_hats: np.ndarray, theta0: float, trials: int):
    """Mean of h, empirical MSE, and the standard error of the mean of h.

    Every sum is an fsum, so no result depends on the order of the trials.
    The standard error takes two passes (the mean, then the squared
    deviations from it) and is None for a single trial.
    """
    mean_h = math.fsum(h_values.tolist()) / trials
    empirical_mse = math.fsum(((theta_hats - theta0) ** 2).tolist()) / trials
    se = None
    if trials > 1:
        deviations = h_values - mean_h
        variance = math.fsum((deviations * deviations).tolist()) / (trials - 1)
        se = math.sqrt(variance) / math.sqrt(trials)
    return mean_h, empirical_mse, se


def expected_h(cfg: SimulationConfig) -> float:
    """E h(sigma Z), Z ~ N(0, 1), for the config's test function and the
    normal its standardised estimator targets: what a row's mean of h is
    compared with.  Rows with the same h, model and theta0 share it."""
    entry = registry.get_model(cfg.model, beta=cfg.beta)
    theta0 = real(cfg.theta0, "theta0", **entry.theta0_limit)
    return normal_expectation(cfg.test_function, scale=entry.target_sigma(theta0))


def run_simulation(
    cfg: SimulationConfig, *, expected_h: Optional[float] = None
) -> SimulationReport:
    """Run one distance experiment and attach the model's bound.

    The bound is h-weighted for the exponential models (their assembler
    takes the norms of the configured test function); the Poisson and Beta
    closed forms absorb the norms at the class ceiling and dominate any h in
    the bounded-Lipschitz class.  Raises the underlying validation error if
    the bound is undefined at (theta0, n), e.g. a Beta sample size below the
    minimal admissible n.  ``expected_h``, when given, must be
    ``expected_h(cfg)``, computed once for rows that share it; None computes
    it here.
    """
    entry = registry.get_model(cfg.model, beta=cfg.beta)
    theta0 = real(cfg.theta0, "theta0", **entry.theta0_limit)
    h = cfg.test_function
    bound = entry.distance_bound(
        theta0, cfg.n, h_weights=h.weights, epsilon=cfg.epsilon, c=cfg.c
    )

    stats = _collect_stats(
        cfg.model, theta0, cfg.beta, cfg.n, cfg.seed, 0, cfg.trials, cfg.workers
    )
    theta_hats = entry.mle_from_stat(stats, cfg.n)
    standardized = entry.standardize_scale(theta0, cfg.n) * (theta_hats - theta0)
    h_values = _h_row(h, standardized)
    if expected_h is None:
        expected_h = normal_expectation(h, scale=entry.target_sigma(theta0))
    mean_h, empirical_mse, se = _summarise(h_values, theta_hats, theta0, cfg.trials)
    empirical_distance = abs(mean_h - expected_h)
    return SimulationReport(
        model=cfg.model,
        theta0=theta0,
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        empirical_distance=empirical_distance,
        empirical_mse=empirical_mse,
        bound_total=bound.total,
        bound_terms=bound,
        standard_error=se,
        expected_h=expected_h,
        target="distance",
    )


def run_mse_sweep(
    params: BetaParams,
    n_values: Sequence[int],
    trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> list:
    """Empirical MSE against its bound over a range of Beta sample sizes.

    Every n must be at least the minimal admissible size.  Row r uses trial
    streams [r * trials, (r+1) * trials) off the master seed, so rows are
    independent and any row subset is reproducible in isolation.  The rows
    share E h(Z) and the Beta ingredients.  Consecutive rows, up to
    max(trials, 16384) trials in all, are drawn and then mapped to their
    estimates in one ``mle_from_stat`` call: the shape root solves each
    trial on its own, so each row gets the estimates it would get alone.
    """
    entry = registry.get_model("beta", beta=params.beta)
    n_list = [integer(n, "n") for n in n_values]
    if not n_list:
        raise DomainError("n_values must be nonempty")
    ing = beta_ingredients(params)
    floor_n = minimal_n(ing)
    bad = [n for n in n_list if n < floor_n]
    if bad:
        raise DomainError(f"n below minimal n = {floor_n}: {bad}")
    trials = integer(trials, "trials")
    seed = integer(seed, "seed", ge=0)
    h = inv_quadratic_test_function()
    expected_h = normal_expectation(h, scale=1.0)
    reports = []
    rows_per_call = max(trials, _ROOT_LANES) // trials
    for first in range(0, len(n_list), rows_per_call):
        group = n_list[first : first + rows_per_call]
        stats = [
            _collect_stats(
                "beta", params.theta0, params.beta, n, seed, row * trials, trials, workers
            )
            for row, n in enumerate(group, start=first)
        ]
        # The Beta estimator reads only the mean log-observation, never n.
        group_hats = entry.mle_from_stat(np.concatenate(stats), group[0])
        for k, n in enumerate(group):
            theta_hats = group_hats[k * trials : (k + 1) * trials]
            scale = math.sqrt(n * ing.fisher_info)  # entry.standardize_scale, from ing
            h_values = _h_row(h, scale * (theta_hats - params.theta0))
            mean_h, empirical_mse, se = _summarise(h_values, theta_hats, params.theta0, trials)
            mse_bound = _beta_mse_bound(ing, n)
            reports.append(
                SimulationReport(
                    model="beta",
                    theta0=params.theta0,
                    n=n,
                    trials=trials,
                    seed=seed,
                    empirical_distance=abs(mean_h - expected_h),
                    empirical_mse=empirical_mse,
                    bound_total=mse_bound,
                    bound_terms=BoundBreakdown(terms=(("mse_bound", mse_bound),)),
                    standard_error=se,
                    expected_h=expected_h,
                    target="mse",
                )
            )
    return reports


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    trials: int
    b_k: float
    degenerate: bool
    alpha: float


def ci_coverage(
    model: str,
    theta0: float,
    n: int,
    alpha: float,
    trials: int,
    seed: int = 0,
    *,
    beta: float = 1.0,
    workers: int = 1,
) -> CoverageResult:
    """Fraction of conservative intervals containing the true parameter.

    B_K is the Kolmogorov conversion of the model's whole-class distance
    bound.  Degenerate (whole-line) intervals count as covering.  Only
    models standardised toward the unit normal are supported; the Poisson
    boundary route targets N(0, theta0) and is rejected.
    """
    entry = registry.get_model(model, beta=beta)
    if not entry.supports_ci:
        raise DomainError(
            f"{model}: the conservative interval construction requires the "
            "unit-normal standardisation; the boundary route targets N(0, theta0)"
        )
    theta0 = real(theta0, "theta0", **entry.theta0_limit)
    n = integer(n, "n")
    trials = integer(trials, "trials")
    seed = integer(seed, "seed", ge=0)
    bound = entry.distance_bound(theta0, n, h_weights=(1.0, 1.0))
    b_k = kolmogorov_from_bw(bound.total)
    offsets = _ci_offsets(n, entry.fisher_info(theta0), alpha, b_k)  # checks alpha
    alpha = float(alpha)
    if b_k >= alpha / 2.0:
        return CoverageResult(coverage=1.0, trials=trials, b_k=b_k, degenerate=True, alpha=alpha)
    stats = _collect_stats(model, theta0, beta, n, seed, 0, trials, workers)
    theta_hats = entry.mle_from_stat(stats, n)
    if offsets is None:  # the whole line
        covered = trials
    else:
        # conservative_ci's endpoints and ConfidenceInterval.contains' closed
        # rule, for the whole row at once
        lower, upper = theta_hats - offsets[0], theta_hats - offsets[1]
        covered = int(np.count_nonzero((lower <= theta0) & (theta0 <= upper)))
    return CoverageResult(
        coverage=covered / trials, trials=trials, b_k=b_k, degenerate=False, alpha=alpha
    )
