"""Simulation harness: empirical distances, MSE sweeps, coverage checks.

Protocol for the distance experiments: draw ``trials`` independent samples
of size n, evaluate the estimator on each, standardise (by
sqrt(n i(theta0)) toward Z, or by sqrt(n) toward N(0, theta0) on the
boundary route), push the standardised values through the test function h,
and compare the trial mean of h with the exact Gaussian expectation that h
carries (``specfun.normal_expectation``).  The reported "empirical
distance" is that h-specific discrepancy; it is a lower proxy of the
class-supremum distance that the attached bound controls, never an estimate
of the supremum itself.

Reproducibility: a row's statistics come from one ``_pykernels.trial_stats``
call, from one Philox stream keyed by the seed; the Beta model with a
non-integer known shape draws raw samples in blocks with a stream each.  No
stream depends on the worker count, which is checked here; ``trial_stats``
caps the pool at the row's blocks and the CPUs.  Trial summaries are reduced
with exactly-rounded summation (fsum), which is permutation-invariant.
Identical config therefore yields byte-identical serialised reports at any
worker count.

Batching: one row engine, ``run_rows``, runs every distance and MSE row;
``run_simulation`` is its one-row case, ``run_mse_sweep`` its Beta MSE case,
and ``table 1|2`` run their five rows in one call.  It checks the rows and
computes their bounds and E h once, then draws each row with its own
``trial_stats`` call, so no stream changes.  Only the estimator call is
grouped: consecutive rows, up to max(trials, 16384) trials in all, are
mapped to their estimates in one ``mle_from_stat`` call, which spares the
Beta shape root a Newton run a row.  Each row then takes its own slice of
the estimates and reduces it alone: its standardisation, its h call, and
the fsums of its mean, standard error and MSE.  None of this changes a
value: the estimators and the Beta shape root act on each trial alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .. import registry
from .._validate import Value, ball_radius, instance, integer, master_seed, perturbation, real
from ..errors import DomainError, SteinMLEError
from ..msebound import BetaParams
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
    "run_rows",
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


# The row engine maps at most this many trials a call (one row if a row holds
# more), so the Beta shape root's block of terms grows no larger than that of
# one such row: (m x trials) for an integer shape m <= 16, and the series
# path's (16 x trials) shift block for any other shape.
_ROOT_LANES = 16384


class SimulationConfig(Value):
    """One distance experiment: model, true parameter, sizes, seed, h.

    ``test_function`` None is the default h, ``inv_quadratic_test_function()``.
    An epsilon or c that the model's bound would refuse is refused here."""

    def __init__(
        self, model: str, theta0: float, n: int, trials: int = 10000, seed: int = 0,
        test_function: TestFunction | None = None,
        beta: float = 1.0,  # Beta model's known second shape
        epsilon: float | None = None,
        c: object = "auto",  # Poisson perturbation constant
        workers: int = 1,
    ):
        if model not in registry.MODEL_NAMES:
            raise DomainError(f"model must be one of {registry.MODEL_NAMES}, got {model!r}")
        n, trials, workers = integer(n, "n"), integer(trials, "trials"), integer(workers, "workers")
        seed = master_seed(seed)
        entry = registry.get_model(model, beta)
        theta0 = real(theta0, "theta0", **entry.theta0_limit)
        h = inv_quadratic_test_function() if test_function is None else instance(
            test_function, TestFunction, "test_function")
        epsilon, c = None if epsilon is None else ball_radius(epsilon, theta0), perturbation(c)
        entry._reject_unused(epsilon, c)
        vars(self).update(model=model, theta0=theta0, n=n, trials=trials, seed=seed,
                          test_function=h, beta=entry.beta, epsilon=epsilon, c=c, workers=workers)


class SimulationReport(Value):
    """Outcome of one experiment row.

    ``target`` records which quantity ``bound_total`` controls: the
    h-specific distance ("distance") or the estimator MSE ("mse").  The
    ``error`` column of the CSV schema is bound minus the corresponding
    empirical value.
    """

    def __init__(
        self, model: str, theta0: float, n: int, trials: int, seed: int,
        empirical_distance: float, empirical_mse: float, bound_total: float,
        bound_terms: BoundBreakdown, standard_error: float | None, expected_h: float,
        target: str = "distance", rng_algorithm: str = RNG_ALGORITHM, backend: str = BACKEND_NAME,
    ):
        vars(self).update(
            model=model, theta0=theta0, n=n, trials=trials, seed=seed,
            empirical_distance=empirical_distance, empirical_mse=empirical_mse,
            bound_total=bound_total, bound_terms=bound_terms, standard_error=standard_error,
            expected_h=expected_h, target=target, rng_algorithm=rng_algorithm, backend=backend,
        )

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


def _h_row(h: TestFunction, standardized: np.ndarray) -> np.ndarray:
    """h at every standardised estimate of one row, in one evaluator call."""
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


def _integers(values, name: str, item: str, ge: int = 1) -> list:
    """``values``, a sequence or a 1-d array, as a list of ints, each checked
    as ``integer`` checks ``item``; anything else is a DomainError naming it."""
    sequence = isinstance(values, (Sequence, np.ndarray)) and not isinstance(values, str)
    if not sequence or getattr(values, "ndim", 1) != 1:
        raise DomainError(f"{name} must be a sequence of integers, got {values!r}")
    return [integer(value, item, ge=ge) for value in values]


def run_rows(
    cfg: SimulationConfig,
    n_values: Sequence[int] | None = None,
    *,
    first_trials: Sequence[int] | None = None,
    target: str = "distance",
) -> list:
    """The experiment of ``cfg`` at each n of ``n_values`` (default ``cfg.n``
    alone): one report a row, in order.

    Row k draws trials [first_trials[k], first_trials[k] + trials) of the
    seed (default: every row from trial 0, as ``run_simulation`` draws one
    row).  ``target`` "distance" attaches the model's distance bound, as
    ``run_simulation`` describes it; "mse" attaches the Beta MSE bound.
    Every bound and scale (from the registry's model, whose Beta rows share
    one ingredients build) and E h are computed before any row is drawn, so
    a refused n or scale, or an h without its exact E h, draws nothing.  See
    the module docstring for the batching, which changes no row's values.
    """
    entry = registry.get_model(instance(cfg, SimulationConfig, "cfg").model, beta=cfg.beta)
    theta0, h, trials = cfg.theta0, cfg.test_function, cfg.trials
    n_list = [cfg.n] if n_values is None else _integers(n_values, "n_values", "n")
    if not n_list:
        raise DomainError("n_values must be nonempty")
    firsts = [0] * len(n_list)
    if first_trials is not None:
        firsts = _integers(first_trials, "first_trials", "first trial", ge=0)
    if len(firsts) != len(n_list):
        raise DomainError(f"{len(n_list)} n values but {len(firsts)} first trials")
    if target not in ("distance", "mse") or (target == "mse" and cfg.model != "beta"):
        raise DomainError(f"target must be 'distance', or 'mse' for the beta model, got {target!r}")
    if target == "mse":
        try:
            bounds = [BoundBreakdown(terms=(("mse_bound", entry.mse_bound(theta0, n)),)) for n in n_list]
        except DomainError:  # D1 <= 0: name the minimal n and the n below it
            floor_n = entry.audit(theta0, None)["minimal_n"]
            bad = [n for n in n_list if n < floor_n]
            if not bad:
                raise
            raise DomainError(f"n below minimal n = {floor_n}: {len(bad)} of the n values, "
                              f"the smallest {min(bad)}") from None
    else:
        bounds = [
            entry.distance_bound(theta0, n, h_weights=h.weights, epsilon=cfg.epsilon, c=cfg.c)
            for n in n_list
        ]
    scales = [entry.standardize_scale(theta0, n) for n in n_list]
    expected_h = normal_expectation(h, scale=entry.target_sigma(theta0))
    reports = []
    rows_per_call = max(trials, _ROOT_LANES) // trials
    for first in range(0, len(n_list), rows_per_call):
        rows = range(first, min(first + rows_per_call, len(n_list)))
        stats = [
            _pykernels.trial_stats(
                cfg.model, theta0, cfg.beta, n_list[r], cfg.seed, firsts[r], firsts[r] + trials,
                cfg.workers,
            )
            for r in rows
        ]
        # No estimator reads n, so one call maps rows of different n; each
        # row then takes its own slice of the estimates.
        hats = entry.mle_from_stat(np.concatenate(stats), n_list[first])
        for r, errors in zip(rows, (hats - theta0).reshape(len(rows), trials)):
            h_values = _h_row(h, scales[r] * errors)
            # fsums (read through a memoryview: the floats of ``.tolist()``,
            # without the list), so no result depends on the trial order.
            mean = math.fsum(memoryview(h_values)) / trials
            se = None
            if trials > 1:  # the standard error's second pass: deviations from the mean
                deviations = h_values - mean
                deviations *= deviations
                se = math.sqrt(math.fsum(memoryview(deviations)) / (trials - 1)) / math.sqrt(trials)
            reports.append(
                SimulationReport(
                    model=cfg.model,
                    theta0=theta0,
                    n=n_list[r],
                    trials=trials,
                    seed=cfg.seed,
                    empirical_distance=abs(mean - expected_h),
                    empirical_mse=math.fsum(memoryview(errors**2)) / trials,
                    bound_total=bounds[r].total,
                    bound_terms=bounds[r],
                    standard_error=se,
                    expected_h=expected_h,
                    target=target,
                )
            )
    return reports


def run_simulation(cfg: SimulationConfig) -> SimulationReport:
    """Run one distance experiment and attach the model's bound.

    The bound is h-weighted for the exponential models (their assembler
    takes the norms of the configured test function); the Poisson and Beta
    closed forms are unit-weight totals (``steincore``'s h_weights
    convention), which refuse an h with a norm above 1.  Raises the
    underlying validation error if the bound is undefined at (theta0, n),
    e.g. a Beta sample size below the minimal admissible n.
    """
    return run_rows(cfg)[0]


def run_mse_sweep(
    params: BetaParams,
    n_values: Sequence[int],
    trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> list:
    """Empirical MSE against its bound over a range of Beta sample sizes.

    Every n must be at least the minimal admissible size; a smaller one is
    refused before any row is drawn.  Row r uses trial streams
    [r * trials, (r+1) * trials) off the master seed, so rows are
    independent and any row subset is reproducible in isolation.
    """
    instance(params, BetaParams, "params")
    n_list = _integers(n_values, "n_values", "n")
    if not n_list:
        raise DomainError("n_values must be nonempty")
    cfg = SimulationConfig(
        "beta", params.theta0, n_list[0], trials, seed, beta=params.beta, workers=workers
    )
    firsts = [r * cfg.trials for r in range(len(n_list))]
    return run_rows(cfg, n_list, first_trials=firsts, target="mse")


class CoverageResult(Value):
    """Outcome of ``ci_coverage``: the fraction of intervals that covered
    theta0, the Kolmogorov bound b_k that widened them, and whether every
    interval was the whole line."""

    def __init__(self, coverage: float, trials: int, b_k: float, degenerate: bool, alpha: float):
        vars(self).update(
            coverage=coverage, trials=trials, b_k=b_k, degenerate=degenerate, alpha=alpha
        )


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
    bound; the request is checked as ``SimulationConfig`` checks it.
    ``degenerate`` means that ``_ci_offsets`` gave the whole line: then no
    trial is drawn, and every interval covers.  The trial count is refused
    as ``_pykernels.check_trials`` refuses it, degenerate or not, so a
    degenerate run takes a count below 2^60 that no memory could hold.  Only
    models standardised toward the unit normal are supported; the Poisson
    boundary route targets N(0, theta0) and is rejected.
    """
    entry = registry.get_model(model, beta=beta)
    if not entry.supports_ci:
        raise DomainError(
            f"{model}: the conservative interval construction requires the "
            "unit-normal standardisation; the boundary route targets N(0, theta0)"
        )
    cfg = SimulationConfig(model, theta0, n, trials, seed, beta=beta, workers=workers)
    theta0, n, trials = cfg.theta0, cfg.n, cfg.trials
    b_k = kolmogorov_from_bw(entry.distance_bound(theta0, n, h_weights=(1.0, 1.0)).total)
    offsets = _ci_offsets(n, entry.fisher_info(theta0), alpha, b_k)  # checks alpha
    alpha = float(alpha)
    _pykernels.check_trials(0, trials)
    if offsets is None:
        return CoverageResult(coverage=1.0, trials=trials, b_k=b_k, degenerate=True, alpha=alpha)
    stats = _pykernels.trial_stats(model, theta0, cfg.beta, n, cfg.seed, 0, trials, cfg.workers)
    theta_hats = entry.mle_from_stat(stats, n)
    lower, upper = theta_hats - offsets[0], theta_hats - offsets[1]
    covered = int(np.count_nonzero((lower <= theta0) & (theta0 <= upper)))
    return CoverageResult(
        coverage=covered / trials, trials=trials, b_k=b_k, degenerate=False, alpha=alpha
    )
