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

Reproducibility: a row's statistics come from one ``_pykernels.trial_stats``
call, from one Philox stream keyed by the seed; the Beta model with a
non-integer known shape, or one above n, draws raw samples in blocks with a
stream each.  No stream depends on the worker count, which is checked here;
``trial_stats`` caps the pool at the row's blocks and the CPUs.  Trial
summaries are reduced with exactly-rounded summation (fsum), which is
permutation-invariant.  Identical config therefore yields byte-identical
serialised reports at any worker count.

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
from collections.abc import Sequence

import numpy as np

from .. import registry
from .._validate import Value, integer, master_seed, real
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
# if a row holds more), so the root's block of terms grows no larger than that
# of one such row: (m x trials) for an integer shape m <= 16, and the series
# path's (16 x trials) shift block for any other shape.
_ROOT_LANES = 16384


class SimulationConfig(Value):
    """One distance experiment: model, true parameter, sizes, seed, h.

    ``test_function`` None is the default h, ``inv_quadratic_test_function()``.
    """

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
        vars(self).update(
            model=model, theta0=theta0, n=n, trials=trials, seed=seed,
            test_function=inv_quadratic_test_function() if test_function is None else test_function,
            beta=entry.beta,
            epsilon=None if epsilon is None else real(epsilon, "epsilon", gt=0.0),
            c=c if c == "auto" else real(c, "c", gt=0.0), workers=workers,
        )


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
    fsum reads each float64 array through a memoryview, which hands it the
    same floats as ``.tolist()`` without building the list.  The standard
    error takes two passes (the mean, then the squared deviations from it)
    and is None for a single trial.
    """
    mean_h = math.fsum(memoryview(h_values)) / trials
    empirical_mse = math.fsum(memoryview((theta_hats - theta0) ** 2)) / trials
    se = None
    if trials > 1:
        deviations = h_values - mean_h
        variance = math.fsum(memoryview(deviations * deviations)) / (trials - 1)
        se = math.sqrt(variance) / math.sqrt(trials)
    return mean_h, empirical_mse, se


def expected_h(cfg: SimulationConfig) -> float:
    """E h(sigma Z), Z ~ N(0, 1), for the config's test function and the
    normal its standardised estimator targets: what a row's mean of h is
    compared with.  Rows with the same h, model and theta0 share it."""
    entry = registry.get_model(cfg.model, beta=cfg.beta)
    return normal_expectation(cfg.test_function, scale=entry.target_sigma(cfg.theta0))


def run_simulation(
    cfg: SimulationConfig, *, expected_h: float | None = None
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
    theta0 = cfg.theta0
    h = cfg.test_function
    bound = entry.distance_bound(
        theta0, cfg.n, h_weights=h.weights, epsilon=cfg.epsilon, c=cfg.c
    )

    stats = _pykernels.trial_stats(
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
    estimates in one ``mle_from_stat`` call: the shape root
    (``msebound.beta_shape_roots``, an exact finite-sum score for an integer
    shape up to 16) solves each trial on its own, so each row gets the
    estimates it would get alone.
    """
    entry = registry.get_model("beta", beta=params.beta)
    n_list = [integer(n, "n") for n in n_values]
    if not n_list:
        raise DomainError("n_values must be nonempty")
    ing = beta_ingredients(params)
    floor_n = minimal_n(ing)
    bad = [n for n in n_list if n < floor_n]
    if bad:
        raise DomainError(
            f"n below minimal n = {floor_n}: {len(bad)} of the n values, the smallest {min(bad)}"
        )
    trials, workers = integer(trials, "trials"), integer(workers, "workers")
    seed = master_seed(seed)
    h = inv_quadratic_test_function()
    expected_h = normal_expectation(h, scale=1.0)
    reports = []
    rows_per_call = max(trials, _ROOT_LANES) // trials
    for first in range(0, len(n_list), rows_per_call):
        group = n_list[first : first + rows_per_call]
        stats = [
            _pykernels.trial_stats(
                "beta", params.theta0, params.beta, n, seed, row * trials, (row + 1) * trials,
                workers,
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


class CoverageResult(Value):
    """Outcome of ``ci_coverage``: the fraction of intervals that covered
    theta0, the Kolmogorov bound b_k that widened them, and whether b_k >=
    alpha/2 made every interval the whole line."""

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
    n, trials, workers = integer(n, "n"), integer(trials, "trials"), integer(workers, "workers")
    seed = master_seed(seed)
    bound = entry.distance_bound(theta0, n, h_weights=(1.0, 1.0))
    b_k = kolmogorov_from_bw(bound.total)
    offsets = _ci_offsets(n, entry.fisher_info(theta0), alpha, b_k)  # checks alpha
    alpha = float(alpha)
    if b_k >= alpha / 2.0:
        return CoverageResult(coverage=1.0, trials=trials, b_k=b_k, degenerate=True, alpha=alpha)
    stats = _pykernels.trial_stats(model, theta0, beta, n, seed, 0, trials, workers)
    theta_hats = entry.mle_from_stat(stats, n)
    if offsets is None:  # the whole line
        covered = trials
    else:
        lower, upper = theta_hats - offsets[0], theta_hats - offsets[1]
        covered = int(np.count_nonzero((lower <= theta0) & (theta0 <= upper)))
    return CoverageResult(
        coverage=covered / trials, trials=trials, b_k=b_k, degenerate=False, alpha=alpha
    )
