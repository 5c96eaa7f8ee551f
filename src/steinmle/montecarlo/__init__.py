"""Monte Carlo verification harness: per-trial statistics drawn from their laws."""

from .harness import (
    ConditionalCheckResult,
    CoverageResult,
    SimulationConfig,
    SimulationReport,
    active_backend,
    ci_coverage,
    conditional_expectation_check,
    mle,
    mle_abs_error_sampler,
    reports_to_csv,
    run_mse_sweep,
    run_simulation,
    sample,
)

__all__ = [
    "ConditionalCheckResult",
    "CoverageResult",
    "SimulationConfig",
    "SimulationReport",
    "active_backend",
    "ci_coverage",
    "conditional_expectation_check",
    "mle",
    "mle_abs_error_sampler",
    "reports_to_csv",
    "run_mse_sweep",
    "run_simulation",
    "sample",
]
