"""Monte Carlo verification harness: per-trial statistics drawn from their laws."""

from .harness import (
    CoverageResult,
    SimulationConfig,
    SimulationReport,
    active_backend,
    ci_coverage,
    run_mse_sweep,
    run_rows,
    run_simulation,
)

__all__ = [
    "CoverageResult",
    "SimulationConfig",
    "SimulationReport",
    "active_backend",
    "ci_coverage",
    "run_mse_sweep",
    "run_rows",
    "run_simulation",
]
