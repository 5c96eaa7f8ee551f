"""steinmle: explicit finite-sample normal-approximation bounds for MLEs.

Deterministic bound calculators (exponential families, boundary-perturbed
discrete models, implicit-MLE MSE bounds) plus a seeded Monte Carlo harness
that checks the bounds against empirical estimator behaviour.
"""

from .boundary import (
    DEGENERATE_FISHER_INFO,
    PerturbationSpec,
    PerturbedScoreStats,
    general_perturbed_bound,
    perturb,
    perturbed_theta,
    poisson_bound,
)
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    SteinMLEError,
    UnknownModelError,
)
from .expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from .msebound import (
    BetaParams,
    ImplicitModelIngredients,
    beta_b3,
    beta_b_constants,
    beta_distance_bound,
    beta_ingredients,
    d1,
    implicit_distance_bound,
    minimal_n,
    mse_upper_bound_a1,
)
from .registry import MODEL_NAMES, get_model
from .specfun import normal_expectation, polygamma, std_normal_quantile
from .steincore import (
    BoundBreakdown,
    BoundIngredients,
    ConfidenceInterval,
    TestFunction,
    conservative_ci,
    inv_quadratic_test_function,
    kolmogorov_from_bw,
    mle_bound_general,
    score_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SteinMLEError",
    "DomainError",
    "UnknownModelError",
    "DegenerateSampleError",
    "ConvergenceError",
    # special functions
    "polygamma",
    "std_normal_quantile",
    "normal_expectation",
    # core bound assembly
    "TestFunction",
    "inv_quadratic_test_function",
    "BoundIngredients",
    "BoundBreakdown",
    "ConfidenceInterval",
    "score_bound",
    "mle_bound_general",
    "kolmogorov_from_bw",
    "conservative_ci",
    # exponential families
    "exp_canonical_ingredients",
    "exp_noncanonical_ingredients",
    # boundary perturbation
    "DEGENERATE_FISHER_INFO",
    "PerturbationSpec",
    "PerturbedScoreStats",
    "perturb",
    "perturbed_theta",
    "general_perturbed_bound",
    "poisson_bound",
    # implicit-MLE MSE bounds
    "ImplicitModelIngredients",
    "BetaParams",
    "d1",
    "minimal_n",
    "mse_upper_bound_a1",
    "implicit_distance_bound",
    "beta_ingredients",
    "beta_b_constants",
    "beta_b3",
    "beta_distance_bound",
    # registry
    "MODEL_NAMES",
    "get_model",
]
