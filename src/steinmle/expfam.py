"""The two exponential worked models' bound ingredients.

A one-parameter exponential family has density exp{ k(theta) T(x) -
A(theta) + S(x) } on a support that does not depend on theta.  The score of
one observation is k'(theta) (T(x) - D(theta)) with D = A'/k', so

    fisher_info        = k'(theta0)^2 * Var T(X)
    third score moment = |k'(theta0)|^3 * E|T(X) - D(theta0)|^3

The exponential distribution enters twice, with T(x) = -x: parametrised by
its rate (the canonical case, k(theta) = theta, estimator 1/sample-mean) and
by its mean (non-canonical, k(theta) = 1/theta, estimator the sample mean).
Each builder states both formulas in closed form; everything downstream of
the moments is assembled by ``steincore``.

The constant ``EXP_THIRD_ABS_BOUND`` (2.41456) is a slightly rounded-up
bound on theta^3 * E|1/theta - X|^3 for X ~ Exp(theta); the exact value is
12/e - 2 ~= 2.4145533, and the test suite re-derives it by quadrature.
"""

from __future__ import annotations

import math
from typing import Optional

from ._validate import integer, real
from .errors import DomainError, float_range
from .steincore import BoundIngredients

__all__ = [
    "EXP_THIRD_ABS_BOUND",
    "exp_canonical_ingredients",
    "exp_noncanonical_ingredients",
]

EXP_THIRD_ABS_BOUND = 2.41456


@float_range
def exp_canonical_ingredients(
    theta0: float, n: int, epsilon: Optional[float] = None
) -> BoundIngredients:
    """Bound ingredients for the rate-parametrised exponential model.

    Estimator 1/sample-mean.  Requires n >= 3 for a finite MSE
    (n+2) theta0^2 / ((n-1)(n-2)).  The third-derivative sup
    2n/(theta0-eps)^3 holds for every sample, so the deterministic Taylor
    route applies.  The fourth estimator moment is finite only for n >= 5;
    it is unused on the deterministic route and stored as +inf below that.
    """
    theta0 = real(theta0, "theta0", gt=0.0)
    eps = theta0 / 2.0 if epsilon is None else real(epsilon, "epsilon", gt=0.0)
    if not eps < theta0:  # Theta = (0, inf): the epsilon-ball must stay inside
        raise DomainError(f"epsilon must lie in (0, theta0) = (0, {theta0!r}), got {eps!r}")
    n = integer(n, "n")
    if n < 3:
        raise DomainError(f"canonical exponential MSE requires n >= 3, got {n}")
    mse = (n + 2) * theta0**2 / ((n - 1) * (n - 2))
    if n >= 5:
        # E(1/mean - theta0)^4 in closed form; the ratio of integers rounds once.
        fourth = theta0**4 * ((3 * n * n + 46 * n + 24) / ((n - 1) * (n - 2) * (n - 3) * (n - 4)))
    else:
        fourth = math.inf
    return BoundIngredients(
        theta0=theta0,
        n=n,
        fisher_info=1.0 / theta0**2,
        third_abs_score_moment=EXP_THIRD_ABS_BOUND / theta0**3,
        mse=mse,
        fourth_mle_moment=fourth,
        sup_third_deriv=2.0 * n / (theta0 - eps) ** 3,
        r2_conditional_bound=0.0,  # canonical: l'' == -n i(theta0) identically
        epsilon=eps,
        sup_third_is_deterministic=True,
    )


@float_range
def exp_noncanonical_ingredients(
    theta0: float, n: int, epsilon: Optional[float] = None
) -> BoundIngredients:
    """Bound ingredients for the mean-parametrised exponential model.

    Estimator the sample mean (Gamma(n, n/theta0) distributed), MSE
    theta0^2/n, fourth moment (3 theta0^4/n^2)(2/n + 1).  The conditional R2
    mean is bounded by 2/theta0 and the third-derivative sup by
    4n(2 theta0 + eps)/(theta0 - eps)^4, which is sample-dependent, so the
    Cauchy-Schwarz Taylor route is used.
    """
    theta0 = real(theta0, "theta0", gt=0.0)
    eps = theta0 / 2.0 if epsilon is None else real(epsilon, "epsilon", gt=0.0)
    if not eps < theta0:  # Theta = (0, inf): the epsilon-ball must stay inside
        raise DomainError(f"epsilon must lie in (0, theta0) = (0, {theta0!r}), got {eps!r}")
    n = integer(n, "n")
    return BoundIngredients(
        theta0=theta0,
        n=n,
        fisher_info=1.0 / theta0**2,
        third_abs_score_moment=EXP_THIRD_ABS_BOUND / theta0**3,
        mse=theta0**2 / n,
        fourth_mle_moment=(3.0 * theta0**4 / n**2) * (2.0 / n + 1.0),
        sup_third_deriv=4.0 * n * (2.0 * theta0 + eps) / (theta0 - eps) ** 4,
        r2_conditional_bound=2.0 / theta0,
        epsilon=eps,
        sup_third_is_deterministic=False,
    )
