"""Model registry: the four worked models keyed by stable names.

``get_model`` returns one ``Model`` for each name: what the Monte Carlo
harness and the CLI need to treat a model uniformly.  That is the estimator
from the per-trial sufficient statistic, the standardisation used for the
distance experiments, the attached bound, and a JSON-serialisable audit of
the ingredient values.  Each method branches on the paper's route for the
model: the interior exponential-family bound (``exp-canonical``,
``exp-noncanonical``), the boundary perturbation (``poisson``) or the
implicit-MLE bound (``beta``).

Standardisation targets differ by route: the interior models compare
sqrt(n * i(theta0)) (theta_hat - theta0) with the unit normal, while the
boundary-perturbed Poisson compares sqrt(n) (theta_hat - theta0) with
N(0, theta0).

The bound builders are looked up on their modules at call time, never kept
in a table, so that a wrapper installed on a module attribute sees every
call.
"""

from __future__ import annotations

import math
from typing import Optional

from . import boundary, expfam, msebound
from ._validate import integer, real
from .errors import DegenerateSampleError, DomainError, UnknownModelError
from .steincore import BoundBreakdown, mle_bound_general

__all__ = ["MODEL_NAMES", "get_model", "Model"]

MODEL_NAMES = ("exp-canonical", "exp-noncanonical", "poisson", "beta")


def _anywhere(mask) -> bool:
    """Whether a comparison holds: for a scalar, or at any element of an array."""
    return bool(mask.any()) if hasattr(mask, "any") else bool(mask)


class Model:
    """One registered model; ``beta`` is the Beta model's known second shape."""

    __slots__ = ("name", "beta")

    def __init__(self, name: str, beta: float = 1.0):
        if name not in MODEL_NAMES:
            raise UnknownModelError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
        self.name = name
        self.beta = real(beta, "beta", gt=0.0) if name == "beta" else beta

    @property
    def supports_ci(self) -> bool:
        """Whether the conservative interval applies: the boundary route
        targets N(0, theta0), not Z."""
        return self.name != "poisson"

    @property
    def theta0_limit(self) -> dict:
        """theta0's lower limit, as keywords of ``_validate.real``."""
        return {"ge": 0.0} if self.name == "poisson" else {"gt": 0.0}

    def fisher_info(self, theta0: float) -> float:
        if self.name == "poisson":
            theta0 = real(theta0, "theta0", ge=0.0)
            if theta0 == 0.0:
                raise DomainError("poisson: the information number degenerates at theta0 = 0")
            return 1.0 / theta0
        if self.name == "beta":
            return msebound.beta_ingredients(msebound.BetaParams(theta0, self.beta)).fisher_info
        return 1.0 / real(theta0, "theta0", gt=0.0) ** 2

    def standardize_scale(self, theta0: float, n: int) -> float:
        if self.name == "poisson":
            return math.sqrt(n)
        return math.sqrt(n * self.fisher_info(theta0))

    def target_sigma(self, theta0: float) -> float:
        """Standard deviation of the normal the standardised estimator targets."""
        if self.name == "poisson":
            return math.sqrt(real(theta0, "theta0", ge=0.0))
        return 1.0

    def mle_from_stat(self, stat, n: int):
        """Estimates from per-trial statistics: a float for a float, and an
        array for a float64 array (a row of trials, mapped in one call).

        The statistic is the sample mean, or the mean log-observation for
        the Beta model.
        """
        if self.name == "exp-canonical":
            if _anywhere(stat == 0.0):
                raise DegenerateSampleError("exp-canonical estimator needs a nonzero sample mean")
            return 1.0 / stat
        if self.name != "beta":
            return stat
        if _anywhere(stat >= 0.0):
            raise DegenerateSampleError("beta estimator needs a negative mean log-observation")
        if self.beta == 1.0:
            return -1.0 / stat
        import numpy as np  # here, so that the bound verbs never load numpy

        if np.ndim(stat) == 0:
            return float(msebound.beta_shape_roots([stat], self.beta)[0])
        return msebound.beta_shape_roots(stat, self.beta)

    def distance_bound(
        self, theta0: float, n: int, h_weights=(1.0, 1.0), epsilon: Optional[float] = None, c="auto"
    ) -> BoundBreakdown:
        # The Poisson and Beta closed forms already absorb the test-function
        # norms at their class ceiling (sup <= 1, Lipschitz <= 1), so they
        # dominate the h-discrepancy for any h in the class.
        if self.name == "poisson":
            self._reject_unused(epsilon=epsilon)
            return boundary.poisson_bound(theta0, n, c)
        if self.name == "beta":
            self._reject_unused(epsilon, c)
            return msebound.beta_distance_bound(msebound.BetaParams(theta0, self.beta), n)
        self._reject_unused(c=c)
        return mle_bound_general(self._exp_ingredients(theta0, n, epsilon), h_weights)

    def mse_bound(self, theta0: float, n: int):
        """The estimator's MSE bound where one exists (Beta only); None otherwise."""
        if self.name != "beta":
            return None
        p = msebound.BetaParams(theta0, self.beta)
        return msebound._beta_mse_bound(msebound.beta_ingredients(p), n)

    def audit(self, theta0: float, n: int, epsilon: Optional[float] = None) -> dict:
        if self.name == "poisson":
            theta0, n = real(theta0, "theta0", ge=0.0), integer(n, "n")
            bd = self.distance_bound(theta0, n, epsilon=epsilon)
            return {"model": self.name, "theta0": theta0, "n": n, "bound": bd.to_dict()}
        if self.name == "beta":
            self._reject_unused(epsilon)
            p = msebound.BetaParams(theta0, self.beta)
            out = {"model": self.name, "theta0": p.theta0, "beta": self.beta}
            ing, constants = msebound._beta_constants(p)
            out.update(constants)
            if n is not None:
                out["n"] = n = integer(n, "n")
                out["B3"] = msebound._beta_b3(ing, n)
            return out
        return {"model": self.name, "ingredients": self._exp_ingredients(theta0, n, epsilon).to_dict()}

    def _exp_ingredients(self, theta0, n, epsilon):
        if self.name == "exp-canonical":
            return expfam.exp_canonical_ingredients(theta0, n, epsilon)
        return expfam.exp_noncanonical_ingredients(theta0, n, epsilon)

    def _reject_unused(self, epsilon=None, c="auto"):
        """Refuse a value other than the default for an option the model ignores."""
        if epsilon is not None:
            raise DomainError(f"{self.name}: the model takes no epsilon, got {epsilon!r}")
        if c != "auto":
            raise DomainError(f"{self.name}: c applies to the poisson model only, got {c!r}")


def get_model(name: str, beta: float = 1.0) -> Model:
    """The registered model of that name; ``beta`` is the Beta model's known shape."""
    return Model(name, beta)
