"""Model registry: the four worked models keyed by stable names.

Each entry bundles what the Monte Carlo harness and the CLI need to treat a
model uniformly: parameter validation, the estimator (from a raw sample or
from the per-trial sufficient statistic), the standardisation used for the
distance experiments, the attached bound, and a JSON-serialisable audit of
the ingredient values.

Standardisation targets differ by route: the interior models compare
sqrt(n * i(theta0)) (theta_hat - theta0) with the unit normal, while the
boundary-perturbed Poisson compares sqrt(n) (theta_hat - theta0) with
N(0, theta0).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import boundary, expfam, msebound
from ._validate import integer, real
from .errors import DegenerateSampleError, DomainError, UnknownModelError
from .steincore import BoundBreakdown, mle_bound_general

__all__ = ["MODEL_NAMES", "get_model", "RegistryEntry"]

MODEL_NAMES = ("exp-canonical", "exp-noncanonical", "poisson", "beta")


def _as_clean_sample(sample):
    import numpy as np  # here, so that the bound verbs never load numpy

    arr = np.asarray(list(sample), dtype=float)
    if arr.size == 0:
        raise DegenerateSampleError("sample must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample contains non-finite values")
    return arr


def _anywhere(mask) -> bool:
    """Whether a comparison holds: for a scalar, or at any element of an array."""
    return bool(mask.any()) if hasattr(mask, "any") else bool(mask)


class RegistryEntry:
    """Base behaviour shared by all registered models."""

    name: str = ""
    supports_ci: bool = True
    # theta0's lower limit, as keywords of ``_validate.real``: positive here,
    # nonnegative for the Poisson mean.
    theta0_limit = {"gt": 0.0}

    def fisher_info(self, theta0: float) -> float:
        raise NotImplementedError

    def standardize_scale(self, theta0: float, n: int) -> float:
        return math.sqrt(n * self.fisher_info(theta0))

    def target_sigma(self, theta0: float) -> float:
        """Standard deviation of the normal the standardised estimator targets."""
        return 1.0

    def mle(self, sample: Sequence[float]) -> float:
        raise NotImplementedError

    def mle_from_stat(self, stat, n: int):
        """Estimates from per-trial statistics: a float for a float, and an
        array for a float64 array (a row of trials, mapped in one call)."""
        raise NotImplementedError

    def distance_bound(
        self, theta0: float, n: int, h_weights=(1.0, 1.0), epsilon: Optional[float] = None, c="auto"
    ) -> BoundBreakdown:
        raise NotImplementedError

    def mse_bound(self, theta0: float, n: int):
        """Model MSE bound where one exists (Beta only); None otherwise."""
        return None

    def audit(self, theta0: float, n: int, epsilon: Optional[float] = None) -> dict:
        raise NotImplementedError

    def _reject_unused(self, epsilon=None, c="auto"):
        """Refuse a value other than the default for an option the model ignores."""
        if epsilon is not None:
            raise DomainError(f"{self.name}: the model takes no epsilon, got {epsilon!r}")
        if c != "auto":
            raise DomainError(f"{self.name}: c applies to the poisson model only, got {c!r}")


class _ExpCanonical(RegistryEntry):
    name = "exp-canonical"

    def fisher_info(self, theta0):
        return 1.0 / real(theta0, "theta0", gt=0.0) ** 2

    def mle(self, sample):
        arr = _as_clean_sample(sample)
        mean = float(arr.mean())
        if mean == 0.0:
            raise DegenerateSampleError("exp-canonical estimator needs a nonzero sample mean")
        return 1.0 / mean

    def mle_from_stat(self, stat, n):
        if _anywhere(stat == 0.0):
            raise DegenerateSampleError("exp-canonical estimator needs a nonzero sample mean")
        return 1.0 / stat

    def distance_bound(self, theta0, n, h_weights=(1.0, 1.0), epsilon=None, c="auto"):
        self._reject_unused(c=c)
        ing = expfam.exp_canonical_ingredients(theta0, n, epsilon)
        return mle_bound_general(ing, h_weights)

    def audit(self, theta0, n, epsilon=None):
        ing = expfam.exp_canonical_ingredients(theta0, n, epsilon)
        return {"model": self.name, "ingredients": ing.to_dict()}


class _ExpNonCanonical(_ExpCanonical):
    name = "exp-noncanonical"

    def mle(self, sample):
        return float(_as_clean_sample(sample).mean())

    def mle_from_stat(self, stat, n):
        return stat

    def distance_bound(self, theta0, n, h_weights=(1.0, 1.0), epsilon=None, c="auto"):
        self._reject_unused(c=c)
        ing = expfam.exp_noncanonical_ingredients(theta0, n, epsilon)
        return mle_bound_general(ing, h_weights)

    def audit(self, theta0, n, epsilon=None):
        ing = expfam.exp_noncanonical_ingredients(theta0, n, epsilon)
        return {"model": self.name, "ingredients": ing.to_dict()}


class _Poisson(RegistryEntry):
    name = "poisson"
    supports_ci = False  # boundary route targets N(0, theta0), not Z
    theta0_limit = {"ge": 0.0}

    def fisher_info(self, theta0):
        theta0 = real(theta0, "theta0", ge=0.0)
        if theta0 == 0.0:
            raise DomainError("poisson: the information number degenerates at theta0 = 0")
        return 1.0 / theta0

    def standardize_scale(self, theta0, n):
        return math.sqrt(n)

    def target_sigma(self, theta0):
        return math.sqrt(real(theta0, "theta0", ge=0.0))

    def mle(self, sample):
        return float(_as_clean_sample(sample).mean())

    def mle_from_stat(self, stat, n):
        return stat

    def distance_bound(self, theta0, n, h_weights=(1.0, 1.0), epsilon=None, c="auto"):
        # The closed-form Poisson bound already absorbs the test-function
        # norms at their class ceiling (sup <= 1, Lipschitz <= 1), so it
        # dominates the h-discrepancy for any h in the class.
        self._reject_unused(epsilon=epsilon)
        return boundary.poisson_bound(theta0, n, c)

    def audit(self, theta0, n, epsilon=None):
        theta0, n = real(theta0, "theta0", ge=0.0), integer(n, "n")
        bd = self.distance_bound(theta0, n, epsilon=epsilon)
        return {"model": self.name, "theta0": theta0, "n": n, "bound": bd.to_dict()}


class _Beta(RegistryEntry):
    name = "beta"

    def __init__(self, beta: float = 1.0):
        self.beta = real(beta, "beta", gt=0.0)  # the known second shape

    def fisher_info(self, theta0):
        p = msebound.BetaParams(theta0, self.beta)
        return msebound.beta_ingredients(p).fisher_info

    def mle(self, sample):
        return msebound.beta_mle(list(sample), self.beta)

    def mle_from_stat(self, stat, n):
        if _anywhere(stat >= 0.0):
            raise DegenerateSampleError("beta estimator needs a negative mean log-observation")
        if self.beta == 1.0:
            return -1.0 / stat
        import numpy as np  # here, so that the bound verbs never load numpy

        if np.ndim(stat) == 0:
            return float(msebound.beta_shape_roots([stat], self.beta)[0])
        return msebound.beta_shape_roots(stat, self.beta)

    def distance_bound(self, theta0, n, h_weights=(1.0, 1.0), epsilon=None, c="auto"):
        # Weights are absorbed at their class ceiling, as for Poisson.
        self._reject_unused(epsilon, c)
        p = msebound.BetaParams(theta0, self.beta)
        return msebound.beta_distance_bound(p, n)

    def mse_bound(self, theta0, n):
        p = msebound.BetaParams(theta0, self.beta)
        return msebound._beta_mse_bound(msebound.beta_ingredients(p), n)

    def audit(self, theta0, n, epsilon=None):
        self._reject_unused(epsilon)
        p = msebound.BetaParams(theta0, self.beta)
        out = {"model": self.name, "theta0": p.theta0, "beta": self.beta}
        out.update(msebound.beta_b_constants(p))
        if n is not None:
            out["n"] = n = integer(n, "n")
            out["B3"] = msebound.beta_b3(p, n)
        return out


def get_model(name: str, beta: float = 1.0) -> RegistryEntry:
    """Look up a registry entry; ``beta`` is the Beta model's known shape."""
    if name == "exp-canonical":
        return _ExpCanonical()
    if name == "exp-noncanonical":
        return _ExpNonCanonical()
    if name == "poisson":
        return _Poisson()
    if name == "beta":
        return _Beta(beta)
    raise UnknownModelError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
