"""Model registry: the four worked models keyed by stable names.

``get_model`` returns one ``Model`` for each name: what the Monte Carlo
harness and the CLI need to treat a model uniformly.  That is the estimator
from the per-trial sufficient statistic, the standardisation used for the
distance experiments, the attached bound, and a JSON-serialisable audit of
the ingredient values.  Each method branches on the paper's route for the
model: the interior exponential-family bound (``exp-canonical``,
``exp-noncanonical``), the boundary perturbation (``poisson``) or the
implicit-MLE bound (``beta``), whose ingredients one request builds once.

Each parameter has one check: theta0 against ``theta0_limit`` or in the
route's bound builder (``expfam``'s formula helper on the exponential route,
which builds no ``BoundIngredients``), and c and h_weights with
``_validate.perturbation`` and ``_validate.weights``.

Every method returns a documented value or raises a ``SteinMLEError``: an
information number, a scale or an audited ingredient beyond the float range
is a ``FloatRangeError``, as the bounds' own overflows are.

The bound builders are looked up on their modules at call time, never kept
in a table, so that a wrapper installed on a module attribute sees every
call.
"""

from __future__ import annotations

import math
import sys

from . import boundary, expfam, msebound
from ._validate import integer, perturbation, real, weights
from .errors import DegenerateSampleError, DomainError, FloatRangeError, UnknownModelError, float_range
from .steincore import BoundBreakdown, BoundIngredients, _mle_bound_fields

__all__ = ["MODEL_NAMES", "get_model", "Model"]

MODEL_NAMES = ("exp-canonical", "exp-noncanonical", "poisson", "beta")


def _finite(name: str, value):
    """``value``, unless it overflowed to inf: that is the FloatRangeError
    naming it as ``name``."""
    if value == math.inf:
        raise FloatRangeError(
            f"{name} overflowed to inf; the input lies outside the float range of this computation"
        )
    return value


def _finite_fields(fields: dict) -> dict:
    """An audit's fields, checked with ``_finite`` in order."""
    for key, value in fields.items():
        _finite(f"audit: field {key!r}", value)
    return fields


def _everywhere(mask) -> bool:
    """Whether a comparison holds: for a scalar, or at every element of an array."""
    return bool(mask.all()) if hasattr(mask, "all") else bool(mask)


def _statistic(stat):
    """A statistic as the estimators take it: a float64 array as it is, and
    anything else checked as a real number, to a finite float."""
    if not getattr(stat, "ndim", 0):
        return real(stat, "statistic")
    if stat.dtype != "float64":
        raise DomainError(f"statistic must be a real number or a float64 array, got {stat!r}")
    return stat


# The largest float whose reciprocal overflows: 1/x is finite for x above it.
_INV_MAX = 1.0 / sys.float_info.max


class Model:
    """One registered model; ``beta`` is the Beta model's known second shape."""

    __slots__ = ("name", "beta", "_beta_memo")

    def __init__(self, name: str, beta: float = 1.0):
        if name not in MODEL_NAMES:
            raise UnknownModelError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
        self.name = name
        self.beta = real(beta, "beta", gt=0.0)
        self._beta_memo = None  # (theta0, ingredients) of the last Beta build

    @property
    def supports_ci(self) -> bool:
        """Whether the conservative interval applies: the boundary route
        targets N(0, theta0), not Z."""
        return self.name != "poisson"

    @property
    def uses_h_weights(self) -> bool:
        """Whether ``distance_bound`` reads its ``h_weights`` (see there)."""
        return self.name not in ("poisson", "beta")

    @property
    def theta0_limit(self) -> dict:
        """theta0's lower limit, as keywords of ``_validate.real``."""
        return {"ge": 0.0} if self.name == "poisson" else {"gt": 0.0}

    def _theta0(self, theta0) -> float:  # the one check of theta0 in this class
        return real(theta0, "theta0", **self.theta0_limit)

    @float_range
    def fisher_info(self, theta0: float) -> float:
        """The expected information of one observation at theta0."""
        theta0 = self._theta0(theta0)
        if self.name == "poisson":
            if theta0 == 0.0:
                raise DomainError("poisson: the information number degenerates at theta0 = 0")
            return _finite("fisher_info: the information", 1.0 / theta0)
        if self.name == "beta":
            return self._beta_ingredients(theta0).fisher_info
        return _finite("fisher_info: the information", 1.0 / theta0**2)

    @float_range
    def standardize_scale(self, theta0: float, n: int) -> float:
        """sqrt(n i(theta0)), or sqrt(n) on the boundary route."""
        n = integer(n, "n")
        if self.name == "poisson":
            self._theta0(theta0)
            return math.sqrt(n)
        return _finite("standardize_scale: the scale", math.sqrt(n * self.fisher_info(theta0)))

    def target_sigma(self, theta0: float) -> float:
        """Standard deviation of the normal the standardised estimator targets."""
        theta0 = self._theta0(theta0)
        return math.sqrt(theta0) if self.name == "poisson" else 1.0

    def mle_from_stat(self, stat, n: int):
        """Estimates from per-trial statistics: a float for a real number, and
        an array for a float64 array (a row of trials, mapped in one call).

        The statistic is the sample mean, or the mean log-observation for
        the Beta model.  The Beta estimate is -1/mean_log for beta = 1 and
        otherwise the Newton root of ``msebound.beta_shape_roots``, whose
        score is an exact finite sum for an integer beta up to 16.  A
        statistic that is neither a finite real number nor a float64 array
        is a DomainError; the identity estimators return an array's elements
        unchecked.  A statistic that admits no finite estimate is a
        DegenerateSampleError: an exp-canonical mean, or minus a Beta mean
        log-observation, at or below 1/DBL_MAX, whose reciprocal overflows
        (zero included).  No estimator reads n; it is checked as a size.
        """
        stat = _statistic(stat)
        integer(n, "n")
        if self.name == "exp-canonical":
            if not _everywhere(stat > _INV_MAX):
                raise DegenerateSampleError("exp-canonical estimator needs a sample mean above 1/DBL_MAX")
            return 1.0 / stat
        if self.name != "beta":
            return stat
        if not _everywhere(stat < -_INV_MAX):
            raise DegenerateSampleError("beta estimator needs a mean log-observation below -1/DBL_MAX")
        if self.beta == 1.0:
            return -1.0 / stat
        if type(stat) is float:
            return float(msebound.beta_shape_roots([stat], self.beta)[0])
        return msebound.beta_shape_roots(stat, self.beta)

    def distance_bound(
        self, theta0: float, n: int, h_weights=(1.0, 1.0), epsilon: float | None = None, c="auto"
    ) -> BoundBreakdown:
        """The model's distance bound at (theta0, n), term by term.  The
        exponential routes weight the terms by ``h_weights`` and take
        ``epsilon``, the ball radius (theta0/2 if None); poisson takes ``c``
        ("auto" minimises the total).  Every route refuses an epsilon other
        than None, or a c other than "auto", that it does not read; the
        poisson and beta closed forms, unit-weight totals (``steincore``'s
        h_weights convention), leave h weights up to 1 unread and refuse more."""
        if not self.uses_h_weights and max(weights(h_weights)) > 1.0:
            raise DomainError(
                f"{self.name}: the closed form is the unit-weight total, which covers "
                f"h weights up to 1 only, got {h_weights!r}"
            )
        if self.name == "poisson":
            self._reject_unused(epsilon)
            return boundary.poisson_bound(theta0, n, c)
        if self.name == "beta":
            self._reject_unused(epsilon, c)
            return msebound.implicit_distance_bound(self._beta_ingredients(self._theta0(theta0)), n)
        self._reject_unused(c=c)
        return _mle_bound_fields(self._exp_fields(theta0, n, epsilon), h_weights)

    @float_range
    def mse_bound(self, theta0: float, n: int):
        """The MSE bound (B3/sqrt(n))^2 where one exists (Beta only); None otherwise."""
        if self.name != "beta":
            return None
        theta0, n = self._theta0(theta0), integer(n, "n")
        b3sq, nf = msebound._b3_squared(self._beta_ingredients(theta0), n, "mse_bound")
        return b3sq / nf

    def audit(self, theta0: float, n: int, epsilon: float | None = None) -> dict:
        """The model's bound ingredients or constants, as plain JSON values.

        An ingredient that overflowed to inf is a FloatRangeError naming the
        first such field; the exp-canonical fourth moment, which does not
        exist below n = 5, is None there.
        """
        if self.name == "poisson":
            theta0, n = self._theta0(theta0), integer(n, "n")
            bd = self.distance_bound(theta0, n, epsilon=epsilon)
            return {"model": self.name, "theta0": theta0, "n": n, "bound": bd.to_dict()}
        if self.name == "beta":
            self._reject_unused(epsilon)
            theta0 = self._theta0(theta0)
            ing = self._beta_ingredients(theta0)
            out = {"model": self.name, "theta0": theta0, "beta": self.beta,
                   "B1": msebound._beta_fisher_b1(theta0, self.beta)[1], "B2": ing.c1_const,
                   "D_psi1": ing.fisher_info, "minimal_n": msebound.minimal_n(ing)}
            if n is not None:
                out["n"] = n = integer(n, "n")
                out["B3"] = math.sqrt(msebound._b3_squared(ing, n, "beta_b3")[0])
            return _finite_fields(out)
        ing = BoundIngredients(*self._exp_fields(theta0, n, epsilon)).to_dict()
        if self.name == "exp-canonical" and ing["n"] < 5:
            ing["fourth_mle_moment"] = None  # E(1/mean - theta0)^4 does not exist
        return {"model": self.name, "ingredients": _finite_fields(ing)}

    def _beta_ingredients(self, theta0: float) -> msebound.ImplicitModelIngredients:
        """``msebound.beta_ingredients`` at a checked float theta0, kept for the
        next call: the (theta0, ingredients) pair is read once and replaced
        whole, so threads sharing the model at different theta0 get their own."""
        memo = self._beta_memo
        if memo is None or memo[0] != theta0:
            ing = msebound.beta_ingredients(msebound.BetaParams(theta0, self.beta))
            memo = self._beta_memo = (theta0, ing)
        return memo[1]

    def _exp_fields(self, theta0, n, epsilon):
        """``BoundIngredients``' arguments for an exponential model, from
        ``expfam``'s formula helper for it."""
        if self.name == "exp-canonical":
            return expfam._canonical_fields(theta0, n, epsilon)
        return expfam._noncanonical_fields(theta0, n, epsilon)

    def _reject_unused(self, epsilon=None, c="auto"):
        """Refuse a value other than the default for an option the model ignores."""
        if epsilon is not None:
            raise DomainError(f"{self.name}: the model takes no epsilon, got {epsilon!r}")
        if perturbation(c) != "auto":
            raise DomainError(f"{self.name}: c applies to the poisson model only, got {c!r}")


def get_model(name: str, beta: float = 1.0) -> Model:
    """The registered model of that name; ``beta`` is the Beta model's known shape."""
    return Model(name, beta)
