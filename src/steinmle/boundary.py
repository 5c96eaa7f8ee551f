"""Perturbation machinery for MLEs that can sit on a boundary.

Discrete models whose parameter space is a closed or half-closed interval
(Poisson with mean in [0, inf) being the worked example) break the interior
Taylor expansion: the estimator hits the boundary with positive probability
and the information number may degenerate there.  The fix is an affine map

    q(x) = x + c/n - (2c/n) (x - a)/(b - a)

that pulls both the parameter and the data inward by c/n, applied before the
usual score expansion.  Among affine maps with q(a) = a + c/n and
q(b) = b - c/n it is the unique one, and it minimises sup |q(x) - x|.

``general_perturbed_bound`` assembles the resulting six-part distance bound
for sqrt(n)(theta_hat - theta0) against N(0, 1/i(theta0));
``poisson_bound`` instantiates it for the Poisson mean in closed form,
including the exact zero bound in the degenerate theta0 = 0 case.

The convention "1/i(theta0) = 0" for an information number that is infinite
or undefined at the boundary is carried by the explicit
:data:`DEGENERATE_FISHER_INFO` sentinel, never by a floating-point infinity.
"""

from __future__ import annotations

import math

from ._validate import Value, integer, real
from .errors import DomainError, float_range
from .steincore import BoundBreakdown, _score_term

__all__ = [
    "DEGENERATE_FISHER_INFO",
    "PerturbationSpec",
    "PerturbedScoreStats",
    "perturb",
    "perturbed_theta",
    "general_perturbed_bound",
    "poisson_bound",
    "minimize_poisson_c",
]

TERM_PARAM_SHIFT = "param_shift"
TERM_MLE_GAP = "mle_gap"
TERM_SCORE_MISMATCH = "score_mismatch"
TERM_PERTURBED_SCORE = "perturbed_score"
TERM_MARKOV = "markov_tail"
TERM_PERTURBED_TAYLOR = "perturbed_taylor"


class _DegenerateFisherInfo:
    """Sentinel for the continuous extension 1/i(theta0) := 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEGENERATE_FISHER_INFO (1/i(theta0) := 0)"


DEGENERATE_FISHER_INFO = _DegenerateFisherInfo()


class PerturbationSpec(Value):
    """An interval [a, b] (endpoints may be infinite) with constant c and n.

    For two finite endpoints the admissibility constraint is
    0 < c < n(b-a)/2, which keeps the perturbed endpoints inside (a, b).
    """

    def __init__(self, a: float, b: float, c: float, n: int):
        a, b = real(a, "a", inf=True), real(b, "b", inf=True)
        if not a < b:
            raise DomainError(f"interval endpoints must satisfy a < b, got [{a!r}, {b!r}]")
        n, c = integer(n, "n"), real(c, "c", gt=0.0)
        if math.isfinite(a) and math.isfinite(b) and not c < n * (b - a) / 2.0:
            raise DomainError(f"c must satisfy 0 < c < n(b-a)/2 = {n * (b - a) / 2.0!r}, got {c!r}")
        vars(self).update(a=a, b=b, c=c, n=n)

    @property
    def kind(self) -> str:
        left, right = math.isfinite(self.a), math.isfinite(self.b)
        if left and right:
            return "finite"
        if left:
            return "left-closed"  # [a, inf): push right by c/n
        if right:
            return "right-closed"  # (-inf, b]: push left by c/n
        return "unbounded"


def _apply_map(spec: PerturbationSpec, x: float, what: str) -> float:
    x = real(x, what, inf=True)
    if not (spec.a <= x <= spec.b):
        raise DomainError(f"{what}={x!r} outside the interval [{spec.a!r}, {spec.b!r}]")
    step = spec.c / spec.n
    kind = spec.kind
    if kind == "finite":
        return x + step - 2.0 * step * (x - spec.a) / (spec.b - spec.a)
    if kind == "left-closed":
        return x + step
    if kind == "right-closed":
        return x - step
    return x


def perturb(spec: PerturbationSpec, x: float) -> float:
    """The inward affine map applied to a data value.

    Finite interval: q(a) = a + c/n, q(b) = b - c/n, affine in between.
    Half-lines shift by +-c/n toward the interior; a doubly-infinite
    interval needs no perturbation (identity).
    """
    return _apply_map(spec, x, "x")


def perturbed_theta(theta0: float, spec: PerturbationSpec) -> float:
    """The inward map applied to the parameter; result is interior."""
    return _apply_map(spec, theta0, "theta0")


class PerturbedScoreStats(Value):
    """Moments of Y_i = l'(theta0*; q(X_i)) / (sqrt(n) i(theta0*)).

    w1/w2 are the mean and variance; third_abs_central is E|Y_1 - w1|^3 or
    an upper bound for it.
    """

    def __init__(self, w1: float, w2: float, third_abs_central: float):
        # stored as plain floats, whatever real type came in
        vars(self).update(
            w1=real(w1, "w1"),
            w2=real(w2, "w2"),
            third_abs_central=real(third_abs_central, "third_abs_central", ge=0.0),
        )


def general_perturbed_bound(
    theta0: float,
    n: int,
    spec_param: PerturbationSpec,
    stats: PerturbedScoreStats,
    fisher_at_theta0: float | _DegenerateFisherInfo,
    mle_gap_expectation: float,
    perturbed_ingredients,
) -> BoundBreakdown:
    """Six-part distance bound for sqrt(n)(theta_hat - theta0) vs N(0, 1/i).

    Terms: the parameter-shift cost of moving theta0 to theta0*; the
    estimator gap sqrt(n) E|theta_hat - theta_hat*|; the mismatch between
    the perturbed score moments (w1, w2) and the target variance; the
    perturbed-score sum bound; the Markov tail at theta0*; and the perturbed
    Taylor/R2 remainder.  The two score terms are gated by the indicator
    1{1/i(theta0) > 0}; pass DEGENERATE_FISHER_INFO to zero them.

    ``perturbed_ingredients`` is a BoundIngredients built at theta0* with an
    epsilon keeping (theta0* - eps, theta0* + eps) interior.  Its Taylor/R2
    normalisation here is 1/(sqrt(n) * i(theta0*)) -- the target is
    N(0, 1/i), not the unit normal.
    """
    theta0 = real(theta0, "theta0")
    n = integer(n, "n")
    mle_gap_expectation = real(mle_gap_expectation, "mle_gap_expectation", ge=0.0, inf=True)
    degenerate = isinstance(fisher_at_theta0, _DegenerateFisherInfo)
    if not degenerate:
        fisher_at_theta0 = real(fisher_at_theta0, "fisher_at_theta0", gt=0.0)
        if stats.w2 <= 0.0:
            raise DomainError(
                f"perturbed score variance w2 must be positive when 1/i(theta0) > 0, got {stats.w2!r}"
            )

    root_n = math.sqrt(n)
    kind = spec_param.kind
    if kind == "finite":
        t_shift = (
            spec_param.c
            / root_n
            * abs(1.0 - 2.0 * (theta0 - spec_param.a) / (spec_param.b - spec_param.a))
        )
    elif kind == "unbounded":
        t_shift = 0.0
    else:
        t_shift = spec_param.c / root_n
    t_gap = root_n * mle_gap_expectation

    if degenerate:
        t_mismatch = 0.0
        t_score = 0.0
    else:
        i0 = fisher_at_theta0
        w1, w2 = stats.w1, stats.w2
        t_mismatch = abs(1.0 - 1.0 / math.sqrt(w2 * n * i0)) * math.sqrt(
            n * w2 + (n * w1) ** 2
        ) + root_n * abs(w1) / math.sqrt(w2 * i0)
        t_score = _score_term(stats.third_abs_central, w2, n)

    ing = perturbed_ingredients
    t_markov = 2.0 * ing.mse / ing.epsilon**2
    t_taylor = (ing.r2_conditional_bound + 0.5 * ing.taylor_factor) / (
        root_n * ing.fisher_info
    )

    return BoundBreakdown(
        terms=(
            (TERM_PARAM_SHIFT, t_shift),
            (TERM_MLE_GAP, t_gap),
            (TERM_SCORE_MISMATCH, t_mismatch),
            (TERM_PERTURBED_SCORE, t_score),
            (TERM_MARKOV, t_markov),
            (TERM_PERTURBED_TAYLOR, t_taylor),
        )
    )


def _poisson_score(theta0: float, n: int) -> float:
    """The perturbed-score term of the Poisson bound, which does not depend on c."""
    # Holder: E|X - theta0|^3 <= (theta0 + 3 theta0^2)^(3/4), passed already
    # divided by theta0^(3/2), so against a unit variance.
    return _score_term((3.0 * theta0 + 1.0) ** 0.75 / theta0**0.75, 1.0, n)


def _poisson_terms(theta0: float, n: int, c: float, t_score: float):
    """The closed-form Poisson term values at perturbation constant c, with
    the perturbed-score term t_score from ``_poisson_score``.

    Mapping to the six-label schema: the combined 2c/sqrt(n) cost splits
    into the parameter shift c/sqrt(n) and the estimator gap
    sqrt(n) E|mean(q(X)) - mean(X)| = c/sqrt(n); the score-mismatch term
    vanishes identically (the perturbed Poisson score standardises exactly);
    the Taylor term carries both the R2 part theta0/(sqrt(n) theta0*) and
    the third-derivative part 12 sqrt(theta0/n + 3 theta0^2)/(sqrt(n) theta0*).
    """
    root_n = math.sqrt(n)
    tp = theta0 + c / n  # perturbed parameter
    t_shift = c / root_n
    t_gap = c / root_n
    t_mismatch = 0.0
    t_markov = 8.0 * theta0 / (n * tp * tp)
    t_taylor = theta0 / (root_n * tp) + 12.0 / (root_n * tp) * math.sqrt(
        theta0 / n + 3.0 * theta0**2
    )
    return (
        (TERM_PARAM_SHIFT, t_shift),
        (TERM_MLE_GAP, t_gap),
        (TERM_SCORE_MISMATCH, t_mismatch),
        (TERM_PERTURBED_SCORE, t_score),
        (TERM_MARKOV, t_markov),
        (TERM_PERTURBED_TAYLOR, t_taylor),
    )


def _poisson_total(theta0: float, n: int, c: float, t_score: float) -> float:
    return math.fsum(v for _, v in _poisson_terms(theta0, n, c, t_score))


def minimize_poisson_c(theta0: float, n: int, tol: float = 1e-10) -> float:
    """Golden-section minimiser of the Poisson bound over c in (0, n*theta0].

    The bound is empirically unimodal in c; if the golden bracket ever
    misbehaves the final answer is cross-checked against a log-grid minimum
    and the better of the two is returned.
    """
    t_score = _poisson_score(theta0, n)
    hi = n * theta0
    lo = min(1e-12, hi / 2.0)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = _poisson_total(theta0, n, x1, t_score)
    f2 = _poisson_total(theta0, n, x2, t_score)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = _poisson_total(theta0, n, x1, t_score)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = _poisson_total(theta0, n, x2, t_score)
    c_golden = 0.5 * (a + b)
    best_c, best_val = c_golden, _poisson_total(theta0, n, c_golden, t_score)
    # Safety net: coarse log-grid scan.
    for k in range(61):
        c_grid = 10.0 ** (math.log10(lo) + k * (math.log10(hi) - math.log10(lo)) / 60.0)
        val = _poisson_total(theta0, n, c_grid, t_score)
        if val < best_val:
            best_c, best_val = c_grid, val
    return best_c


@float_range
def poisson_bound(theta0: float, n: int, c="auto") -> BoundBreakdown:
    """Distance bound for sqrt(n)(mean - theta0) against N(0, theta0).

    theta0 = 0 is the degenerate case: the estimator is identically zero and
    the distance is exactly zero.  For theta0 > 0 the five-part closed form
    applies at perturbation constant c; ``c="auto"`` picks the c minimising
    the total numerically.
    """
    theta0 = real(theta0, "theta0", ge=0.0)
    n = integer(n, "n")
    if theta0 == 0.0:
        zero_terms = tuple(
            (label, 0.0)
            for label in (
                TERM_PARAM_SHIFT,
                TERM_MLE_GAP,
                TERM_SCORE_MISMATCH,
                TERM_PERTURBED_SCORE,
                TERM_MARKOV,
                TERM_PERTURBED_TAYLOR,
            )
        )
        return BoundBreakdown(terms=zero_terms)
    if c == "auto":
        c_val = minimize_poisson_c(theta0, n)
    else:
        c_val = real(c, "c", gt=0.0)
    return BoundBreakdown(terms=_poisson_terms(theta0, n, c_val, _poisson_score(theta0, n)))
