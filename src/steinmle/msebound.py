"""Self-referential MSE bound for implicit MLEs, and the Beta(theta, beta) case.

When the estimator has no closed form, its MSE still appears inside its own
distance bound.  Specialising the bound to the quadratic test function turns
that circularity into a quadratic inequality in root-MSE; ``mse_upper_bound_a1``
returns its positive root A1, which is then a legitimate ingredient for the
distance bound assembled by ``implicit_distance_bound``.

Positivity of the leading quadratic coefficient

    D1 = 1 - 2 ||x^2|| / (n i eps^2) - ||x|| C1 / (sqrt(n) i^{3/2})

is what makes the root meaningful; ``minimal_n`` inverts that condition in
closed form.  The Beta distribution with one unknown shape is the worked
instance: its score involves only digammas, its log-likelihood second
derivative is deterministic (Var l'' = 0), and every constant reduces to
polygamma values at theta0 and theta0 + beta.

Numerical note: the root A1, and with it the Beta constant B3 = sqrt(n) A1,
divides by D1, a difference of nearly-equal terms (~0.0019 at theta0=1.5,
n=7500), so the constants are produced by the high-accuracy polygamma path
(psi_1 and psi_3 at each argument from one shared shift pass) and D1 and A1
are computed once, in extended precision (stdlib ``decimal``, 50 digits),
before rounding once to float.  That caps the assembly error near 1e-13, far
inside the +-5e-4 acceptance band for the tabulated values.  The parts of D1,
A1 and B3 that do not depend on n are converted and combined once per
ingredients set, so a sweep over n builds them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Context, Decimal, localcontext
from typing import Optional

from ._validate import integer, real
from .errors import ConvergenceError, DomainError, FloatRangeError, float_range
from .specfun import _ASYMPTOTIC_COEFFS, _ASYMPTOTIC_CUT, _polygammas
from .steincore import (
    TERM_MARKOV,
    TERM_R2,
    TERM_SCORE,
    TERM_TAYLOR,
    BoundBreakdown,
    _score_term,
)

__all__ = [
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
    "beta_shape_roots",
]

# Decimal(float) is exact and + - * / sqrt round correctly, so each result is
# the float nearest a 50-digit value, whatever the caller's decimal context.
_EXTENDED = Context(prec=50, rounding=ROUND_HALF_EVEN)


@dataclass(frozen=True)
class ImplicitModelIngredients:
    """Inputs to the implicit-MLE MSE bound.

    ``c1_const`` is the per-observation deterministic bound on the third
    log-likelihood derivative over the epsilon-neighbourhood; ``sup_x_norm``
    and ``sup_x2_norm`` are the sup norms of the identity and the square on
    the (bounded) support -- both 1 for distributions on [0, 1].
    """

    fisher_info: float
    third_abs_score_moment: float
    var_l2: float
    c1_const: float
    sup_x_norm: float
    sup_x2_norm: float
    epsilon: float

    def __post_init__(self):
        fisher = real(self.fisher_info, "fisher_info", gt=0.0)
        third = real(self.third_abs_score_moment, "third_abs_score_moment", gt=0.0)
        var_l2 = real(self.var_l2, "var_l2", ge=0.0)
        c1 = real(self.c1_const, "c1_const", gt=0.0)
        x_norm = real(self.sup_x_norm, "sup_x_norm", gt=0.0)
        x2_norm = real(self.sup_x2_norm, "sup_x2_norm", gt=0.0)
        eps = real(self.epsilon, "epsilon", gt=0.0)
        # Plain floats, rewritten only where a field came in as another type
        # (the checks return a float argument itself).
        if not (fisher is self.fisher_info and third is self.third_abs_score_moment
                and var_l2 is self.var_l2 and c1 is self.c1_const and x_norm is self.sup_x_norm
                and x2_norm is self.sup_x2_norm and eps is self.epsilon):
            vars(self).update(
                fisher_info=fisher, third_abs_score_moment=third, var_l2=var_l2, c1_const=c1,
                sup_x_norm=x_norm, sup_x2_norm=x2_norm, epsilon=eps,
            )

    @functools.cached_property
    def _decimals(self):
        """The n-free parts of the 50-digit D1/A1 pass, built on first use."""
        return _NFreeParts(self)

    def to_dict(self):
        return {
            "fisher_info": self.fisher_info,
            "third_abs_score_moment": self.third_abs_score_moment,
            "var_l2": self.var_l2,
            "c1_const": self.c1_const,
            "sup_x_norm": self.sup_x_norm,
            "sup_x2_norm": self.sup_x2_norm,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class BetaParams:
    """Beta(theta0, beta) with the first shape unknown and beta known."""

    theta0: float
    beta: float

    def __post_init__(self):  # stored as plain floats, whatever real type came in
        object.__setattr__(self, "theta0", real(self.theta0, "theta0", gt=0.0))
        object.__setattr__(self, "beta", real(self.beta, "beta", gt=0.0))


class _NFreeParts:
    """Every ingredient field as a 50-digit Decimal, converted once, and the
    combinations of them that D1, A1 and B3 use at every n."""

    def __init__(self, ing: ImplicitModelIngredients):
        with localcontext(_EXTENDED):
            i = Decimal(ing.fisher_info)
            x = Decimal(ing.sup_x_norm)
            var = Decimal(ing.var_l2)
            self.i = i
            self.root_i = i.sqrt()
            self.i32 = i * self.root_i
            self.i3 = i**3
            self.two_x2 = 2 * Decimal(ing.sup_x2_norm)
            self.eps2 = Decimal(ing.epsilon) ** 2
            self.x_c1 = x * Decimal(ing.c1_const)
            self.two_x = 2 * x
            self.lin = self.two_x * var.sqrt()
            self.rad = 4 * x**2 * var
            self.skew = 2 + Decimal(ing.third_abs_score_moment) / self.i32


def _d1_dec(p: _NFreeParts, n: int):
    """n, sqrt(n), n i and D1 to 50 digits, in the caller's ``_EXTENDED``
    context.

    D1 = 1 - 2 ||x^2|| / (n i eps^2) - ||x|| C1 / (sqrt(n) i sqrt(i)), grouped
    as written: (n i) eps^2 and (sqrt(n) i) sqrt(i) are rounded in that order.
    """
    nn = Decimal(n)
    root_n = nn.sqrt()
    ni = nn * p.i
    return nn, root_n, ni, 1 - p.two_x2 / (ni * p.eps2) - p.x_c1 / (root_n * p.i * p.root_i)


def d1(ing: ImplicitModelIngredients, n: int) -> float:
    """Leading coefficient of the root-MSE quadratic; positive iff solvable.

    May be <= 0 below the minimal sample size; the sign is the caller's
    signal, no exception is raised here.
    """
    n = integer(n, "n")
    p = ing._decimals
    with localcontext(_EXTENDED):
        return float(_d1_dec(p, n)[3])


def minimal_n(ing: ImplicitModelIngredients) -> int:
    """Smallest integer sample size with d1 > 0.

    Closed form from the quadratic in sqrt(n):
    ceil( ||x||^2 [C1 eps + sqrt((C1 eps)^2 + 8 i^2)]^2 / (4 i^3 eps^2) ).
    """
    with localcontext(_EXTENDED):
        i = Decimal(ing.fisher_info)
        eps = Decimal(ing.epsilon)
        ce = Decimal(ing.c1_const) * eps
        x2 = Decimal(ing.sup_x_norm) ** 2
        rhs = x2 * (ce + (ce**2 + 8 * i**2).sqrt()) ** 2 / (4 * i**3 * eps**2)
        # The closed form assumes ||x^2|| = ||x||^2 (true for supports inside
        # [-1, 1] and for the Beta case); fall back to a scan otherwise.
        if abs(Decimal(ing.sup_x2_norm) - x2) < Decimal("1e-30"):
            return int(rhs.to_integral_value(ROUND_CEILING))
    n = max(1, int(rhs))
    while d1(ing, n) <= 0.0:
        n += 1
    while n > 1 and d1(ing, n - 1) > 0.0:
        n -= 1
    return n


def _a1_dec(ing: ImplicitModelIngredients, n: int):
    """A1 and B3 = sqrt(n) A1, both to 50 digits, in one pass: DomainError,
    naming the minimal n, if D1 <= 0."""
    p = ing._decimals
    with localcontext(_EXTENDED):
        nn, root_n, ni, dd = _d1_dec(p, n)
        if dd <= 0:
            raise DomainError(
                f"n below minimal n = {minimal_n(ing)} (quadratic coefficient D1 <= 0)"
            )
        lin = p.lin / (nn * p.i32)
        rad = p.rad / (nn**2 * p.i3) + (4 * dd / ni) * (1 + (p.two_x / root_n) * p.skew)
        a1 = (lin + rad.sqrt()) / (2 * dd)
        return a1, root_n * a1


def mse_upper_bound_a1(ing: ImplicitModelIngredients, n: int) -> float:
    """A1, the positive root of the root-MSE quadratic: bounds sqrt(MSE).

    Requires d1 > 0 (n at least ``minimal_n``); below that the quadratic
    inequality has no positive solution and a DomainError names the minimal
    sample size.  Solved in 50-digit ``decimal`` and rounded once.
    """
    n = integer(n, "n")
    return float(_a1_dec(ing, n)[0])


def implicit_distance_bound(
    ing: ImplicitModelIngredients, n: int, a1: float
) -> BoundBreakdown:
    """Distance bound fed by the MSE bound A1 instead of the exact MSE.

    Terms: the score bound; the Markov tail 2 A1^2/eps^2; the Taylor
    remainder sqrt(n) C1 A1^2 / (2 sqrt(i)); and the R2 term
    sqrt(Var l'') A1 / sqrt(i) (zero whenever l'' is deterministic).
    """
    n = integer(n, "n")
    a1 = real(a1, "a1", ge=0.0)
    t_score = _score_term(ing.third_abs_score_moment, ing.fisher_info, n)
    t_markov = 2.0 * a1**2 / ing.epsilon**2
    t_taylor = math.sqrt(n) * ing.c1_const * a1**2 / (2.0 * math.sqrt(ing.fisher_info))
    t_r2 = math.sqrt(ing.var_l2) * a1 / math.sqrt(ing.fisher_info)
    return BoundBreakdown(
        terms=(
            (TERM_SCORE, t_score),
            (TERM_MARKOV, t_markov),
            (TERM_TAYLOR, t_taylor),
            (TERM_R2, t_r2),
        )
    )


def _beta_fisher_b1(theta0: float, beta: float):
    """The information psi_1(theta0) - psi_1(theta0 + beta), and B1, the
    fourth-moment bound for the shape score: psi_1 and psi_3 at theta0 and
    at theta0 + beta, from one shift pass each."""
    psi1, psi3 = _polygammas(theta0, (1, 3))
    psi1_beta, psi3_beta = _polygammas(theta0 + beta, (1, 3))
    b1 = 8.0 * (psi3 + psi3_beta + 3.0 * psi1**2 + 3.0 * psi1_beta**2)
    return psi1 - psi1_beta, b1


# Its float-range errors name the public builder, whichever caller meets them.
@functools.partial(float_range, name="beta_ingredients")
def _beta_ingredients_b1(p: BetaParams, epsilon: Optional[float] = None):
    """``beta_ingredients(p, epsilon)`` and B1, from one polygamma shift pass
    at each argument."""
    theta0, beta = p.theta0, p.beta
    eps = theta0 / 2.0 if epsilon is None else real(epsilon, "epsilon", gt=0.0)
    if not eps < theta0:
        raise DomainError(f"epsilon must lie in (0, theta0) = (0, {theta0!r}), got {eps!r}")
    fisher, b1 = _beta_fisher_b1(theta0, beta)
    if not fisher > 0.0:
        # psi_1 strictly decreases, so only rounding makes the difference <= 0:
        # theta0 + beta rounds to (nearly) theta0.
        raise FloatRangeError(
            f"beta_ingredients: the information psi_1(theta0) - psi_1(theta0 + beta) "
            f"cancelled to {fisher!r} in float at theta0 = {theta0!r}, beta = {beta!r}"
        )
    # sup |l'''| <= 6 beta / (theta0 - eps)^4 + 6.6 beta  per observation
    # (the 6.6 absorbs the zeta(4) tail of the order-3 polygamma series).
    c1 = 6.0 * beta / (theta0 - eps) ** 4 + 6.6 * beta
    ing = ImplicitModelIngredients(
        fisher_info=fisher,
        third_abs_score_moment=b1**0.75,
        var_l2=0.0,
        c1_const=c1,
        sup_x_norm=1.0,
        sup_x2_norm=1.0,
        epsilon=eps,
    )
    return ing, b1


def beta_ingredients(
    p: BetaParams, epsilon: Optional[float] = None
) -> ImplicitModelIngredients:
    """Implicit-model ingredients for Beta(theta0, beta), beta known.

    fisher = psi_1(theta0) - psi_1(theta0 + beta) (positive: psi_1 strictly
    decreases); the third score moment enters through the Holder bound
    B1^(3/4) with B1 the fourth-moment bound built from polygammas of orders
    1 and 3; Var l'' = 0 because l'' is a polygamma difference free of the
    data; the third-derivative constant at eps = theta0/2 is
    B2 = 96 beta/theta0^4 + 6.6 beta.  Support [0, 1] gives unit sup norms.
    """
    return _beta_ingredients_b1(p, epsilon)[0]


def _beta_constants(p: BetaParams):
    """The ingredients and ``beta_b_constants``, from one polygamma shift
    pass at each argument."""
    ing, b1 = _beta_ingredients_b1(p)
    return ing, {
        "B1": b1,
        "B2": ing.c1_const,
        "D_psi1": ing.fisher_info,
        "minimal_n": minimal_n(ing),
    }


def beta_b_constants(p: BetaParams) -> dict:
    """Audit dictionary of the Beta combination constants.

    B1 (fourth-moment bound), B2 (third-derivative constant at eps =
    theta0/2), D_psi1 (the information), and the minimal admissible n.
    """
    return _beta_constants(p)[1]


@float_range
def beta_b3(p: BetaParams, n: int) -> float:
    """The scaled root-MSE bound B3 = sqrt(n) * A1 for the Beta model.

    (B3/sqrt(n))^2 bounds the estimator MSE.  Combined in extended
    precision: the denominator subtracts nearly-equal quantities.  Rejects n
    below the minimal admissible size (nonpositive denominator).
    """
    n = integer(n, "n")
    return _beta_b3(beta_ingredients(p), n)


def _beta_b3(ing: ImplicitModelIngredients, n: int) -> float:
    return float(_a1_dec(ing, n)[1])


def _beta_mse_bound(ing: ImplicitModelIngredients, n: int) -> float:
    """The Beta estimator's MSE bound (B3/sqrt(n))^2 = B3^2/n."""
    b3 = _beta_b3(ing, integer(n, "n"))
    return b3 * b3 / n


@float_range
def beta_distance_bound(p: BetaParams, n: int) -> BoundBreakdown:
    """Three-term distance bound for the standardised Beta-shape estimator.

    Score term (1/sqrt(n))(2 + B1^(3/4)/D_psi1^(3/2)); Markov tail
    (8/(n theta0^2)) B3^2; Taylor remainder B2 B3^2/(2 sqrt(n) sqrt(D_psi1)).
    The R2 term is identically zero (Var l'' = 0) and is reported as such.
    """
    n = integer(n, "n")
    ing = beta_ingredients(p)
    return implicit_distance_bound(ing, n, _beta_b3(ing, n) / math.sqrt(n))


# Shift steps that take any theta > 0 to the asymptotic cut; a lane needing
# fewer adds exact zeros for the rest.
_SHIFTS = int(_ASYMPTOTIC_CUT)
# Asymptotic-series coefficients, innermost first: psi's B_2k/(2k) and
# psi_1's B_2k, paired.
_TAIL_COEFFS = tuple(((c0,), (c1,)) for c0, c1 in zip(*_ASYMPTOTIC_COEFFS[:2]))


def _shape_score_slope(theta, beta):
    """psi(theta + beta) - psi(theta) and its theta-derivative, lane by lane.

    theta and theta + beta shift up together by the recurrence until theta
    >= 16, then the Bernoulli asymptotic series of ``specfun`` finishes both.
    Every lane sums the same 16 shift increments in the same order (zeros
    past its own shift count), so no lane's value depends on the others in
    its row.  The differences are taken term by term (log1p for the
    logarithms), which keeps them free of cancellation for large theta.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    n = theta.size
    a = theta + np.arange(float(_SHIFTS))[:, None]  # row j: theta + j
    low = a < _ASYMPTOTIC_CUT
    b = a + beta
    inv_ab = low / (a * b)
    # Row j adds 1/a - 1/b = beta/(ab) to the score and 1/b^2 - 1/a^2 =
    # -beta (a + b)/(ab)^2 to the slope; cumsum adds the rows in order.
    shifts = np.concatenate((inv_ab, (a + b) * (inv_ab * inv_ab)), axis=1)
    shifts = beta * shifts.cumsum(axis=0)[-1]
    a = theta + low.sum(axis=0)
    b = a + beta
    # psi(y) ~ log y - 1/(2y) - sum_k B_2k/(2k) y^-2k and
    # psi_1(y) ~ 1/y + 1/(2y^2) + sum_k B_2k y^-(2k+1), both for y >= 16.
    y = np.concatenate((a, b))
    z = 1.0 / (y * y)
    tails = 0.0
    for coeffs in np.array(_TAIL_COEFFS):
        tails = (tails + coeffs) * z
    tails[1] /= y
    inv_ab = 1.0 / (a * b)
    # log(b/a) + (1/a - 1/b)/2 and (1/b - 1/a) + (1/b^2 - 1/a^2)/2, rewritten
    # with b - a = beta so that nothing cancels.
    score = shifts[:n] + np.log1p(beta / a) + 0.5 * beta * inv_ab + (tails[0, :n] - tails[0, n:])
    slope = (tails[1, n:] - tails[1, :n]) - beta * inv_ab * (1.0 + 0.5 * (a + b) * inv_ab)
    return score, slope - shifts[n:]


_NEWTON_MAX_STEPS = 100


def beta_shape_roots(mean_logs, beta: float, *, rel_tol: float = 1e-12):
    """Beta(theta, beta) shape MLEs for a row of mean log-observations.

    Each lane solves psi(theta + beta) - psi(theta) = -mean_log by Newton's
    method on the reciprocal of both sides, which is nearly linear in theta
    (exactly, for beta = 1), starting from theta = -1/mean_log, the beta = 1
    root.  A step that would leave theta <= 0 halves theta instead.  A lane
    is frozen once its step falls to rel_tol of theta, so its root does not
    depend on the rest of its row: a one-element row gives the same root.
    Returns a float64 array; raises ConvergenceError if a lane has not
    converged after 100 steps.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    beta = real(beta, "beta", gt=0.0)
    stats = np.asarray(mean_logs, dtype=float)
    if stats.ndim != 1 or not np.all((stats < 0.0) & np.isfinite(stats)):
        raise DomainError("mean log-observations must be a row of finite negative numbers")
    roots = -1.0 / stats
    active = np.arange(stats.size)
    theta = roots.copy()
    # Far out (|mean_log| below ~1e-150) a*b overflows; such a lane stops
    # making finite steps and ends in ConvergenceError, without warnings.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            if active.size == 0:
                return roots
            score, slope = _shape_score_slope(theta, beta)
            target = -stats[active]
            # Newton for 1/score = 1/target: the plain step times score/target.
            new = theta + (target - score) / slope * (score / target)
            new = np.where((new > 0.0) & np.isfinite(new), new, 0.5 * theta)
            done = np.abs(new - theta) <= rel_tol * new
            roots[active] = new
            active, theta = active[~done], new[~done]
    if active.size == 0:
        return roots
    raise ConvergenceError(
        "shape MLE Newton iteration did not converge",
        lanes=int(active.size),
        last_theta=float(theta[0]),
    )
