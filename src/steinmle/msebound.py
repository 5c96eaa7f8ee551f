"""Self-referential MSE bound for implicit MLEs, and the Beta(theta, beta) case.

When the estimator has no closed form, its MSE still appears inside its own
distance bound.  Specialising the bound to the quadratic test function turns
that circularity into a quadratic inequality in root-MSE; ``mse_upper_bound_a1``
returns its positive root A1.  ``implicit_distance_bound`` computes A1 inside
and assembles the distance bound from it, so it refuses n below ``minimal_n``,
where no A1 exists, with a DomainError naming the minimal n.

Positivity of the leading quadratic coefficient

    D1 = 1 - 2 ||x^2|| / (n i eps^2) - ||x|| C1 / (sqrt(n) i^{3/2})

is what makes the root meaningful.  For any ingredients, n D1 is a quadratic
in sqrt(n) with one positive root, so ``minimal_n`` inverts the condition in
closed form, with no search.  The Beta distribution with one unknown shape
is the worked instance: its score involves only digammas, its
log-likelihood second derivative is deterministic (Var l'' = 0), and every
constant reduces to polygamma values at theta0 and theta0 + beta.  One
builder, ``beta_ingredients``, makes its ingredients, at the paper's
eps = theta0/2; every Beta bound, constant and audit starts from it.

Numerical note: the root A1, and with it the Beta constant B3 = sqrt(n) A1,
divides by D1, a difference of nearly-equal terms (~0.0019 at theta0=1.5,
n=7500), so the constants are produced by the high-accuracy polygamma path
(psi_1 and psi_3 at each argument from one shared shift pass) and D1 and A1
are computed once, in extended precision (stdlib ``decimal``, 50 digits),
before rounding once to float.  That caps the assembly error near 1e-13, far
inside the +-5e-4 acceptance band for the tabulated values.  The parts of D1,
A1 and B3 that do not depend on n are converted and combined once per
ingredients set, which ``registry.Model`` shares between every bound and
scale of one request (a sweep, a ``simulate`` row, a ``ci``).
"""

from __future__ import annotations

import functools
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

from ._validate import Value, instance, integer, real
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
    "minimal_n",
    "mse_upper_bound_a1",
    "implicit_distance_bound",
    "beta_ingredients",
    "beta_b3",
    "beta_distance_bound",
    "beta_shape_roots",
]

# Decimal(float) is exact and + - * / sqrt round correctly, so each result is
# the float nearest a 50-digit value, whatever the caller's decimal context.
_EXTENDED = Context(prec=50, rounding=ROUND_HALF_EVEN)


class ImplicitModelIngredients(Value):
    """Inputs to the implicit-MLE MSE bound.

    ``c1_const`` is the per-observation deterministic bound on the third
    log-likelihood derivative over the epsilon-neighbourhood; ``sup_x_norm``
    and ``sup_x2_norm`` are the sup norms of the identity and the square on
    the (bounded) support -- both 1 for distributions on [0, 1].
    """

    def __init__(
        self, fisher_info: float, third_abs_score_moment: float, var_l2: float,
        c1_const: float, sup_x_norm: float, sup_x2_norm: float, epsilon: float,
    ):
        # stored as plain floats, whatever real type came in
        vars(self).update(
            fisher_info=real(fisher_info, "fisher_info", gt=0.0),
            third_abs_score_moment=real(third_abs_score_moment, "third_abs_score_moment", gt=0.0),
            var_l2=real(var_l2, "var_l2", ge=0.0),
            c1_const=real(c1_const, "c1_const", gt=0.0),
            sup_x_norm=real(sup_x_norm, "sup_x_norm", gt=0.0),
            sup_x2_norm=real(sup_x2_norm, "sup_x2_norm", gt=0.0),
            epsilon=real(epsilon, "epsilon", gt=0.0),
        )

    @functools.cached_property
    def _decimals(self):
        """The n-free parts of the 50-digit D1/A1 pass, built on first use."""
        return _NFreeParts(self)


class BetaParams(Value):
    """Beta(theta0, beta) with the first shape unknown and beta known."""

    def __init__(self, theta0: float, beta: float):
        # stored as plain floats, whatever real type came in
        vars(self).update(theta0=real(theta0, "theta0", gt=0.0), beta=real(beta, "beta", gt=0.0))


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


def _rounded(name: str, value, n: int) -> float:
    """A 50-digit ``value`` rounded to float: the FloatRangeError naming it
    as ``name`` if that lies beyond the float range."""
    rounded = float(value)
    if not math.isfinite(rounded):
        raise FloatRangeError(f"{name} lies beyond the float range at n = {n}")
    return rounded


def minimal_n(ing: ImplicitModelIngredients) -> int:
    """Smallest integer sample size with D1 > 0 in 50 digits.

    With s = sqrt(n), n D1 = s^2 - b s - a for a = 2 ||x^2|| / (i eps^2) and
    b = ||x|| C1 / i^{3/2}, so D1 > 0 exactly above the positive root
    s* = (b + sqrt(b^2 + 4a)) / 2: the answer is floor(s*^2) + 1, for any
    ingredients.  One 50-digit D1 step each way absorbs the rounding of s*^2
    (an exact root, where D1 = 0, is excluded).
    """
    p = instance(ing, ImplicitModelIngredients, "ing")._decimals
    with localcontext(_EXTENDED):
        a = p.two_x2 / (p.i * p.eps2)
        b = p.x_c1 / (p.i * p.root_i)
        n = int(((b + (b * b + 4 * a).sqrt()) / 2) ** 2) + 1
        if _d1_dec(p, n)[3] <= 0:
            return n + 1
        if n > 1 and _d1_dec(p, n - 1)[3] > 0:
            return n - 1
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

    Requires D1 > 0 (n at least ``minimal_n``); below that the quadratic
    inequality has no positive solution and a DomainError names the minimal
    sample size.  Solved in 50-digit ``decimal`` and rounded once; an A1
    beyond the float range is a FloatRangeError.
    """
    instance(ing, ImplicitModelIngredients, "ing")
    n = integer(n, "n")
    return _rounded("mse_upper_bound_a1: A1", _a1_dec(ing, n)[0], n)


@float_range
def implicit_distance_bound(ing: ImplicitModelIngredients, n: int) -> BoundBreakdown:
    """Distance bound fed by the MSE bound A1 = B3/sqrt(n) instead of the exact
    MSE, B3 = sqrt(n) A1 coming from ``mse_upper_bound_a1``'s 50-digit pass
    rounded once: n below ``minimal_n`` is a DomainError naming the minimal n.

    Terms: the score bound; the Markov tail 2 A1^2/eps^2; the Taylor
    remainder sqrt(n) C1 A1^2 / (2 sqrt(i)); and the R2 term
    sqrt(Var l'') A1 / sqrt(i) (zero whenever l'' is deterministic).
    """
    instance(ing, ImplicitModelIngredients, "ing")
    n = integer(n, "n")
    a1 = _rounded("implicit_distance_bound: B3", _a1_dec(ing, n)[1], n) / math.sqrt(n)
    t_score = _score_term(ing.third_abs_score_moment, ing.fisher_info, n)
    t_markov = 2.0 * a1**2 / ing.epsilon**2
    t_taylor = math.sqrt(n) * ing.c1_const * a1**2 / (2.0 * math.sqrt(ing.fisher_info))
    if t_taylor != t_taylor:  # sqrt(n) C1 overflowed to inf and A1^2 underflowed to 0
        raise OverflowError  # the FloatRangeError naming this function
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


@float_range
def beta_ingredients(p: BetaParams) -> ImplicitModelIngredients:
    """Implicit-model ingredients for Beta(theta0, beta), beta known.

    fisher = psi_1(theta0) - psi_1(theta0 + beta) (positive: psi_1 strictly
    decreases); the third score moment enters through the Holder bound
    B1^(3/4) with B1 the fourth-moment bound built from polygammas of orders
    1 and 3; Var l'' = 0 because l'' is a polygamma difference free of the
    data; the third-derivative constant at eps = theta0/2 is
    B2 = 96 beta/theta0^4 + 6.6 beta.  Support [0, 1] gives unit sup norms.
    """
    theta0, beta = instance(p, BetaParams, "p").theta0, p.beta
    eps = theta0 / 2.0
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
    return ImplicitModelIngredients(
        fisher_info=fisher,
        third_abs_score_moment=b1**0.75,
        var_l2=0.0,
        c1_const=6.0 * beta / (theta0 - eps) ** 4 + 6.6 * beta,
        sup_x_norm=1.0,
        sup_x2_norm=1.0,
        epsilon=eps,
    )


@float_range
def beta_b3(p: BetaParams, n: int) -> float:
    """The scaled root-MSE bound B3 = sqrt(n) A1 for the Beta model, from
    the 50-digit pass rounded once: (B3/sqrt(n))^2 bounds the estimator MSE.
    Rejects n below the minimal admissible size (nonpositive denominator).
    """
    instance(p, BetaParams, "p")
    n = integer(n, "n")
    return _beta_b3(beta_ingredients(p), n)


def _beta_b3(ing: ImplicitModelIngredients, n: int) -> float:
    return _rounded("beta_b3: B3", _a1_dec(ing, n)[1], n)


@float_range
def beta_distance_bound(p: BetaParams, n: int) -> BoundBreakdown:
    """Three-term distance bound for the standardised Beta-shape estimator.

    Score term (1/sqrt(n))(2 + B1^(3/4)/D_psi1^(3/2)); Markov tail
    (8/(n theta0^2)) B3^2; Taylor remainder B2 B3^2/(2 sqrt(n) sqrt(D_psi1)).
    The R2 term is identically zero (Var l'' = 0) and is reported as such.
    """
    instance(p, BetaParams, "p")
    n = integer(n, "n")
    return implicit_distance_bound(beta_ingredients(p), n)


# Shift steps that take any theta > 0 to the asymptotic cut; a lane needing
# fewer adds exact zeros for the rest.  An integer beta up to this many takes
# the exact finite sum instead, with no shift block and no series.
_SHIFTS = int(_ASYMPTOTIC_CUT)
# Asymptotic-series coefficients, innermost first: psi's B_2k/(2k) and
# psi_1's B_2k, paired.
_TAIL_COEFFS = tuple(((c0,), (c1,)) for c0, c1 in zip(*_ASYMPTOTIC_COEFFS[:2]))


def _finite_sum_score_slope(theta, target, ks):
    """target - score, the score psi(theta + m) - psi(theta) and its
    theta-derivative for an integer beta = m, lane by lane, from the exact
    finite sums

        sum_{k<m} 1/(theta + k)  and  -sum_{k<m} 1/(theta + k)^2,

    ``ks`` being the column 0, 1, ..., m - 1.  The score's rounding errors
    are recovered and subtracted from the residual separately (Ogita, Rump
    and Oishi's Sum2, SIAM J. Sci. Comput. 26, 2005), so the residual, whose
    zero is the root, is as if summed in twice the working precision.  Every
    term is positive, so nothing cancels at any theta.  Each sum adds its
    terms in order, whatever the row length, so no lane's value depends on
    the others in its row.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    n = theta.size
    inv = 1.0 / (theta + ks)
    # partial[k]: the running sum of the first k terms
    partial = np.zeros((len(ks) + 1, n))
    np.add.accumulate(inv, axis=0, out=partial[1:])
    # The terms fall with k, so each running sum is at least the next term,
    # and Dekker's fast two-sum gives each step's rounding error exactly.
    errors = inv - (partial[1:] - partial[:-1])
    # Two columns a lane, so the reduction adds whole rows, in order (over a
    # single column it could add pairwise).
    sums = np.add.reduce(np.concatenate((errors, inv * inv), axis=1), axis=0)
    total, error = partial[-1], sums[:n]
    return (target - total) - error, total + error, -sums[n:]


def _shape_score_slope(theta, target, beta, js, tail_coeffs):
    """target - score, the score psi(theta + beta) - psi(theta) and its
    theta-derivative, lane by lane, for a beta that
    ``_finite_sum_score_slope`` does not take.

    theta and theta + beta shift up together by the recurrence until theta
    >= 16, then the Bernoulli asymptotic series of ``specfun`` finishes both.
    ``js`` is the column 0, 1, ..., 15 of shift steps and ``tail_coeffs`` the
    array of ``_TAIL_COEFFS``, both built once per solve.  Every lane sums the
    same 16 shift increments in the same order (zeros past its own shift
    count), so no lane's value depends on the others in its row.  The
    differences are taken term by term (log1p for the logarithms), which
    keeps them free of cancellation for large theta.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    n = theta.size
    a = theta + js  # row j: theta + j
    low = a < _ASYMPTOTIC_CUT
    b = a + beta
    inv_ab = low / (a * b)
    # Row j adds 1/a - 1/b = beta/(ab) to the score and 1/b^2 - 1/a^2 =
    # -beta (a + b)/(ab)^2 to the slope.  The block has two columns a lane,
    # so the reduction adds whole rows, in order.
    shifts = np.concatenate((inv_ab, (a + b) * (inv_ab * inv_ab)), axis=1)
    shifts = beta * np.add.reduce(shifts, axis=0)
    a = theta + low.sum(axis=0)
    b = a + beta
    # psi(y) ~ log y - 1/(2y) - sum_k B_2k/(2k) y^-2k and
    # psi_1(y) ~ 1/y + 1/(2y^2) + sum_k B_2k y^-(2k+1), both for y >= 16.
    y = np.concatenate((a, b))
    z = 1.0 / (y * y)
    tails = 0.0
    for coeffs in tail_coeffs:
        tails = (tails + coeffs) * z
    tails[1] /= y
    inv_ab = 1.0 / (a * b)
    # log(b/a) + (1/a - 1/b)/2 and (1/b - 1/a) + (1/b^2 - 1/a^2)/2, rewritten
    # with b - a = beta so that nothing cancels.
    score = shifts[:n] + np.log1p(beta / a) + 0.5 * beta * inv_ab + (tails[0, :n] - tails[0, n:])
    slope = (tails[1, n:] - tails[1, :n]) - beta * inv_ab * (1.0 + 0.5 * (a + b) * inv_ab)
    return target - score, score, slope - shifts[n:]


def _finite_sum_start(t, m):
    """The Newton start max(1/t, m/t - (m - 1)/2) for an integer beta = m,
    t being -mean_log.

    The root solves sum_{k<m} 1/(theta + k) = t.  That sum is at least its
    k = 0 term 1/theta, and by the harmonic-arithmetic mean inequality at
    least m/(theta + (m - 1)/2); so both terms lie at or below the root (up
    to rounding), and neither below 1/t, the other path's start.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    return np.maximum(1.0 / t, m / t - 0.5 * (m - 1.0))


_NEWTON_MAX_STEPS = 100
# A lane is frozen once its Newton step falls to this fraction of theta.
_NEWTON_REL_TOL = 1e-12


def beta_shape_roots(mean_logs, beta: float):
    """Beta(theta, beta) shape MLEs for a row of mean log-observations.

    Each lane solves psi(theta + beta) - psi(theta) = -mean_log by Newton's
    method on the reciprocal of both sides, which is nearly linear in theta
    (exactly, for beta = 1).  For an integer beta = m <= 16 the score is the
    finite sum sum_{k<m} 1/(theta + k), computed exactly up to rounding
    (``_finite_sum_score_slope``), and Newton starts from
    ``_finite_sum_start``, at or below the root.  Every other beta takes the
    shift-and-series score (``_shape_score_slope``) from theta =
    -1/mean_log, the beta = 1 root.  A step that would leave theta <= 0
    halves theta instead.  A lane is frozen once its step falls to 1e-12
    of theta, so its root does not depend on the rest of its row: a
    one-element row gives the same root.  Returns a float64 array of finite
    positive roots; raises ConvergenceError if a lane has not converged after
    100 steps, and FloatRangeError if a root is not finite and positive.
    """
    import numpy as np  # here, so that the bound verbs never load numpy

    beta = real(beta, "beta", gt=0.0)
    stats = np.asarray(mean_logs, dtype=float)
    if stats.ndim != 1 or not np.all((stats < 0.0) & np.isfinite(stats)):
        raise DomainError("mean log-observations must be a row of finite negative numbers")
    target = -stats
    active = np.arange(stats.size)
    # Far out (|mean_log| below ~1e-150) the squared terms underflow or a*b
    # overflows; such a lane stops making finite steps and ends in
    # ConvergenceError, without warnings.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if beta.is_integer() and beta <= _SHIFTS:
            roots = _finite_sum_start(target, beta)
            residual_score_slope = functools.partial(
                _finite_sum_score_slope, ks=np.arange(beta)[:, None]
            )
        else:
            roots = 1.0 / target
            residual_score_slope = functools.partial(
                _shape_score_slope, beta=beta, js=np.arange(float(_SHIFTS))[:, None],
                tail_coeffs=np.array(_TAIL_COEFFS),
            )
        theta = roots.copy()
        for _ in range(_NEWTON_MAX_STEPS):
            if active.size == 0:
                break
            residual, score, slope = residual_score_slope(theta, target)
            # Newton for 1/score = 1/target: the plain step times score/target.
            new = theta + residual / slope * (score / target)
            new = np.where((new > 0.0) & np.isfinite(new), new, 0.5 * theta)
            # not a plain >, so that a NaN step keeps its lane going
            going = ~(np.abs(new - theta) <= _NEWTON_REL_TOL * new)
            roots[active] = new
            active, theta, target = active[going], new[going], target[going]
    if active.size:
        raise ConvergenceError(
            "shape MLE Newton iteration did not converge",
            lanes=int(active.size),
            last_theta=float(theta[0]),
        )
    if not np.all((roots > 0.0) & np.isfinite(roots)):  # halving can reach 0
        raise FloatRangeError(
            "beta_shape_roots: a root left (0, inf); the mean log-observation lies "
            "outside the float range of this computation"
        )
    return roots
