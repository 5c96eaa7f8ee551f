"""Self-referential MSE bound for implicit MLEs, and the Beta(theta, beta) case.

When the estimator has no closed form, its MSE still appears inside its own
distance bound.  Specialising the bound to the quadratic test function turns
that circularity into a quadratic inequality in root-MSE; ``mse_upper_bound_a1``
returns its positive root A1.  ``implicit_distance_bound`` computes A1 inside
and hands it to the general four-term assembly, so it refuses n below
``minimal_n``, where no A1 exists, with a DomainError naming the minimal n.

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

Numerical note: D1 nearly cancels (~0.0019 at theta0=1.5, n=7500), so
``_root_parts`` finds the root of n D1 exactly, in integers, once per
ingredients set, which ``registry.Model`` shares within a request; the
float pass at each n (``_b3_squared``) then adds only positive terms, and
rounds B3^2 up by the margin its error analysis needs.
"""

from __future__ import annotations

import functools
import math

from ._validate import Value, instance, integer, real
from .errors import ConvergenceError, DomainError, FloatRangeError, float_range, range_error
from .specfun import _ASYMPTOTIC_COEFFS, _ASYMPTOTIC_CUT, _polygammas
from .steincore import _UNIT_WEIGHTS, BoundBreakdown, _mle_bound_fields

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
    def _root(self):
        """``_root_parts``, built on first use."""
        return _root_parts(self)


class BetaParams(Value):
    """Beta(theta0, beta) with the first shape unknown and beta known."""

    def __init__(self, theta0: float, beta: float):
        # stored as plain floats, whatever real type came in
        vars(self).update(theta0=real(theta0, "theta0", gt=0.0), beta=real(beta, "beta", gt=0.0))


def _scaled_isqrt(num: int, den: int = 1):
    """(r, k) with r = floor(sqrt(num/den) 2^k) >= 2^64, for positive integers."""
    k = max(0, (132 + den.bit_length() - num.bit_length()) // 2)
    return math.isqrt((num << 2 * k) // den), k


def _root_parts(ing: ImplicitModelIngredients):
    """(m, g, |s-|, b, 1/i, w/i, v): the minimal n and the n-free floats of
    ``_b3_squared`` (w and v as there), from one exact integer computation.

    a = 2 ||x^2|| / (i eps^2) = A/D and b^2 = ||x||^2 C1^2 / i^3 = B/D are
    exact rationals of the fields.  In s = sqrt(n), n D1 = s^2 - b s - a has
    roots s+ > 0 > s-, s+^2 = (2A + B + sqrt(R)) / (2D) with R = B (B + 4A),
    so m = floor(s+^2) + 1 = (2A + B + isqrt(R)) // (2D) + 1 exactly, and
    g = m - s+^2 = (c^2 - R) / (2D (c + sqrt(R))), c = 2Dm - 2A - B, lies in
    (0, 1]; s-^2 = a^2 / s+^2.  g, b, w/i, v and 1/i are correctly rounded
    quotients of integers (square roots to 64 bits), within 1.01 units of
    2^-53; |s-|, a float square root of one, within 1.51.  Where a float
    overflows, all are inf, which ``_b3_squared`` refuses.
    """
    (i_n, i_d), (x_n, x_d), (x2_n, x2_d), (e_n, e_d), (c_n, c_d), (t_n, t_d), (v_n, v_d) = (
        field.as_integer_ratio()
        for field in (ing.fisher_info, ing.sup_x_norm, ing.sup_x2_norm, ing.epsilon,
                      ing.c1_const, ing.third_abs_score_moment, ing.var_l2)
    )
    # a = 2 x2_n i_d e_d^2 / (i_n q_a) and b^2 = (x_n c_n)^2 i_d^3 / (i_n q_b)
    q_a = x2_d * e_n * e_n
    q_b = (x_d * c_d * i_n) ** 2
    big_a = 2 * x2_n * i_d * e_d * e_d * q_b
    big_b = (x_n * c_n) ** 2 * i_d**3 * q_a
    den = i_n * q_a * q_b
    rad = big_b * (big_b + 4 * big_a)
    root, k = _scaled_isqrt(rad)  # sqrt(R) 2^k
    num = 2 * big_a + big_b
    m = (num + (root >> k)) // (2 * den) + 1
    c = 2 * den * m - num
    try:
        g = ((c * c - rad) << k) / (2 * den * ((c << k) + root))
        s_minus = math.sqrt((2 * big_a * big_a << k) / (den * ((num << k) + root)))
        i3_n, i3_d = i_n**3, i_d**3
        root, k = _scaled_isqrt(i3_d, i3_n)  # i^{-3/2} 2^k
        b = x_n * c_n * root / (x_d * c_d << k)
        w_over_i = x_n * ((t_d << k + 2) + 2 * t_n * root) * i_d / (x_d * t_d * i_n << k)
        v = 0.0
        if v_n:
            root, k = _scaled_isqrt(v_n * i3_d, v_d * i3_n)  # sqrt(Var l'') i^{-3/2} 2^k
            v = x_n * root / (x_d << k)
    except OverflowError:
        return (m,) + (math.inf,) * 6
    return m, g, s_minus, b, 1.0 / ing.fisher_info, w_over_i, v


# B3^2 is rounded up by 1 + M u, M = 20, or 40 when Var l'' > 0 (u = 2^-53).
_MARGIN, _MARGIN_VAR = 1.0 + 20 * 2.0**-53, 1.0 + 40 * 2.0**-53
_TINY = 2.0**-1022  # the least normal float


def _b3_squared(ing: ImplicitModelIngredients, n: int, name: str):
    """(B3^2 rounded up, float(n)) for n >= ``minimal_n``, else the DomainError
    naming it; a FloatRangeError naming ``name`` where n or B3^2 leaves the
    float range.  w = 2 ||x|| (2 + E|l'|^3 / i^{3/2}), v = ||x|| sqrt(Var l'')
    / i^{3/2}.  With s = sqrt(n), d = (n - m) + g and s+ = |s-| + b,
    1/D1 = h = (n / d) (1 + b / (s + |s-|)) and q / i = 1/i + (w/i) / s; B3^2 =
    (q / i) h if Var l'' = 0, else B3 = x + sqrt(x^2 + (q / i) h), x = v h / s.

    Error analysis, to first order in u, each operation rounding by at most
    u.  A sum of nonnegative terms errs by u plus its terms' errors weighted
    by their shares, and s >= s+ >= |s-| caps some shares at 1/2.  s errs by
    ds = u (1.5 u beyond 2^53, where float(n) rounds by dn = u); n / d by
    2.505 u (4.005 u beyond 2^53: at n = m, d = g, and above it g weighs at
    most 1/2); 1 + b / (s + |s-|) by 2.8825 u + ds/2 (b / (s + |s-|) <= 1);
    q / i by 3.01 u + ds; the two products by 2 u.  So (q / i) h errs by at
    most E = 11.9 u, or 14.15 u beyond 2^53.  With Var l'' > 0, x errs by
    13.15 u and B3 by 16.15 u, so B3^2 by E = 33.3 u.  Times 1 + M u, and
    rounded, B3^2 is at least (M - 1 - E) u above its exact value, so B3,
    B3^2 / n (A1^2) and A1 round to or above theirs while E + dn <= M - 4
    (15.15 <= 16, 34.3 <= 36); it is at most (E + M + 1) u above, which puts
    B3 within 2.1e-15 relative when Var l'' = 0.
    """
    m, g, s_minus, b, inv_i, w_over_i, v = ing._root
    if n < m:
        raise DomainError(f"n below minimal n = {m} (quadratic coefficient D1 <= 0)")
    try:
        nf = float(n)
        s = math.sqrt(nf)
        h = nf / (float(n - m) + g) * (1.0 + b / (s + s_minus))
        q_i = inv_i + w_over_i / s
        if v:
            x = v / s * h
            b3 = x + math.sqrt(x * x + q_i * h)
            b3sq = b3 * b3 * _MARGIN_VAR
        else:
            b3sq = q_i * h * _MARGIN
    except (OverflowError, ZeroDivisionError) as exc:
        raise range_error(name, exc) from exc
    if not (q_i >= _TINY and b3sq < math.inf):  # NaN too, from inf / inf
        raise FloatRangeError(f"{name}: B3 lies beyond the float range at n = {n}")
    return b3sq, nf


def minimal_n(ing: ImplicitModelIngredients) -> int:
    """Smallest integer sample size with D1 > 0, exactly: n D1 = s^2 - b s - a
    in s = sqrt(n), so D1 > 0 exactly above its positive root s+, and the
    answer is floor(s+^2) + 1, for any ingredients (``_root_parts``)."""
    return instance(ing, ImplicitModelIngredients, "ing")._root[0]


@float_range
def mse_upper_bound_a1(ing: ImplicitModelIngredients, n: int) -> float:
    """A1, the positive root of the root-MSE quadratic: bounds sqrt(MSE).

    Requires D1 > 0 (n at least ``minimal_n``); below that a DomainError names
    the minimal sample size.  Rounded up (``_b3_squared``), never below the
    exact root; an A1 beyond the float range is a FloatRangeError.
    """
    instance(ing, ImplicitModelIngredients, "ing")
    n = integer(n, "n")
    b3sq, nf = _b3_squared(ing, n, "mse_upper_bound_a1")
    return math.sqrt(b3sq / nf)


@float_range
def implicit_distance_bound(ing: ImplicitModelIngredients, n: int) -> BoundBreakdown:
    """Distance bound fed by the MSE bound A1 = B3/sqrt(n), rounded up as
    ``mse_upper_bound_a1`` rounds it, instead of the exact MSE: n below
    ``minimal_n`` is a DomainError naming the minimal n.  The general
    four-term assembly at MSE A1^2, sup |l'''| <= n C1 (deterministic) and
    R2 bound sqrt(n Var l'') A1: the score bound, the Markov tail
    2 A1^2/eps^2, the Taylor remainder sqrt(n) C1 A1^2 / (2 sqrt(i)) and the
    R2 term sqrt(Var l'') A1 / sqrt(i), zero when l'' is deterministic.
    """
    instance(ing, ImplicitModelIngredients, "ing")
    n = integer(n, "n")
    b3sq, nf = _b3_squared(ing, n, "implicit_distance_bound")
    sup3 = nf * ing.c1_const
    if sup3 == math.inf or nf * ing.fisher_info == math.inf:  # Taylor term inf * 0, or lost
        raise OverflowError  # the FloatRangeError naming this function
    fields = (0.0, n, ing.fisher_info, ing.third_abs_score_moment, b3sq / nf, 0.0, sup3,
              math.sqrt(ing.var_l2) * math.sqrt(b3sq), ing.epsilon, True)
    return _mle_bound_fields(fields, _UNIT_WEIGHTS, taylor_first=True)


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
    """The scaled root-MSE bound B3 = sqrt(n) A1 for the Beta model, rounded
    up (see ``_b3_squared``): (B3/sqrt(n))^2 bounds the estimator MSE.
    Rejects n below the minimal admissible size (nonpositive denominator).
    """
    return math.sqrt(_b3_squared(beta_ingredients(p), integer(n, "n"), "beta_b3")[0])


@float_range
def beta_distance_bound(p: BetaParams, n: int) -> BoundBreakdown:
    """Three-term distance bound for the standardised Beta-shape estimator.

    Score term (1/sqrt(n))(2 + B1^(3/4)/D_psi1^(3/2)); Markov tail
    (8/(n theta0^2)) B3^2; Taylor remainder B2 B3^2/(2 sqrt(n) sqrt(D_psi1)).
    The R2 term is identically zero (Var l'' = 0) and is reported as such.
    """
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
