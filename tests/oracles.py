"""Slow reference implementations the tests compare the package against.

Each is deliberately a different algorithm from the code it checks, so the
two share no code path, except ``scalar_polygamma``: a verbatim copy of the
loop the package replaced, against which the new code must agree bit for bit.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np

from steinmle.errors import ConvergenceError
from steinmle.montecarlo import _pykernels
from steinmle.registry import get_model
from steinmle.specfun import _ASYMPTOTIC_CUT, _BERNOULLI, polygamma, std_normal_quantile

EULER_GAMMA = 0.5772156649015328606065120900824024


def polygamma_series(order, x, terms=20000):
    """Direct-series evaluation of psi / psi_m for order in {0, 1, 2, 3}.

    Partial sum of the defining series

        psi_m(x) = (-1)^(m+1) m! * sum_{k>=0} (x+k)^(-(m+1))      (m >= 1)

    plus a two-term Euler-Maclaurin tail estimate.  Good to ~1e-12 relative
    at the default term count; independent of ``specfun.polygamma``.
    """
    kk = float(terms)
    if order == 0:
        # psi(x) = -gamma + sum_{k>=0} [ 1/(k+1) - 1/(k+x) ]
        partial = math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(terms))
        # tail of g(t) = (x-1)/((t+1)(t+x)):  integral + g/2 - g'/12
        tail_int = math.log((kk + x) / (kk + 1.0))
        g = (x - 1.0) / ((kk + 1.0) * (kk + x))
        gp = -(x - 1.0) * (2.0 * kk + 1.0 + x) / (((kk + 1.0) * (kk + x)) ** 2)
        return -EULER_GAMMA + partial + tail_int + 0.5 * g - gp / 12.0
    m = order
    partial = math.fsum((x + k) ** (-(m + 1)) for k in range(terms))
    f = (x + kk) ** (-(m + 1))
    fp = -(m + 1.0) * (x + kk) ** (-(m + 2))
    tail = (x + kk) ** (-m) / m + 0.5 * f - fp / 12.0
    sign = 1.0 if (m + 1) % 2 == 0 else -1.0  # (-1)^(m+1)
    return sign * math.factorial(m) * (partial + tail)


def scalar_polygamma(order, x):
    """psi_m(x) by the scalar shift loop ``specfun.polygamma`` used before
    one shift pass served several orders, kept verbatim as its reference.

    The same algorithm as the package, not an independent one: the shared
    pass must reproduce these floats bit for bit.
    """
    increments = []
    y = x
    if order == 0:
        while y < _ASYMPTOTIC_CUT:
            increments.append(-1.0 / y)
            y += 1.0
        z = 1.0 / (y * y)
        s = 0.0
        for k in range(len(_BERNOULLI) - 1, -1, -1):
            s = (s + _BERNOULLI[k] / (2.0 * (k + 1))) * z
        return math.log(y) - 0.5 / y - s + math.fsum(increments)
    sign = 1.0 if order % 2 == 0 else -1.0
    fac = float(math.factorial(order))
    while y < _ASYMPTOTIC_CUT:
        increments.append(-sign * fac / y ** (order + 1))
        y += 1.0
    z = 1.0 / (y * y)
    s = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        two_k = 2 * k
        rising = 1.0
        for j in range(1, order):
            rising *= two_k + j
        s = s * z + _BERNOULLI[k - 1] * rising
    s *= z
    fac_m1 = math.factorial(order - 1)
    ym = y**order
    val = fac_m1 / ym + fac_m1 * order / (2.0 * ym * y) + s / ym
    return (val if order % 2 == 1 else -val) + math.fsum(increments)


def scalar_asymptotic_coeffs(order):
    """The Horner coefficients of ``scalar_polygamma``'s asymptotic series, in
    the order its loop forms them (for order 0, the digamma loop's addends)."""
    if order == 0:
        return [_BERNOULLI[k] / (2.0 * (k + 1)) for k in range(len(_BERNOULLI) - 1, -1, -1)]
    coeffs = []
    for k in range(len(_BERNOULLI), 0, -1):
        rising = 1.0
        for j in range(1, order):
            rising *= 2 * k + j
        coeffs.append(_BERNOULLI[k - 1] * rising)
    return coeffs


def beta_two_grid_mle(xs):
    """Beta(theta, 2) shape MLE by a search over 10^6 grid points on
    [1e-4, 50], and the grid spacing.

    The log-likelihood is n log(theta (theta + 1)) + (theta - 1) sum log x,
    plus a term free of theta: B(theta, 2) = 1/(theta (theta + 1)).
    """
    grid = np.linspace(1e-4, 50.0, 10**6)
    loglik = len(xs) * np.log(grid * (grid + 1.0)) + (grid - 1.0) * float(np.log(xs).sum())
    return float(grid[int(np.argmax(loglik))]), float(grid[1] - grid[0])


def kolmogorov_q(lam):
    """Q(lam) = P(K > lam) for the Kolmogorov distribution K.

    For lam >= 1, Q = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2); below 1,
    1 - Q = sqrt(2 pi)/lam sum_{j>=1} exp(-(2j - 1)^2 pi^2 / (8 lam^2)), which
    converges fast there.  Ten terms of either leave less than 1e-100.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        s = math.fsum(math.exp(-(((2 * j - 1) * math.pi / lam) ** 2) / 8.0) for j in range(1, 11))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * s
    return 2.0 * math.fsum((-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2) for j in range(1, 11))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic D and its asymptotic p-value.

    D is the largest gap between the two empirical CDFs over the pooled
    points, each CDF counting the points at or below (so ties count on both
    sides at once).  The p-value is Q(lam) at lam = (sqrt(m) + 0.12 +
    0.11/sqrt(m)) D, m = n1 n2 / (n1 + n2): Stephens' finite-sample form.
    """
    n1, n2 = len(a), len(b)
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    # n1 n2 times the gap, in integers, so that D is rounded once
    gap = np.searchsorted(a, pooled, "right") * n2 - np.searchsorted(b, pooled, "right") * n1
    d = int(np.max(np.abs(gap))) / (n1 * n2)
    root_m = math.sqrt(n1 * n2 / (n1 + n2))
    return d, kolmogorov_q((root_m + 0.12 + 0.11 / root_m) * d)


def bracketed_beta_root(n, sum_log, beta, rel_tol=1e-12):
    """Beta shape MLE by a bracket search and safeguarded scalar Newton.

    Solves n (psi(theta + beta) - psi(theta)) + sum log x = 0 one sample at
    a time with the scalar ``specfun.polygamma``: the root finder the
    package used before it solved whole rows at once.
    """

    def score(theta):
        return n * (polygamma(0, theta + beta) - polygamma(0, theta)) + sum_log

    lo, hi = 1e-8, 1e8
    f_lo, f_hi = score(lo), score(hi)
    for _ in range(60):
        if f_lo > 0.0:
            break
        lo /= 16.0
        f_lo = score(lo)
    for _ in range(60):
        if f_hi < 0.0:
            break
        hi *= 16.0
        f_hi = score(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ConvergenceError("could not bracket the shape-score root")

    theta = -n / sum_log
    if not (lo < theta < hi):
        theta = math.sqrt(lo * hi)
    for _ in range(200):
        f = score(theta)
        if f > 0.0:
            lo = theta
        else:
            hi = theta
        deriv = n * (polygamma(1, theta + beta) - polygamma(1, theta))
        step_ok = deriv < 0.0
        if step_ok:
            candidate = theta - f / deriv
            step_ok = lo < candidate < hi
        new_theta = candidate if step_ok else 0.5 * (lo + hi)
        if abs(new_theta - theta) <= rel_tol * abs(new_theta):
            return new_theta
        theta = new_theta
    raise ConvergenceError("shape MLE root refinement did not converge")


def expfam_fisher_info(k_prime, var_T):
    """One observation's information in a one-parameter exponential family
    exp{k(theta) T(x) - A(theta) + S(x)}: k'(theta0)^2 Var T(X)."""
    return k_prime**2 * var_T


def expfam_third_score_moment(k_prime, third_abs_central_T):
    """Its third absolute score moment: |k'(theta0)|^3 E|T(X) - D(theta0)|^3."""
    return abs(k_prime) ** 3 * third_abs_central_T


def conditioned_mean(model, theta0, n, f, eps, trials, seed):
    """Monte Carlo E[f(M) | M <= eps] and E[f(M)] for M = |theta_hat - theta0|.

    theta_hat is the registered estimator at sample size n, from ``trials``
    statistics drawn off one Philox stream keyed by ``seed``.  Returns the
    two means, their combined standard error and the number of draws with
    M <= eps.  For increasing nonnegative f the conditioned mean cannot
    exceed the unconditioned one.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = _pykernels.sample_stats(model, theta0, 1.0, n, trials, rng)
    m_draws = np.abs(get_model(model).mle_from_stat(stats, n) - theta0)
    f_all = np.array([f(float(m)) for m in m_draws])
    f_in = f_all[m_draws <= eps]
    count = f_in.size
    lhs_se = float(f_in.std(ddof=1) / math.sqrt(count)) if count > 1 else math.inf
    rhs_se = float(f_all.std(ddof=1) / math.sqrt(trials))
    return math.fsum(f_in) / count, math.fsum(f_all) / trials, math.hypot(lhs_se, rhs_se), count


def _digits(n):
    """The decimal context of the oracles below at n: 50 digits, and one more
    for each digit of n.  Near the minimal n, D1 is about 1/n of its terms,
    so forming it cancels about that many digits."""
    return localcontext(Context(prec=50 + len(str(n))))


def decimal_d1(ing, n):
    """The leading coefficient of the root-MSE quadratic, as a Decimal of
    ``_digits(n)``: D1 = 1 - 2 ||x^2|| / (n i eps^2) - ||x|| C1 / (sqrt(n) i^{3/2}),
    written as (n - a - b sqrt(n))/n with the n-free a and b, the grouping
    that ``msebound.minimal_n``'s docstring solves, not the package's."""
    with _digits(n):
        i, nn = Decimal(ing.fisher_info), Decimal(n)
        a = 2 * Decimal(ing.sup_x2_norm) / (i * Decimal(ing.epsilon) ** 2)
        b = Decimal(ing.sup_x_norm) * Decimal(ing.c1_const) / (i * i.sqrt())
        return (nn - a - b * nn.sqrt()) / nn


def decimal_b3_a1(ing, n):
    """B3 = sqrt(n) A1 and A1, the positive root of the root-MSE quadratic
    D1 A1^2 - lin A1 - c = 0, as Decimals of ``_digits(n)``: the pass the
    package computed them by, at 50 digits, before its exact integer root and
    float pass.

        D1  = 1 - 2 ||x^2|| / (n i eps^2) - ||x|| C1 / (sqrt(n) i^{3/2}),
        lin = 2 ||x|| sqrt(Var l'') / (n i^{3/2}),
        c   = (1 + (2 ||x|| / sqrt(n)) (2 + E|l'|^3 / i^{3/2})) / (n i).

    Requires D1 > 0 (n at least the minimal n)."""
    with _digits(n):
        i, nn = Decimal(ing.fisher_info), Decimal(n)
        x, var = Decimal(ing.sup_x_norm), Decimal(ing.var_l2)
        root_n, i32 = nn.sqrt(), i * i.sqrt()
        d1 = (1 - 2 * Decimal(ing.sup_x2_norm) / (nn * i * Decimal(ing.epsilon) ** 2)
              - x * Decimal(ing.c1_const) / (root_n * i32))
        assert d1 > 0, "n below the minimal n"
        lin = 2 * x * var.sqrt() / (nn * i32)
        c = (1 + 2 * x / root_n * (2 + Decimal(ing.third_abs_score_moment) / i32)) / (nn * i)
        a1 = (lin + (lin * lin + 4 * d1 * c).sqrt()) / (2 * d1)
        return root_n * a1, a1


def decimal_implicit_total(ing, n, score):
    """The implicit distance bound's total at the oracle's A1: ``score`` (the
    score term, which does not involve A1) plus the Markov, Taylor and R2
    terms 2 A1^2 / eps^2, sqrt(n) C1 A1^2 / (2 sqrt(i)) and
    sqrt(Var l'') A1 / sqrt(i), summed at ``_digits(n)``."""
    _, a1 = decimal_b3_a1(ing, n)
    with _digits(n):
        root_i = Decimal(ing.fisher_info).sqrt()
        return (Decimal(score) + 2 * a1 * a1 / Decimal(ing.epsilon) ** 2
                + Decimal(n).sqrt() * Decimal(ing.c1_const) * a1 * a1 / (2 * root_i)
                + Decimal(ing.var_l2).sqrt() * a1 / root_i)


def bisected_minimal_n(ing):
    """Smallest n >= 1 with D1 > 0, by doubling and then bisection on the
    sign of ``decimal_d1``: D1 increases in n, so the sign changes once."""
    if decimal_d1(ing, 1) > 0:
        return 1
    lo, hi = 1, 2  # D1(lo) <= 0 throughout; D1(hi) > 0 once doubling stops
    while decimal_d1(ing, hi) <= 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decimal_d1(ing, mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def per_trial_coverage(theta_hats, theta0, n, fisher_info, alpha, b_k):
    """Share of the conservative intervals that contain theta0, one trial at
    a time: (theta_hat - PhiInv(1 - alpha/2 + b_k)/sqrt(n i),
    theta_hat - PhiInv(alpha/2 - b_k)/sqrt(n i)), closed, and the whole line
    once b_k >= alpha/2."""
    lo_arg, hi_arg = alpha / 2.0 - b_k, 1.0 - alpha / 2.0 + b_k
    if lo_arg <= 0.0 or hi_arg >= 1.0:
        return 1.0
    scale = math.sqrt(n * fisher_info)
    covered = 0
    for th in theta_hats:
        lower = float(th) - std_normal_quantile(hi_arg) / scale
        upper = float(th) - std_normal_quantile(lo_arg) / scale
        covered += lower <= theta0 <= upper
    return covered / len(theta_hats)


def inward_map(a, b, c, n, x):
    """The perturbation map of ``steinmle.boundary``'s docstring on a finite
    interval [a, b]: q(x) = x + c/n - (2c/n)(x - a)/(b - a), the affine map
    with q(a) = a + c/n and q(b) = b - c/n, for 0 < c < n(b - a)/2."""
    step = c / n
    return x + step - 2.0 * step * (x - a) / (b - a)


def half_line_perturbed_bound(n, c, score, fisher, gap, star):
    """The paper's six-term distance bound for sqrt(n)(theta_hat - theta0)
    against N(0, 1/i(theta0)), for a parameter on a half-line perturbed
    inward by c/n to theta0* = theta0 +- c/n.

    ``score`` is (w1, w2, E|Y_1 - w1|^3) for the perturbed scores
    Y_i = l'(theta0*; q(X_i)) / (sqrt(n) i(theta0*)), ``fisher`` is i(theta0),
    ``gap`` is E|theta_hat - theta_hat*|, and ``star`` is (i, MSE, epsilon,
    R2 bound, Taylor factor) at theta0*.  Returns the six terms in the order
    of ``poisson_bound``'s labels.  Only ``c``, ``gap`` and ``star`` may be
    numpy arrays, which makes every term an array over c.
    """
    root_n = math.sqrt(n)
    w1, w2, third = score
    mismatch = abs(1.0 - 1.0 / math.sqrt(w2 * n * fisher)) * math.sqrt(n * w2 + (n * w1) ** 2)
    mismatch += root_n * abs(w1) / math.sqrt(w2 * fisher)
    i_star, mse, eps, r2, taylor = star
    return (
        c / root_n,
        root_n * gap,
        mismatch,
        (2.0 + third / w2**1.5) / root_n,
        2.0 * mse / eps**2,
        (r2 + 0.5 * taylor) / (root_n * i_star),
    )


def poisson_perturbed_terms(theta0, n, c):
    """``half_line_perturbed_bound`` for the Poisson mean from its moments:
    Y_i = (X_i - theta0)/sqrt(n), the third absolute central moment by
    Holder from the fourth, both estimators means (so the gap is c/n), and at
    theta0* information 1/theta0*, epsilon theta0*/2, R2 bound theta0/theta0*^2
    and |l'''| <= 24n/theta0*^2 against the mean's fourth central moment."""
    tp = theta0 + c / n
    fourth = theta0 / n**3 + 3.0 * theta0**2 / n**2
    return half_line_perturbed_bound(
        n,
        c,
        (0.0, theta0 / n, (theta0 + 3.0 * theta0**2) ** 0.75 / n**1.5),
        1.0 / theta0,
        c / n,
        (1.0 / tp, theta0 / n, tp / 2.0, theta0 / tp**2, 24.0 * n / tp**2 * math.sqrt(fourth)),
    )
