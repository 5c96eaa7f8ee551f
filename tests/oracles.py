"""Slow reference implementations the tests compare the package against.

Each is deliberately a different algorithm from the code it checks, so the
two share no code path, except ``scalar_polygamma``: a verbatim copy of the
loop the package replaced, against which the new code must agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from steinmle.errors import ConvergenceError
from steinmle.montecarlo import _pykernels
from steinmle.registry import get_model
from steinmle.specfun import _ASYMPTOTIC_CUT, _BERNOULLI, polygamma

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


def beta_score(theta, beta, n, sum_log):
    """Shape score at theta: n (psi(theta + beta) - psi(theta)) + sum log x."""
    return n * (polygamma(0, theta + beta) - polygamma(0, theta)) + sum_log


def bracketed_beta_root(n, sum_log, beta, rel_tol=1e-12):
    """Beta shape MLE by a bracket search and safeguarded scalar Newton.

    Solves n (psi(theta + beta) - psi(theta)) + sum log x = 0 one sample at
    a time with the scalar ``specfun.polygamma``: the root finder the
    package used before it solved whole rows at once.
    """

    def score(theta):
        return beta_score(theta, beta, n, sum_log)

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
