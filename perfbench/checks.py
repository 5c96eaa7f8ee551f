"""Correctness checks that do not depend on the random stream.

Every check compares a reported value with something derived without the
program's draws: the published tables, closed-form moments of the
estimator, the range of the test function, or bound totals recorded in
``reference_bounds.json``.  A sampler that draws from the right
distributions through any other stream passes them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference_bounds.json")

# Published bound columns of Tables 1-3 and the tolerance at which the
# repository's acceptance suite pins each (the published rounding).
PUBLISHED = {
    1: ([1.955, 0.336, 0.094, 0.029, 0.009], 1e-3),
    2: ([11.888, 3.401, 1.058, 0.333, 0.105], 5e-3),
    3: ([0.2517, 0.0416, 0.0223, 0.0151, 0.0112], 5e-4),
}
PUBLISHED_DIRECT = ([0.321, 0.101, 0.032, 0.010, 0.003], 1e-3)
BETA_15_1_MINIMAL_N = 7460
GAUSSIAN_EH = (0.379, 5e-4)

# Allowance, in standard errors, for a trial mean.  A normal tail beyond 8 is
# 1e-15; the 5-trial means of squared errors in table 3 are skewed (about
# chi-square with 5 degrees of freedom), which raises it to 1.3e-5.  A
# hundred runs make some 500 such checks, so a correct program fails one
# with a chance near 1 in 150.
Z_ALLOWANCE = 8.0
# Below this n the squared error of an inverse-Gamma estimator has too heavy
# a right tail for a normal allowance above its mean: at n = 10 one trial in
# two million exceeds, alone, the allowance of a 100-trial mean, a false
# failure in 1 of 20,000 runs.  Only the lower side is checked there.
TWO_SIDED_MIN_N = 31
# h(x) = 1/(x^2 + 2) lies in [0, 1/2], so one trial's h value has standard
# deviation at most 1/4 (Popoviciu), whatever the estimator's law.
H_SD_MAX = 0.25
# Relative tolerance of bound totals against the recorded reference: wide
# enough for ulp-scale upward rounding and a re-tuned Poisson c search,
# narrow enough that any changed term or constant fails.
REFERENCE_RTOL = 1e-9
KOLMOGOROV_RTOL = 1e-14


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _rel_close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def inverse_gamma_moments(n):
    """E(r - 1)^2 and Var (r - 1)^2 for r = n / G, G ~ Gamma(n, 1), exactly.

    ``theta_hat / theta0`` has this law for the exponential rate MLE and for
    the Beta(theta0, 1) shape MLE, since -log X ~ Exp(theta0).  Needs n > 4.
    """
    m = [Fraction(1)]
    for k in range(1, 5):
        m.append(m[-1] * n / (n - k))  # E r^k = n^k / ((n-1)...(n-k))
    c2 = m[2] - 2 * m[1] + 1
    c4 = m[4] - 4 * m[3] + 6 * m[2] - 4 * m[1] + 1
    return c2, c4 - c2 * c2


def mse_closed_form(model, theta0, n, beta):
    """(MSE, Var of one squared error, two_sided) of theta_hat, or None.

    exp-noncanonical: the mean of n Exp(mean theta0) is Gamma(n, theta0/n),
    so MSE = theta0^2/n and Var = 2(n+3) theta0^4/n^3.  Poisson: n*mean is
    Poisson(n theta0), so MSE = theta0/n and Var = (n theta0 + 2 n^2
    theta0^2)/n^4.  exp-canonical and Beta with beta = 1: MSE = theta0^2
    (n+2)/((n-1)(n-2)), variance from the inverse-Gamma moments, two-sided
    from TWO_SIDED_MIN_N on.
    """
    t = Fraction(theta0)
    if model == "exp-noncanonical":
        return float(t * t / n), float(2 * (n + 3) * t**4 / Fraction(n) ** 3), True
    if model == "poisson":
        return float(t / n), float((n * t + 2 * n * n * t * t) / Fraction(n) ** 4), True
    if model == "exp-canonical" or (model == "beta" and beta == 1.0):
        if n <= 4:
            return None
        c2, var = inverse_gamma_moments(n)
        assert c2 == Fraction(n + 2, (n - 1) * (n - 2))
        return float(t * t * c2), float(t**4 * var), n >= TWO_SIDED_MIN_N
    return None


def check_row(row, spec):
    """Problems with one simulation-report row; an empty list means correct.

    ``spec`` is the row's request: model, theta0, n, trials, seed, beta,
    target ("distance" or "mse"), and optionally ``published`` =
    (value, tolerance) and ``direct`` = (value, tolerance) for table 2.
    """
    bad = []
    for key in ("model", "theta0", "n", "trials", "seed", "target"):
        if row.get(key) != spec[key]:
            bad.append(f"{key} {row.get(key)!r} != requested {spec[key]!r}")
    for key in ("empirical_distance", "empirical_mse", "bound_total", "expected_h"):
        if not (_finite(row.get(key)) and row[key] >= 0.0):
            bad.append(f"{key} = {row.get(key)!r} is not finite and >= 0")
    if bad:
        return bad
    trials = spec["trials"]
    model, theta0, n = spec["model"], spec["theta0"], spec["n"]
    emp_d, emp_mse, bound = row["empirical_distance"], row["empirical_mse"], row["bound_total"]

    if spec["target"] == "distance":
        # The bound controls |E h(W) - E h(Z)|; the reported discrepancy adds
        # the Monte Carlo error of the trial mean of h.
        allowance = Z_ALLOWANCE * H_SD_MAX / math.sqrt(trials)
        if emp_d > bound + allowance:
            bad.append(f"empirical {emp_d!r} > bound {bound!r} + {allowance:.3g}")
    elif emp_mse > bound:
        bad.append(f"empirical MSE {emp_mse!r} > MSE bound {bound!r}")

    if model == "poisson":
        if not 0.0 < row["expected_h"] <= 0.5:
            bad.append(f"E h(sigma Z) = {row['expected_h']!r} outside (0, 1/2]")
    elif abs(row["expected_h"] - GAUSSIAN_EH[0]) > GAUSSIAN_EH[1]:
        bad.append(f"E h(Z) = {row['expected_h']!r}, expected {GAUSSIAN_EH[0]} +- {GAUSSIAN_EH[1]}")

    closed = mse_closed_form(model, theta0, n, spec["beta"])
    if closed is not None:
        mse, var, two_sided = closed
        allowance = Z_ALLOWANCE * math.sqrt(var / trials)
        if emp_mse < mse - allowance or (two_sided and emp_mse > mse + allowance):
            side = "+-" if two_sided else "-"
            bad.append(f"empirical MSE {emp_mse!r} vs closed form {mse!r} {side} {allowance:.3g}")

    if "published" in spec:
        value, tol = spec["published"]
        if abs(bound - value) > tol:
            bad.append(f"bound {bound!r} vs published {value} +- {tol}")
    if "direct" in spec:
        value, tol = spec["direct"]
        got = row.get("direct_bound")
        if not (_finite(got) and abs(got - value) <= tol):
            bad.append(f"direct bound {got!r} vs published {value} +- {tol}")
    return bad


def check_total(total, kolmogorov, reference):
    """Problems with one bound evaluation against its recorded reference."""
    if not (_finite(total) and total >= 0.0):
        return [f"total {total!r} is not finite and >= 0"]
    bad = []
    if kolmogorov is not None and not _rel_close(kolmogorov, 2.0 * math.sqrt(total), KOLMOGOROV_RTOL):
        bad.append(f"kolmogorov {kolmogorov!r} != 2 sqrt(total) = {2.0 * math.sqrt(total)!r}")
    if reference is None:
        bad.append("no recorded reference")
    elif not _rel_close(total, reference, REFERENCE_RTOL):
        bad.append(f"total {total!r} != reference {reference!r} (rtol {REFERENCE_RTOL:g})")
    return bad
