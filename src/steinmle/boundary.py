"""The perturbed distance bound for an MLE that can sit on a boundary.

Discrete models whose parameter space is a closed or half-closed interval
(Poisson with mean in [0, inf) being the worked example) break the interior
Taylor expansion: the estimator hits the boundary with positive probability
and the information number may degenerate there.  The fix is an affine map

    q(x) = x + c/n - (2c/n) (x - a)/(b - a)

that pulls both the parameter and the data inward by c/n, applied before the
usual score expansion.  Among affine maps with q(a) = a + c/n and
q(b) = b - c/n it is the unique one, and it minimises sup |q(x) - x|.  On a
half-line [a, inf) it is the shift q(x) = x + c/n.

For the Poisson mean (a = 0) that shift is all the map contributes: the
perturbed parameter is theta0 + c/n, and both estimators are means, so they
differ by exactly c/n.  The map therefore enters the closed form only
through those two quantities and is not a function here.  The resulting
six-part distance bound for sqrt(n)(theta_hat - theta0) against
N(0, 1/i(theta0)) is assembled once, for the Poisson mean:
``poisson_bound``, with the perturbation constant c minimised by
``minimize_poisson_c`` and the exact zero bound in the degenerate
theta0 = 0 case.  The paper works no other boundary model.  The c search
(a golden section, then the two ends of its bracket, since the total is
convex in c) and ``poisson_bound`` read one formula, ``_poisson_values``,
whose floats ``poisson_bound`` labels once, at the chosen c.  Its c-free
parts (sqrt(n), the perturbed-score term and the root sqrt(theta0/n +
3 theta0^2) of the Taylor term) come from ``_poisson_parts``, once per
search and once per breakdown, not once per trial c.
"""

from __future__ import annotations

import math

from ._validate import integer, perturbation, real
from .errors import float_range
from .steincore import TERM_MARKOV, BoundBreakdown, _score_term

__all__ = [
    "poisson_bound",
    "minimize_poisson_c",
]

# The six terms in the order every Poisson breakdown lists them.
_LABELS = (
    "param_shift",
    "mle_gap",
    "score_mismatch",
    "perturbed_score",
    TERM_MARKOV,
    "perturbed_taylor",
)
# Golden-section stopping width of the c search.
_C_TOL = 1e-10


def _poisson_parts(theta0: float, n: int) -> tuple:
    """The c-free parts of the Poisson bound: sqrt(n), the perturbed-score
    term and sqrt(theta0/n + 3 theta0^2), the root in the Taylor term."""
    # Holder: E|X - theta0|^3 <= (theta0 + 3 theta0^2)^(3/4), passed already
    # divided by theta0^(3/2), so against a unit variance.
    t_score = _score_term((3.0 * theta0 + 1.0) ** 0.75 / theta0**0.75, 1.0, n)
    return (math.sqrt(n), t_score, math.sqrt(theta0 / n + 3.0 * theta0**2))


def _poisson_values(theta0: float, n: int, c: float, parts: tuple) -> tuple:
    """The closed-form Poisson term values at perturbation constant c, in
    ``_LABELS`` order, from the c-free parts of ``_poisson_parts``.

    Mapping to the six-label schema: the combined 2c/sqrt(n) cost splits
    into the parameter shift c/sqrt(n) and the estimator gap
    sqrt(n) E|mean(q(X)) - mean(X)| = c/sqrt(n); the score-mismatch term
    vanishes identically (the perturbed Poisson score standardises exactly);
    the Taylor term carries both the R2 part theta0/(sqrt(n) theta0*) and
    the third-derivative part 12 sqrt(theta0/n + 3 theta0^2)/(sqrt(n) theta0*).
    """
    root_n, t_score, root_taylor = parts
    tp = theta0 + c / n  # perturbed parameter
    t_shift = c / root_n
    t_markov = 8.0 * theta0 / (n * tp * tp)
    t_taylor = theta0 / (root_n * tp) + 12.0 / (root_n * tp) * root_taylor
    return (t_shift, t_shift, 0.0, t_score, t_markov, t_taylor)


def _poisson_total(theta0: float, n: int, c: float, parts: tuple) -> float:
    return math.fsum(_poisson_values(theta0, n, c, parts))


def minimize_poisson_c(theta0: float, n: int) -> float:
    """Golden-section minimiser of the Poisson bound over c in (0, n*theta0].

    The total is strictly convex in c: with u = theta0 + c/n > 0, the shift
    and gap terms are linear in c, the Markov term is a multiple of 1/u^2 and
    the Taylor term of 1/u, both convex, and the score terms do not depend
    on c.  So the golden section brackets the one minimum on [lo, hi] =
    [min(1e-12, n*theta0/2), n*theta0], and only an end of that bracket can
    beat the section's limit: the limit, lo and hi are priced in turn, a
    later one kept only if strictly lower.  Each c is priced in double by
    ``_poisson_values``, the formula ``poisson_bound`` labels, from the
    c-free parts that ``_poisson_parts`` computes once per call.  The
    closed-form root of the stationarity cubic waits for the benchmark to
    stop reading a faster search as a peak-RSS regression (ROADMAP item 1).
    """
    theta0, n = real(theta0, "theta0", gt=0.0), integer(n, "n")
    parts = _poisson_parts(theta0, n)
    hi = n * theta0
    lo = min(1e-12, hi / 2.0)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = _poisson_total(theta0, n, x1, parts)
    f2 = _poisson_total(theta0, n, x2, parts)
    # Adjacent floats a < b admit no point between them, and the bracket
    # would stay as it is for ever: that ends the search too.
    while b - a > _C_TOL and math.nextafter(a, b) != b:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = _poisson_total(theta0, n, x1, parts)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = _poisson_total(theta0, n, x2, parts)
    c_golden = 0.5 * (a + b)
    best_c, best_val = c_golden, _poisson_total(theta0, n, c_golden, parts)
    # A convex total beats the limit, if at all, at an end of the bracket.
    for c_end in (lo, hi):
        val = _poisson_total(theta0, n, c_end, parts)
        if val < best_val:
            best_c, best_val = c_end, val
    return best_c


@float_range
def poisson_bound(theta0: float, n: int, c="auto") -> BoundBreakdown:
    """Distance bound for sqrt(n)(mean - theta0) against N(0, theta0).

    theta0 = 0 is the degenerate case: the estimator is identically zero and
    the distance is exactly zero, at any valid c.  For theta0 > 0 the
    six-term closed form (its ``score_mismatch`` term identically 0) applies
    at perturbation constant c; ``c="auto"`` picks the c minimising the total
    numerically.
    """
    theta0, n, c = real(theta0, "theta0", ge=0.0), integer(n, "n"), perturbation(c)
    if theta0 == 0.0:
        return BoundBreakdown(terms=tuple((label, 0.0) for label in _LABELS))
    if c == "auto":
        c = minimize_poisson_c(theta0, n)
    values = _poisson_values(theta0, n, c, _poisson_parts(theta0, n))
    return BoundBreakdown(terms=tuple(zip(_LABELS, values)))
