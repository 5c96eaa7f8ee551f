"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Deterministic bound columns are checked at the published rounding
tolerances; stochastic criteria run the full simulation protocol (any seed:
override via STEINMLE_ACCEPTANCE_SEED).  Run with ``-s`` to see the
per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest
from oracles import conditioned_mean, decimal_d1, inward_map

import steinmle as sm
from steinmle.montecarlo import SimulationConfig, ci_coverage, run_mse_sweep, run_simulation
from steinmle.msebound import BetaParams, beta_ingredients, mse_upper_bound_a1

SEED = int(os.environ.get("STEINMLE_ACCEPTANCE_SEED", "1729"))
TABLE_WEIGHTS = (0.5, 3.0 * math.sqrt(1.5) / 16.0)
TABLE_NS = [10, 100, 1000, 10**4, 10**5]
BETA_NS = [7500, 7700, 7900, 8100, 8300]

TABLE1_BOUNDS = [1.955, 0.336, 0.094, 0.029, 0.009]
TABLE2_BOUNDS = [11.888, 3.401, 1.058, 0.333, 0.105]
TABLE2_DIRECT = [0.321, 0.101, 0.032, 0.010, 0.003]
TABLE3_BOUNDS = [0.2517, 0.0416, 0.0223, 0.0151, 0.0112]
# published single-run empirical columns (seeds unknown; order-of-magnitude gate)
TABLE1_EMPIRICAL = [0.007, 0.002, 0.001, 0.0002, 0.0001]
TABLE2_EMPIRICAL = [0.004, 0.003, 0.002, 0.001, 0.0005]
TABLE3_EMPIRICAL_MSE = [0.0002] * 5


def _report(num, name, violations, detail=""):
    status = "FAIL" if violations else "PASS"
    print(f"\nACCEPTANCE {num} [{name}]: {status} {detail}")
    for v in violations:
        print(f"  violation: {v}")
    assert not violations, f"criterion {num} failed: {violations}"


def test_criterion_1_table1_bounds():
    t0 = time.perf_counter()
    violations = []
    for n, target in zip(TABLE_NS, TABLE1_BOUNDS):
        got = sm.mle_bound_general(sm.exp_canonical_ingredients(1.0, n), TABLE_WEIGHTS).total
        if abs(got - target) > 1e-3:
            violations.append(f"n={n}: bound {got:.6f} vs published {target}")
    elapsed = time.perf_counter() - t0
    _report(1, "table-1 bound column", violations, f"({elapsed * 1e3:.1f} ms)")
    assert elapsed < 10.0


def test_criterion_2_table2_bounds():
    t0 = time.perf_counter()
    violations = []
    for n, target in zip(TABLE_NS, TABLE2_BOUNDS):
        got = sm.mle_bound_general(sm.exp_noncanonical_ingredients(2.0, n), TABLE_WEIGHTS).total
        if abs(got - target) > 5e-3:
            violations.append(f"n={n}: general bound {got:.6f} vs published {target}")
    for n, target in zip(TABLE_NS, TABLE2_DIRECT):
        got = sm.score_bound(sm.exp_noncanonical_ingredients(2.0, n), TABLE_WEIGHTS).total
        if abs(got - target) > 1e-3:
            violations.append(f"n={n}: sum-route bound {got:.6f} vs published {target}")
    elapsed = time.perf_counter() - t0
    _report(2, "table-2 bound columns", violations, f"({elapsed * 1e3:.1f} ms)")
    assert elapsed < 10.0


def test_criterion_3_table3_bounds_and_minimal_n():
    t0 = time.perf_counter()
    violations = []
    p = BetaParams(1.5, 1.0)
    for n, target in zip(BETA_NS, TABLE3_BOUNDS):
        b3 = sm.beta_b3(p, n)
        got = b3 * b3 / n
        if abs(got - target) > 5e-4:
            violations.append(f"n={n}: MSE bound {got:.6f} vs published {target}")
    m = sm.minimal_n(sm.beta_ingredients(p))
    if m != 7460:
        violations.append(f"minimal n = {m}, expected exactly 7460")
    elapsed = time.perf_counter() - t0
    _report(3, "table-3 MSE bound column + minimal n", violations, f"({elapsed * 1e3:.1f} ms)")
    assert elapsed < 10.0


# Every published bound cell of tables 1 and 2, as printed, with the rule
# that gives it from the computed bound at its number of decimals: rounding
# for 13 cells, truncation for table 1 at n = 100 (0.33657) and table 2 at
# n = 10 (11.88852).  The 1e-3 and 5e-3 gates above stay beside this check.
_RULES = {"round": ROUND_HALF_EVEN, "truncate": ROUND_DOWN}
_CELLS = [
    *[("1", "bound", n, cell, "truncate" if n == 100 else "round")
      for n, cell in zip(TABLE_NS, ["1.955", "0.336", "0.094", "0.029", "0.009"])],
    *[("2", "bound", n, cell, "truncate" if n == 10 else "round")
      for n, cell in zip(TABLE_NS, ["11.888", "3.401", "1.058", "0.333", "0.105"])],
    *[("2", "direct", n, cell, "round")
      for n, cell in zip(TABLE_NS, ["0.321", "0.101", "0.032", "0.010", "0.003"])],
]


@pytest.mark.parametrize("table,column,n,cell,rule", _CELLS,
                         ids=[f"table{t}-{c}-n{n}" for t, c, n, _, _ in _CELLS])
def test_published_bound_cell_within_one_unit_under_its_rule(table, column, n, cell, rule):
    ing = (sm.exp_canonical_ingredients(1.0, n) if table == "1"
           else sm.exp_noncanonical_ingredients(2.0, n))
    assemble = sm.score_bound if column == "direct" else sm.mle_bound_general
    got = Decimal(assemble(ing, TABLE_WEIGHTS).total)
    published = Decimal(cell)
    assert abs(got - published) <= Decimal(1).scaleb(published.as_tuple().exponent)  # one unit
    assert got.quantize(published, rounding=_RULES[rule]) == published
    if rule == "truncate":  # named so because rounding does not give the cell
        assert got.quantize(published, rounding=ROUND_HALF_EVEN) != published


@pytest.mark.parametrize("n,published", list(zip(BETA_NS, TABLE3_BOUNDS)))
def test_table3_published_column_is_the_bound_minus_the_exact_mse(n, published):
    # The beta = 1 MLE is n/S with S ~ Gamma(n, rate theta0), so its MSE is
    # theta0^2 (n + 2)/((n - 1)(n - 2)).  Bound minus that MSE matches each
    # published cell to one unit of its last digit; the bound alone does not.
    bound = sm.beta_b3(BetaParams(1.5, 1.0), n) ** 2 / n
    exact_mse = 1.5**2 * (n + 2) / ((n - 1) * (n - 2))
    assert abs(bound - exact_mse - published) <= 1e-4
    assert abs(bound - published) > 1e-4


def test_criterion_4_gaussian_expectation():
    t0 = time.perf_counter()
    value = sm.normal_expectation(sm.inv_quadratic_test_function())
    violations = []
    if abs(value - 0.379) > 5e-4:
        violations.append(f"E[h(Z)] = {value:.6f}, expected 0.379 to 3 decimals")
    elapsed = time.perf_counter() - t0
    _report(4, "Gaussian expectation of the benchmark h", violations, f"({elapsed * 1e3:.1f} ms)")
    assert elapsed < 10.0


def test_criterion_5_stochastic_dominance():
    """Empirical columns at 10^4 trials (tables 1-2) and 10^3 (table 3).

    Dominance (empirical <= bound) is asserted as stated.  The published
    empirical columns are single Monte Carlo runs with unreported seeds and
    standard errors comparable to the smallest entries, so the
    order-of-magnitude gate is one-sided with a standard-error allowance:
    empirical <= max(10 x published, published + 4 SE).  A wrong
    standardisation inflates the discrepancy by orders of magnitude and
    fails this gate; Monte Carlo noise does not.
    """
    violations = []
    t0 = time.perf_counter()
    for which, (model, theta0, paper_emp, paper_bounds) in {
        1: ("exp-canonical", 1.0, TABLE1_EMPIRICAL, TABLE1_BOUNDS),
        2: ("exp-noncanonical", 2.0, TABLE2_EMPIRICAL, TABLE2_BOUNDS),
    }.items():
        for n, pub_emp, pub_bound in zip(TABLE_NS, paper_emp, paper_bounds):
            rep = run_simulation(
                SimulationConfig(model=model, theta0=theta0, n=n, trials=10**4, seed=SEED)
            )
            print(
                f"  table {which} n={n}: empirical {rep.empirical_distance:.2e} "
                f"(published {pub_emp}), bound {rep.bound_total:.4f}"
            )
            if rep.empirical_distance > rep.bound_total:
                violations.append(
                    f"table {which} n={n}: empirical {rep.empirical_distance} > bound {rep.bound_total}"
                )
            gate = max(10.0 * pub_emp, pub_emp + 4.0 * rep.standard_error)
            if rep.empirical_distance > gate:
                violations.append(
                    f"table {which} n={n}: empirical {rep.empirical_distance} above magnitude gate {gate}"
                )
    elapsed_12 = time.perf_counter() - t0
    if elapsed_12 > 300.0:
        violations.append(f"tables 1-2 runtime {elapsed_12:.0f}s exceeds 300s")

    t0 = time.perf_counter()
    reports = run_mse_sweep(BetaParams(1.5, 1.0), BETA_NS, trials=10**3, seed=SEED)
    for rep, pub_mse, pub_bound in zip(reports, TABLE3_EMPIRICAL_MSE, TABLE3_BOUNDS):
        print(
            f"  table 3 n={rep.n}: empirical MSE {rep.empirical_mse:.2e} "
            f"(published {pub_mse}), bound {rep.bound_total:.4f}"
        )
        if rep.empirical_mse > rep.bound_total:
            violations.append(
                f"table 3 n={rep.n}: MSE {rep.empirical_mse} > bound {rep.bound_total}"
            )
        if not (pub_mse / 10.0 <= rep.empirical_mse <= 10.0 * pub_mse):
            violations.append(
                f"table 3 n={rep.n}: MSE {rep.empirical_mse} outside order of magnitude of {pub_mse}"
            )
    elapsed_3 = time.perf_counter() - t0
    if elapsed_3 > 120.0:
        violations.append(f"table 3 sweep runtime {elapsed_3:.0f}s exceeds 120s")

    _report(
        5,
        "stochastic dominance + empirical magnitudes",
        violations,
        f"(tables 1-2: {elapsed_12:.1f}s, table 3: {elapsed_3:.1f}s, seed {SEED})",
    )


def test_criterion_6_property_suites():
    violations = []

    # polygamma recurrences and identities to 1e-10
    for x in [10.0 ** (-2 + 6 * k / 12) for k in range(13)]:
        if abs(sm.polygamma(0, x + 1) - sm.polygamma(0, x) - 1.0 / x) > 1e-10 * max(
            1.0, 1.0 / x
        ):
            violations.append(f"digamma recurrence at x={x}")
        for m in (1, 2, 3):
            want = (-1.0) ** m * math.factorial(m) / x ** (m + 1)
            got = sm.polygamma(m, x + 1) - sm.polygamma(m, x)
            if abs(got - want) > 1e-10 * abs(want):
                violations.append(f"polygamma-{m} recurrence at x={x}")
    if abs(sm.polygamma(1, 0.5) - math.pi**2 / 2) > 1e-10 * math.pi**2 / 2:
        violations.append("trigamma half-integer identity")
    if abs(sm.polygamma(3, 0.5) - math.pi**4) > 1e-10 * math.pi**4:
        violations.append("order-3 polygamma half-integer identity")

    # perturbation interiority and sup gap
    spec = dict(a=0.0, b=1.0, c=2.0, n=10)
    for t in np.linspace(0.0, 1.0, 21):
        q = inward_map(**spec, x=float(t))
        if not (0.0 < q < 1.0):
            violations.append(f"perturbation not interior at x={t}")
    gap_a = abs(inward_map(**spec, x=0.0) - 0.0)
    gap_b = abs(inward_map(**spec, x=1.0) - 1.0)
    if abs(gap_a - 0.2) > 1e-12 or abs(gap_b - 0.2) > 1e-12:
        violations.append("sup perturbation gap is not c/n at the endpoints")

    # Poisson degenerate zero and the minimised constant
    if sm.poisson_bound(0.0, 50).total != 0.0:
        violations.append("poisson bound at theta0 = 0 is not exactly zero")
    auto = sm.poisson_bound(1.0, 100, "auto").total
    for c in (0.1, 1.0, 10.0):
        if auto > sm.poisson_bound(1.0, 100, c).total + 1e-12:
            violations.append(f"auto-c total exceeds total at c={c}")

    # beta MLE against the closed form and the grid oracle
    rng = np.random.default_rng(SEED)
    xs = rng.beta(1.5, 1.0, size=500)
    closed = -len(xs) / float(np.log(xs).sum())
    theta_hat = sm.get_model("beta", beta=1.0).mle_from_stat(math.fsum(np.log(xs)) / len(xs), len(xs))
    if abs(theta_hat - closed) > 1e-10 * closed:
        violations.append("beta MLE disagrees with the closed form at beta = 1")
    xs2 = rng.beta(1.2, 2.0, size=300)
    from scipy.special import gammaln

    grid = np.linspace(1e-4, 50.0, 10**6)
    loglik = len(xs2) * (gammaln(grid + 2.0) - gammaln(grid)) + (grid - 1.0) * float(
        np.log(xs2).sum()
    )
    best = float(grid[int(np.argmax(loglik))])
    theta_hat = sm.get_model("beta", beta=2.0).mle_from_stat(math.fsum(np.log(xs2)) / len(xs2), len(xs2))
    if abs(theta_hat - best) > float(grid[1] - grid[0]):
        violations.append("beta MLE disagrees with the grid-search oracle at beta = 2")

    # A1 solves its quadratic to 1e-9 relative
    ing = beta_ingredients(BetaParams(1.5, 1.0))
    for n in (7500, 8300):
        a1 = mse_upper_bound_a1(ing, n)
        dd = float(decimal_d1(ing, n))
        c_const = (
            1.0 + 2.0 / math.sqrt(n) * (2.0 + ing.third_abs_score_moment / ing.fisher_info**1.5)
        ) / (n * ing.fisher_info)
        if abs(dd * a1 * a1 - c_const) > 1e-9 * max(dd * a1 * a1, c_const):
            violations.append(f"A1 quadratic residual too large at n={n}")

    # conditioned-mean inequality for an increasing function, 3-sigma gate
    lhs, rhs, se, _ = conditioned_mean("exp-canonical", 1.0, 50, lambda m: m * m, 0.15, 4000, SEED)
    if lhs > rhs + 3.0 * se:
        violations.append("conditioned second moment exceeds unconditioned beyond 3 sigma")

    # Kolmogorov conversion: monotone with value 0 at 0
    if sm.kolmogorov_from_bw(0.0) != 0.0:
        violations.append("Kolmogorov conversion nonzero at zero")
    ks = [sm.kolmogorov_from_bw(b) for b in np.linspace(0.0, 5.0, 40)]
    if any(x > y + 1e-15 for x, y in zip(ks, ks[1:])):
        violations.append("Kolmogorov conversion not monotone")

    # conservative interval coverage >= 1 - alpha - 3 SE
    for alpha, n, trials in ((0.05, 1000, 400), (0.5, 10**6, 200)):
        res = ci_coverage("exp-canonical", 1.0, n, alpha, trials=trials, seed=SEED)
        se = math.sqrt(max(res.coverage * (1 - res.coverage), 1e-12) / trials)
        if res.coverage < 1.0 - alpha - 3.0 * se:
            violations.append(f"coverage {res.coverage} below 1 - {alpha} - 3 SE")

    # root-n rate: bound(4n)/bound(n) within 5% of 1/2 at n = 10^6
    for maker in (sm.exp_canonical_ingredients, sm.exp_noncanonical_ingredients):
        n = 10**6
        ratio = (
            sm.mle_bound_general(maker(1.0, 4 * n), (1.0, 1.0)).total
            / sm.mle_bound_general(maker(1.0, n), (1.0, 1.0)).total
        )
        if abs(ratio - 0.5) > 0.05 * 0.5:
            violations.append(f"rate ratio {ratio} not within 5% of 1/2")

    _report(6, "property suites", violations)


def test_criterion_7_reproducibility():
    violations = []
    outputs = []
    for repeat in range(2):
        for workers in (1, 2):
            cfg = SimulationConfig(
                model="exp-noncanonical",
                theta0=2.0,
                n=500,
                trials=600,
                seed=SEED,
                workers=workers,
            )
            outputs.append(run_simulation(cfg).csv_row())
    if len(set(outputs)) != 1:
        violations.append("CSV output differs across runs or worker counts")
    sweep1 = [r.csv_row() for r in run_mse_sweep(BetaParams(1.5, 1.0), [7500], trials=60, seed=SEED)]
    sweep2 = [
        r.csv_row()
        for r in run_mse_sweep(BetaParams(1.5, 1.0), [7500], trials=60, seed=SEED, workers=2)
    ]
    if sweep1 != sweep2:
        violations.append("MSE sweep CSV differs across worker counts")
    _report(7, "byte-identical seeded CSV output", violations)
