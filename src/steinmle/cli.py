"""Command-line front end.

Verbs: ``bound`` (term-by-term bound for one model/configuration), ``table``
(reproduce the three benchmark tables: deterministic bound columns plus
seeded empirical columns), ``simulate``, ``ci``, ``mse-sweep`` and
``constants`` (ingredient/constant audit).

Each verb computes its result and returns it in all three formats: a JSON
payload, CSV rows and text lines; ``_emit`` prints the chosen one.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  With
``--format json`` errors are emitted as JSON objects on stderr.  The default
seed comes from the STEINMLE_SEED environment variable when set.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import registry
from .errors import ConvergenceError, DomainError, SteinMLEError
from .expfam import exp_noncanonical_ingredients
from .msebound import BetaParams
from .steincore import inv_quadratic_test_function, kolmogorov_from_bw, score_bound

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_FORMATS = click.Choice(["text", "json", "csv"])
_MODELS = click.Choice(list(registry.MODEL_NAMES))

# The options more than one verb takes.
_MODEL = click.option("--model", type=_MODELS, required=True)
_THETA0 = click.option("--theta0", type=float, required=True)
_N = click.option("--n", type=int, required=True)
_BETA = click.option("--beta", type=float, default=1.0, show_default=True, help="Beta model's known shape")
_EPSILON = click.option("--epsilon", type=float, default=None, help="exponential models' localisation radius (default theta0/2)")
_C = click.option("--c", type=float, default=None, help="Poisson perturbation constant (default: minimise)")
_TRIALS = click.option("--trials", type=int, default=10000, show_default=True)
_SEED = click.option("--seed", type=int, default=None, help="master seed (default: STEINMLE_SEED or 0)")
_WORKERS = click.option("--workers", type=int, default=1, show_default=True)
_FORMAT = click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)

# The empirical protocol's test function: sup norm 1/2, Lipschitz 3*sqrt(1.5)/16.
_TABLE_H = inv_quadratic_test_function()

_TABLE_SPECS = {
    1: {"model": "exp-canonical", "theta0": 1.0, "ns": [10, 100, 1000, 10000, 100000]},
    2: {"model": "exp-noncanonical", "theta0": 2.0, "ns": [10, 100, 1000, 10000, 100000]},
    3: {"model": "beta", "theta0": 1.5, "beta": 1.0, "ns": [7500, 7700, 7900, 8100, 8300]},
}


def _echo(message: str, err: bool = False):
    """``click.echo`` to the current ``sys.stdout`` (``sys.stderr`` if err).

    Left to find the stream itself, click caches it in a weak-key table
    whose value, for an in-memory stream such as a redirected StringIO, is
    the key itself; that entry never dies and keeps every call's output.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _emit(fmt: str, payload: dict, csv_rows, text_lines):
    """Print a verb's result in the chosen format: the JSON payload on one
    line, the CSV rows comma-separated, or the text lines.  The rows and
    lines may be generators, so that only the chosen format is formatted."""
    if fmt == "json":
        _echo(json.dumps(payload))
    elif fmt == "csv":
        _echo("\n".join(",".join(row) for row in csv_rows))
    else:
        _echo("\n".join(text_lines))


def _harness():
    """The Monte Carlo harness, imported by the verbs that run it: it loads
    numpy, which the bound and constants verbs never need."""
    from .montecarlo import harness

    return harness


def _emit_error(fmt: str, exc: Exception, code: int):
    if fmt == "json":
        payload = {
            "schema": "steinmle/error/v1",
            "error": type(exc).__name__,
            "message": str(exc),
        }
        _echo(json.dumps(payload), err=True)
    else:
        _echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guard(fmt: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DomainError, click.UsageError) as exc:
        _emit_error(fmt, exc, EXIT_VALIDATION)
    except (ConvergenceError, ArithmeticError) as exc:
        # overflow or division by zero at an extreme input is a numerical failure
        _emit_error(fmt, exc, EXIT_NUMERICAL)
    except SteinMLEError as exc:
        _emit_error(fmt, exc, EXIT_VALIDATION)


def _seed(seed):
    """The given master seed, else STEINMLE_SEED, else 0."""
    if seed is not None:
        return seed
    import os

    raw = os.environ.get("STEINMLE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise click.UsageError(f"STEINMLE_SEED must be an integer, got {raw!r}") from exc


@click.group()
@click.version_option()
def main():
    """Finite-sample normal-approximation bounds for MLEs."""


def _verb(name: str):
    """Register ``body`` as verb ``name``.  The body returns its result as
    (JSON payload, CSV rows, text lines); it runs, and ``_emit`` prints the
    chosen format, under ``_guard``."""

    def register(body):
        @main.command(name)
        @functools.wraps(body)
        def command(fmt, **options):
            _guard(fmt, lambda: _emit(fmt, *body(**options)))

        return command

    return register


def _columns(headers, rows):
    """Text lines of left-aligned columns, two spaces apart, under a header."""
    rows = list(rows)
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0)) for i, h in enumerate(headers)]
    for row in [headers, *rows]:
        yield "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))


def _report_rows(mc, reports):
    """The simulation reports' CSV rows, under the fixed header."""
    yield mc.REPORT_CSV_COLUMNS
    for rep in reports:
        yield rep.csv_row()


@_verb("bound")
@_MODEL
@_THETA0
@_N
@click.option("--h-sup", type=float, default=1.0, show_default=True, help="sup-norm weight of the test function")
@click.option("--h-lip", type=float, default=1.0, show_default=True, help="Lipschitz-norm weight")
@_EPSILON
@_C
@_BETA
@_FORMAT
def cmd_bound(model, theta0, n, h_sup, h_lip, epsilon, c, beta):
    """Term-by-term distance bound and its Kolmogorov conversion.

    The exponential models weight each term by the given test-function
    norms; the poisson and beta closed forms absorb the norms at the class
    ceiling (sup <= 1, Lipschitz <= 1) and ignore the h options.  --epsilon
    applies to the exponential models only and --c to poisson only; given
    to another model, either is a validation error.
    """
    breakdown = registry.get_model(model, beta=beta).distance_bound(
        theta0, n, h_weights=(h_sup, h_lip), epsilon=epsilon, c="auto" if c is None else c
    )
    b_k = kolmogorov_from_bw(breakdown.total)
    payload = {
        "schema": "steinmle/bound/v1",
        "model": model,
        "theta0": theta0,
        "n": n,
        "h_sup": h_sup,
        "h_lip": h_lip,
        "breakdown": breakdown.to_dict(),
        "kolmogorov_bound": b_k,
    }
    csv_rows = [("label", "value"), *breakdown.to_csv_rows(), ("kolmogorov_bound", repr(b_k))]
    width = max(len(label) for label, _ in breakdown.terms)
    text = [
        f"{label:<{width}}  {value:.6g}"
        for label, value in (*breakdown.terms, ("total", breakdown.total), ("kolmogorov", b_k))
    ]
    return payload, csv_rows, text


def _direct_bound_column(n: int) -> float:
    """Table 2's extra column: the normalised-sum bound weighted by the h norms."""
    ing = exp_noncanonical_ingredients(2.0, n)
    return score_bound(ing, _TABLE_H.weights).total


@_verb("table")
@click.argument("which", type=click.IntRange(1, 3))
@_TRIALS
@_SEED
@_WORKERS
@_FORMAT
def cmd_table(which, trials, seed, workers):
    """Reproduce benchmark table WHICH (1, 2 or 3).

    Bound columns are deterministic; empirical columns are seeded Monte
    Carlo.  Table 2 carries the extra normalised-sum bound column; table 3
    compares the empirical MSE with its bound.
    """
    mc = _harness()
    spec = _TABLE_SPECS[which]
    seed = _seed(seed)
    if which == 3:
        reports = mc.run_mse_sweep(
            BetaParams(spec["theta0"], spec["beta"]),
            spec["ns"],
            trials=trials,
            seed=seed,
            workers=workers,
        )
    else:
        cfgs = [
            mc.SimulationConfig(
                model=spec["model"],
                theta0=spec["theta0"],
                n=n,
                trials=trials,
                seed=seed,
                test_function=_TABLE_H,
                workers=workers,
            )
            for n in spec["ns"]
        ]
        # the rows share h and theta0, so they share E h(Z)
        expected_h = mc.expected_h(cfgs[0])
        reports = [mc.run_simulation(cfg, expected_h=expected_h) for cfg in cfgs]
    payload = {
        "schema": "steinmle/table/v1",
        "table": which,
        "rows": [rep.to_dict() for rep in reports],
    }
    csv_rows = _report_rows(mc, reports)
    digits = 4 if which == 3 else 3
    headers = ["n", "empirical_mse" if which == 3 else "empirical", "bound", "error"]
    text_rows = (
        [str(rep.n), f"{rep.empirical:.4g}", f"{rep.bound_total:.{digits}f}", f"{rep.error:.4g}"]
        for rep in reports
    )
    if which == 2:
        direct = [_direct_bound_column(rep.n) for rep in reports]
        for row, value in zip(payload["rows"], direct):
            row["direct_bound"] = value
        csv_rows = (row + (cell,) for row, cell in zip(csv_rows, ["direct_bound", *map(repr, direct)]))
        headers.append("direct_bound")
        text_rows = (row + [f"{value:.3f}"] for row, value in zip(text_rows, direct))
    return payload, csv_rows, _columns(headers, text_rows)


@_verb("simulate")
@_MODEL
@_THETA0
@_N
@_TRIALS
@_SEED
@_BETA
@_EPSILON
@_C
@_WORKERS
@_FORMAT
def cmd_simulate(model, theta0, n, trials, seed, beta, epsilon, c, workers):
    """Empirical h-discrepancy and MSE for one configuration, with its bound."""
    mc = _harness()
    cfg = mc.SimulationConfig(
        model=model,
        theta0=theta0,
        n=n,
        trials=trials,
        seed=_seed(seed),
        beta=beta,
        epsilon=epsilon,
        c="auto" if c is None else c,
        workers=workers,
    )
    rep = mc.run_simulation(cfg)
    se = "n/a" if rep.standard_error is None else f"{rep.standard_error:.3g}"
    text = [
        f"model             {rep.model}",
        f"theta0            {rep.theta0:g}",
        f"n                 {rep.n}",
        f"trials            {rep.trials}",
        f"seed              {rep.seed}",
        f"empirical         {rep.empirical_distance:.6g}",
        f"empirical_mse     {rep.empirical_mse:.6g}",
        f"bound             {rep.bound_total:.6g}",
        f"error             {rep.error:.6g}",
        f"standard_error    {se}",
        f"backend           {rep.backend}",
    ]
    return rep.to_dict(), _report_rows(mc, [rep]), text


@_verb("ci")
@_MODEL
@_THETA0
@_N
@click.option("--alpha", type=float, default=0.05, show_default=True)
@_TRIALS
@_SEED
@_BETA
@_WORKERS
@_FORMAT
def cmd_ci(model, theta0, n, alpha, trials, seed, beta, workers):
    """Coverage of the conservative (Kolmogorov-widened) confidence interval."""
    res = _harness().ci_coverage(
        model, theta0, n, alpha, trials, seed=_seed(seed), beta=beta, workers=workers
    )
    payload = {
        "schema": "steinmle/coverage/v1",
        "model": model,
        "theta0": theta0,
        "n": n,
        "alpha": res.alpha,
        "trials": res.trials,
        "b_k": res.b_k,
        "degenerate": res.degenerate,
        "coverage": res.coverage,
    }
    csv_rows = [
        ("model", "theta0", "n", "alpha", "trials", "b_k", "degenerate", "coverage"),
        (model, repr(theta0), str(n), repr(alpha), str(res.trials), repr(res.b_k),
         str(res.degenerate), repr(res.coverage)),
    ]
    text = [
        f"b_k         {res.b_k:.6g}",
        f"degenerate  {res.degenerate}",
        f"coverage    {res.coverage:.4f}",
    ]
    return payload, csv_rows, text


@_verb("mse-sweep")
@click.option("--theta0", type=float, default=1.5, show_default=True)
@_BETA
@click.option("--n-from", type=int, required=True)
@click.option("--n-to", type=int, required=True)
@click.option("--n-step", type=int, default=1, show_default=True)
@_TRIALS
@_SEED
@_WORKERS
@_FORMAT
def cmd_mse_sweep(theta0, beta, n_from, n_to, n_step, trials, seed, workers):
    """Empirical estimator MSE against its bound over a Beta sample-size range."""
    if n_step < 1 or n_to < n_from:
        raise DomainError("need n-from <= n-to and n-step >= 1")
    ns = list(range(n_from, n_to + 1, n_step))
    mc = _harness()
    reports = mc.run_mse_sweep(
        BetaParams(theta0, beta), ns, trials=trials, seed=_seed(seed), workers=workers
    )
    payload = {
        "schema": "steinmle/table/v1",
        "table": "mse-sweep",
        "rows": [r.to_dict() for r in reports],
    }
    text_rows = (
        [str(r.n), f"{r.empirical_mse:.4g}", f"{r.bound_total:.4f}", f"{r.error:.4g}"]
        for r in reports
    )
    return payload, _report_rows(mc, reports), _columns(["n", "empirical_mse", "bound", "error"], text_rows)


@_verb("constants")
@_MODEL
@_THETA0
@click.option("--n", type=int, default=None, help="sample size for n-dependent quantities")
@_BETA
@_EPSILON
@_FORMAT
def cmd_constants(model, theta0, n, beta, epsilon):
    """Audit dump of a model's bound ingredients/constants."""
    entry = registry.get_model(model, beta=beta)
    if n is None and model != "beta":
        raise DomainError(f"{model}: --n is required for the audit")
    payload = {"schema": "steinmle/constants/v1", **entry.audit(theta0, n, epsilon)}
    flat = _flatten(payload)
    return payload, [("key", "value"), *((k, str(v)) for k, v in flat)], [f"{k} = {v}" for k, v in flat]


def _flatten(obj, prefix=""):
    """(dotted key, value) for every leaf of nested dicts and lists."""
    if not isinstance(obj, (dict, list)):
        return [(prefix, obj)]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    rows = []
    for k, v in items:
        rows.extend(_flatten(v, f"{prefix}{k}." if isinstance(v, (dict, list)) else f"{prefix}{k}"))
    return rows


if __name__ == "__main__":
    main()
