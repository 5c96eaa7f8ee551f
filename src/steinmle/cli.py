"""Command-line front end.

Verbs: ``bound`` (term-by-term bound for one model/configuration), ``table``
(reproduce the three benchmark tables: deterministic bound columns plus
seeded empirical columns), ``simulate``, ``ci``, ``mse-sweep`` and
``constants`` (ingredient/constant audit).

Exit codes: 0 success, 2 validation error, 3 numerical failure.  With
``--format json`` errors are emitted as JSON objects on stderr.  The default
seed comes from the STEINMLE_SEED environment variable when set.
"""

from __future__ import annotations

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

# The empirical protocol's test function: sup norm 1/2, Lipschitz 3*sqrt(1.5)/16.
_TABLE_H = inv_quadratic_test_function()

_TABLE_SPECS = {
    1: {"model": "exp-canonical", "theta0": 1.0, "ns": [10, 100, 1000, 10000, 100000]},
    2: {"model": "exp-noncanonical", "theta0": 2.0, "ns": [10, 100, 1000, 10000, 100000]},
    3: {"model": "beta", "theta0": 1.5, "beta": 1.0, "ns": [7500, 7700, 7900, 8100, 8300]},
}


def _echo(message: str, nl: bool = True, err: bool = False):
    """``click.echo`` to the current ``sys.stdout`` (``sys.stderr`` if err).

    Left to find the stream itself, click caches it in a weak-key table
    whose value, for an in-memory stream such as a redirected StringIO, is
    the key itself; that entry never dies and keeps every call's output.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


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


def _seed_default() -> int:
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


@main.command("bound")
@click.option("--model", type=_MODELS, required=True)
@click.option("--theta0", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--h-sup", type=float, default=1.0, show_default=True, help="sup-norm weight of the test function")
@click.option("--h-lip", type=float, default=1.0, show_default=True, help="Lipschitz-norm weight")
@click.option("--epsilon", type=float, default=None, help="exponential models' localisation radius (default theta0/2)")
@click.option("--c", type=float, default=None, help="Poisson perturbation constant (default: minimise)")
@click.option("--beta", type=float, default=1.0, show_default=True, help="Beta model's known shape")
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_bound(model, theta0, n, h_sup, h_lip, epsilon, c, beta, fmt):
    """Term-by-term distance bound and its Kolmogorov conversion.

    The exponential models weight each term by the given test-function
    norms; the poisson and beta closed forms absorb the norms at the class
    ceiling (sup <= 1, Lipschitz <= 1) and ignore the h options.  --epsilon
    applies to the exponential models only and --c to poisson only; given
    to another model, either is a validation error.
    """

    def run():
        entry = registry.get_model(model, beta=beta)
        breakdown = entry.distance_bound(
            theta0, n, h_weights=(h_sup, h_lip), epsilon=epsilon, c="auto" if c is None else c
        )
        b_k = kolmogorov_from_bw(breakdown.total)
        if fmt == "json":
            _echo(
                json.dumps(
                    {
                        "schema": "steinmle/bound/v1",
                        "model": model,
                        "theta0": theta0,
                        "n": n,
                        "h_sup": h_sup,
                        "h_lip": h_lip,
                        "breakdown": breakdown.to_dict(),
                        "kolmogorov_bound": b_k,
                    }
                )
            )
        elif fmt == "csv":
            _echo("label,value")
            for label, value in breakdown.to_csv_rows():
                _echo(f"{label},{value}")
            _echo(f"kolmogorov_bound,{b_k!r}")
        else:
            width = max(len(label) for label, _ in breakdown.terms)
            for label, value in breakdown.terms:
                _echo(f"{label:<{width}}  {value:.6g}")
            _echo(f"{'total':<{width}}  {breakdown.total:.6g}")
            _echo(f"{'kolmogorov':<{width}}  {b_k:.6g}")

    _guard(fmt, run)


def _direct_bound_column(n: int) -> float:
    """Table 2's extra column: the normalised-sum bound weighted by the h norms."""
    ing = exp_noncanonical_ingredients(2.0, n)
    return score_bound(ing, _TABLE_H.weights).total


def _render_reports_text(rows, headers):
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


@main.command("table")
@click.argument("which", type=click.IntRange(1, 3))
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=None, help="master seed (default: STEINMLE_SEED or 0)")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_table(which, trials, seed, workers, fmt):
    """Reproduce benchmark table WHICH (1, 2 or 3).

    Bound columns are deterministic; empirical columns are seeded Monte
    Carlo.  Table 2 carries the extra normalised-sum bound column; table 3
    compares the empirical MSE with its bound.
    """

    def run():
        mc = _harness()
        spec = _TABLE_SPECS[which]
        seed_val = _seed_default() if seed is None else seed
        if which == 3:
            reports = mc.run_mse_sweep(
                BetaParams(spec["theta0"], spec["beta"]),
                spec["ns"],
                trials=trials,
                seed=seed_val,
                workers=workers,
            )
        else:
            cfgs = [
                mc.SimulationConfig(
                    model=spec["model"],
                    theta0=spec["theta0"],
                    n=n,
                    trials=trials,
                    seed=seed_val,
                    test_function=_TABLE_H,
                    workers=workers,
                )
                for n in spec["ns"]
            ]
            # the rows share h and theta0, so they share E h(Z)
            expected_h = mc.expected_h(cfgs[0])
            reports = [mc.run_simulation(cfg, expected_h=expected_h) for cfg in cfgs]
        if fmt == "json":
            payload = {
                "schema": "steinmle/table/v1",
                "table": which,
                "rows": [rep.to_dict() for rep in reports],
            }
            if which == 2:
                for row, rep in zip(payload["rows"], reports):
                    row["direct_bound"] = _direct_bound_column(rep.n)
            _echo(json.dumps(payload))
        elif fmt == "csv":
            if which == 2:
                _echo(",".join(mc.REPORT_CSV_COLUMNS + ("direct_bound",)))
                for rep in reports:
                    _echo(",".join(rep.csv_row() + (repr(_direct_bound_column(rep.n)),)))
            else:
                _echo(mc.reports_to_csv(reports), nl=False)
        else:
            digits = 4 if which == 3 else 3
            headers = ["n", "empirical_mse" if which == 3 else "empirical", "bound", "error"]
            if which == 2:
                headers.append("direct_bound")
            rows = []
            for rep in reports:
                row = [
                    str(rep.n),
                    f"{rep.empirical:.4g}",
                    f"{rep.bound_total:.{digits}f}",
                    f"{rep.error:.4g}",
                ]
                if which == 2:
                    row.append(f"{_direct_bound_column(rep.n):.3f}")
                rows.append(row)
            _echo(_render_reports_text(rows, headers))

    _guard(fmt, run)


@main.command("simulate")
@click.option("--model", type=_MODELS, required=True)
@click.option("--theta0", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=None, help="master seed (default: STEINMLE_SEED or 0)")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--c", type=float, default=None, help="Poisson perturbation constant (default: minimise)")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_simulate(model, theta0, n, trials, seed, beta, epsilon, c, workers, fmt):
    """Empirical h-discrepancy and MSE for one configuration, with its bound."""

    def run():
        mc = _harness()
        cfg = mc.SimulationConfig(
            model=model,
            theta0=theta0,
            n=n,
            trials=trials,
            seed=_seed_default() if seed is None else seed,
            beta=beta,
            epsilon=epsilon,
            c="auto" if c is None else c,
            workers=workers,
        )
        rep = mc.run_simulation(cfg)
        if fmt == "json":
            _echo(json.dumps(rep.to_dict()))
        elif fmt == "csv":
            _echo(mc.reports_to_csv([rep]), nl=False)
        else:
            _echo(f"model             {rep.model}")
            _echo(f"theta0            {rep.theta0:g}")
            _echo(f"n                 {rep.n}")
            _echo(f"trials            {rep.trials}")
            _echo(f"seed              {rep.seed}")
            _echo(f"empirical         {rep.empirical_distance:.6g}")
            _echo(f"empirical_mse     {rep.empirical_mse:.6g}")
            _echo(f"bound             {rep.bound_total:.6g}")
            _echo(f"error             {rep.error:.6g}")
            se = "n/a" if rep.standard_error is None else f"{rep.standard_error:.3g}"
            _echo(f"standard_error    {se}")
            _echo(f"backend           {rep.backend}")

    _guard(fmt, run)


@main.command("ci")
@click.option("--model", type=_MODELS, required=True)
@click.option("--theta0", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=None, help="master seed (default: STEINMLE_SEED or 0)")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_ci(model, theta0, n, alpha, trials, seed, beta, workers, fmt):
    """Coverage of the conservative (Kolmogorov-widened) confidence interval."""

    def run():
        res = _harness().ci_coverage(
            model,
            theta0,
            n,
            alpha,
            trials,
            seed=_seed_default() if seed is None else seed,
            beta=beta,
            workers=workers,
        )
        if fmt == "json":
            _echo(
                json.dumps(
                    {
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
                )
            )
        elif fmt == "csv":
            _echo("model,theta0,n,alpha,trials,b_k,degenerate,coverage")
            _echo(
                f"{model},{theta0!r},{n},{alpha!r},{res.trials},"
                f"{res.b_k!r},{res.degenerate},{res.coverage!r}"
            )
        else:
            _echo(f"b_k         {res.b_k:.6g}")
            _echo(f"degenerate  {res.degenerate}")
            _echo(f"coverage    {res.coverage:.4f}")

    _guard(fmt, run)


@main.command("mse-sweep")
@click.option("--theta0", type=float, default=1.5, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--n-from", type=int, required=True)
@click.option("--n-to", type=int, required=True)
@click.option("--n-step", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=None, help="master seed (default: STEINMLE_SEED or 0)")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_mse_sweep(theta0, beta, n_from, n_to, n_step, trials, seed, workers, fmt):
    """Empirical estimator MSE against its bound over a Beta sample-size range."""

    def run():
        if n_step < 1 or n_to < n_from:
            raise DomainError("need n-from <= n-to and n-step >= 1")
        ns = list(range(n_from, n_to + 1, n_step))
        mc = _harness()
        reports = mc.run_mse_sweep(
            BetaParams(theta0, beta),
            ns,
            trials=trials,
            seed=_seed_default() if seed is None else seed,
            workers=workers,
        )
        if fmt == "json":
            _echo(
                json.dumps(
                    {"schema": "steinmle/table/v1", "table": "mse-sweep", "rows": [r.to_dict() for r in reports]}
                )
            )
        elif fmt == "csv":
            _echo(mc.reports_to_csv(reports), nl=False)
        else:
            rows = [
                [str(r.n), f"{r.empirical_mse:.4g}", f"{r.bound_total:.4f}", f"{r.error:.4g}"]
                for r in reports
            ]
            _echo(_render_reports_text(rows, ["n", "empirical_mse", "bound", "error"]))

    _guard(fmt, run)


@main.command("constants")
@click.option("--model", type=_MODELS, required=True)
@click.option("--theta0", type=float, required=True)
@click.option("--n", type=int, default=None, help="sample size for n-dependent quantities")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
def cmd_constants(model, theta0, n, beta, epsilon, fmt):
    """Audit dump of a model's bound ingredients/constants."""

    def run():
        entry = registry.get_model(model, beta=beta)
        if n is None and model != "beta":
            raise DomainError(f"{model}: --n is required for the audit")
        payload = {"schema": "steinmle/constants/v1", **entry.audit(theta0, n, epsilon)}
        if fmt == "json":
            _echo(json.dumps(payload))
        elif fmt == "csv":
            flat = _flatten(payload)
            _echo("key,value")
            for k, v in flat:
                _echo(f"{k},{v}")
        else:
            for k, v in _flatten(payload):
                _echo(f"{k} = {v}")

    _guard(fmt, run)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if isinstance(v, (dict, list)) else f"{prefix}{k}"))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}." if isinstance(v, (dict, list)) else f"{prefix}{i}"))
    else:
        rows.append((prefix, obj))
    return rows


if __name__ == "__main__":
    main()
