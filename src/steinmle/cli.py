"""Command-line front end.

Verbs: ``bound`` (term-by-term bound for one model/configuration), ``table``
(reproduce the three benchmark tables: deterministic bound columns plus
seeded empirical columns), ``simulate``, ``ci``, ``mse-sweep`` and
``constants`` (ingredient/constant audit).

One ``argparse`` parser, built at import, holds a subparser per verb.  Each
verb computes its result and returns it in all three formats: a JSON
payload, CSV rows and text lines; ``_emit`` prints the chosen one.

Exit codes: 0 success, 2 validation error, 3 numerical failure (a size too
large to allocate included).  With ``--format json`` errors are emitted as
JSON objects on stderr.  The default seed comes from the STEINMLE_SEED
environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, registry
from .errors import ConvergenceError, DomainError, SteinMLEError
from .expfam import exp_noncanonical_ingredients
from .msebound import BetaParams
from .steincore import inv_quadratic_test_function, kolmogorov_from_bw, score_bound

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# The options more than one verb takes, by flag.
_SHARED = {
    "--model": dict(choices=registry.MODEL_NAMES, required=True),
    "--theta0": dict(type=float, required=True),
    "--n": dict(type=int, required=True),
    "--beta": dict(type=float, default=1.0, help="Beta model's known shape (default %(default)s)"),
    "--epsilon": dict(type=float, help="exponential models' localisation radius (default theta0/2)"),
    "--c": dict(type=float, help="Poisson perturbation constant (default: minimise)"),
    "--trials": dict(type=int, default=10000, help="default %(default)s"),
    "--seed": dict(type=int, help="master seed (default: STEINMLE_SEED or 0)"),
    "--workers": dict(type=int, default=1, help="default %(default)s"),
}

# The empirical protocol's test function: sup norm 1/2, Lipschitz 3*sqrt(1.5)/16.
_TABLE_H = inv_quadratic_test_function()

_TABLE_SPECS = {
    1: {"model": "exp-canonical", "theta0": 1.0, "ns": [10, 100, 1000, 10000, 100000]},
    2: {"model": "exp-noncanonical", "theta0": 2.0, "ns": [10, 100, 1000, 10000, 100000]},
    3: {"model": "beta", "theta0": 1.5, "beta": 1.0, "ns": [7500, 7700, 7900, 8100, 8300]},
}


def _emit(fmt: str, payload: dict, csv_rows, text_lines):
    """Print a verb's result in the chosen format: the JSON payload on one
    line, the CSV rows comma-separated, or the text lines.  The rows and
    lines may be generators, so that only the chosen format is formatted."""
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        print("\n".join(",".join(row) for row in csv_rows))
    else:
        print("\n".join(text_lines))


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
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    sys.exit(code)


def _guard(fmt: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        _emit_error(fmt, exc, EXIT_VALIDATION)
    except (ConvergenceError, ArithmeticError) as exc:
        # overflow or division by zero at an extreme input is a numerical failure
        _emit_error(fmt, exc, EXIT_NUMERICAL)
    except MemoryError as exc:
        # named MemoryError, not numpy's subclass; a bare one has no message
        message = str(exc) or "not enough memory for the requested size"
        _emit_error(fmt, MemoryError(message), EXIT_NUMERICAL)
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
        raise DomainError(f"STEINMLE_SEED must be an integer, got {raw!r}") from exc


# allow_abbrev=False: an option is matched by its full name only.
_PARSER = argparse.ArgumentParser(
    prog="steinmle",
    description="Finite-sample normal-approximation bounds for MLEs.",
    allow_abbrev=False,
)
_PARSER.add_argument("--version", action="version", version=f"steinmle, version {__version__}")
_VERBS = _PARSER.add_subparsers(title="verbs", metavar="VERB", required=True)


def _verb(name: str, *options):
    """Register ``body`` as verb ``name``, with ``--format`` and the given
    options: each a flag of ``_SHARED``, or a flag and its ``add_argument``
    keywords.  The body returns its result as (JSON payload, CSV rows, text
    lines); ``main`` runs it, and ``_emit`` prints the chosen format, under
    ``_guard``."""

    def register(body):
        summary = body.__doc__.split("\n", 1)[0]
        verb = _VERBS.add_parser(name, help=summary, description=body.__doc__, allow_abbrev=False)
        for option in options:
            flag, spec = (option, _SHARED[option]) if isinstance(option, str) else option
            verb.add_argument(flag, **spec)
        verb.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text",
                          help="default %(default)s")
        verb.set_defaults(body=body)
        return body

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


@_verb("bound", "--model", "--theta0", "--n",
       ("--h-sup", dict(type=float, default=1.0,
                        help="sup-norm weight of the test function (default %(default)s)")),
       ("--h-lip", dict(type=float, default=1.0, help="Lipschitz-norm weight (default %(default)s)")),
       "--epsilon", "--c", "--beta")
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


@_verb("table", ("which", dict(type=int, choices=(1, 2, 3), metavar="WHICH")),
       "--trials", "--seed", "--workers")
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


@_verb("simulate", "--model", "--theta0", "--n", "--trials", "--seed", "--beta", "--epsilon", "--c",
       "--workers")
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


@_verb("ci", "--model", "--theta0", "--n",
       ("--alpha", dict(type=float, default=0.05, help="default %(default)s")),
       "--trials", "--seed", "--beta", "--workers")
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


@_verb("mse-sweep", ("--theta0", dict(type=float, default=1.5, help="default %(default)s")), "--beta",
       ("--n-from", dict(type=int, required=True)), ("--n-to", dict(type=int, required=True)),
       ("--n-step", dict(type=int, default=1, help="default %(default)s")), "--trials", "--seed", "--workers")
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


@_verb("constants", "--model", "--theta0",
       ("--n", dict(type=int, help="sample size for n-dependent quantities")), "--beta", "--epsilon")
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


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the verb named by ``args`` (default ``sys.argv[1:]``).

    A usage error exits 2, as a validation error does; a numerical failure
    exits 3 (see ``_guard``).  ``prog_name``, ``standalone_mode`` and
    ``main.main`` accept the calls of a click command,
    ``main.main(args=..., prog_name=..., standalone_mode=...)``, and change
    nothing: the program is always named steinmle, and every error exits.
    """
    options = vars(_PARSER.parse_args(args))
    body, fmt = options.pop("body"), options.pop("fmt")
    _guard(fmt, lambda: _emit(fmt, *body(**options)))


main.main = main
main.name = "steinmle"


if __name__ == "__main__":
    main()
