"""Command-line front end.

Verbs: ``bound`` (term-by-term bound for one model/configuration), ``table``
(reproduce the three benchmark tables: deterministic bound columns plus
seeded empirical columns), ``simulate``, ``ci``, ``mse-sweep`` and
``constants`` (ingredient/constant audit).

One ``argparse`` parser, built at import, holds a subparser per verb.  Each
verb computes its result and returns it in all three formats: a JSON
payload, CSV rows and text lines; ``_emit`` prints the chosen one.

Exit codes: 0 success, 2 validation error, 3 numerical failure (a size too
large to allocate included), and 141 when stdout is closed before the
output is written (as by ``| head -1``): the code a shell gives a process
killed by SIGPIPE, here with no traceback.  With ``--format json`` errors
are emitted as JSON objects on stderr.  The default seed comes from the
STEINMLE_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, registry
from ._validate import master_seed
from .errors import ConvergenceError, DomainError, FloatRangeError, SteinMLEError
from .msebound import BetaParams
from .steincore import TERM_SCORE, kolmogorov_from_bw

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

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

_TABLE_SPECS = {
    1: {"model": "exp-canonical", "theta0": 1.0, "ns": [10, 100, 1000, 10000, 100000]},
    2: {"model": "exp-noncanonical", "theta0": 2.0, "ns": [10, 100, 1000, 10000, 100000]},
    3: {"model": "beta", "theta0": 1.5, "beta": 1.0, "ns": [7500, 7700, 7900, 8100, 8300]},
}


def _emit(fmt: str, payload: dict, csv_rows, text_lines):
    """Print a verb's result in the chosen format: the JSON payload on one
    line, the CSV rows comma-separated, or the text lines.  The rows and
    lines may be generators, so that only the chosen format is formatted.
    The JSON is strict: an infinity or NaN in the payload, which it cannot
    carry, is a FloatRangeError.  ``json`` is imported here, so that text
    and CSV output never load it."""
    if fmt == "json":
        import json

        try:
            text = json.dumps(payload, allow_nan=False)
        except ValueError as exc:
            raise FloatRangeError(f"an output value is not finite, so not JSON: {exc}") from exc
        print(text)
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
        import json

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
    """The given master seed, else STEINMLE_SEED, else 0, checked as the
    harness checks it."""
    if seed is not None:
        return master_seed(seed)
    import os

    raw = os.environ.get("STEINMLE_SEED")
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"STEINMLE_SEED must be an integer, got {raw!r}") from exc
    return master_seed(value, "STEINMLE_SEED")


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


def _report_table(mc, table, reports, direct=None):
    """A table of reports as (JSON payload named ``table``, CSV rows, text
    columns).  MSE rows print their bound to four digits under
    ``empirical_mse``, distance rows to three under ``empirical``; ``direct``
    adds table 2's normalised-sum bound column, one value a row."""
    mse = reports[0].target == "mse"
    rows = [rep.to_dict() for rep in reports]
    csv_rows = _report_rows(mc, reports)
    headers = ["n", "empirical_mse" if mse else "empirical", "bound", "error"]
    text_rows = (
        [str(rep.n), f"{rep.empirical:.4g}", f"{rep.bound_total:.{4 if mse else 3}f}", f"{rep.error:.4g}"]
        for rep in reports
    )
    if direct is not None:
        for row, value in zip(rows, direct):
            row["direct_bound"] = value
        csv_rows = (row + (cell,) for row, cell in zip(csv_rows, ["direct_bound", *map(repr, direct)]))
        headers.append("direct_bound")
        text_rows = (row + [f"{value:.3f}"] for row, value in zip(text_rows, direct))
    payload = {"schema": "steinmle/table/v1", "table": table, "rows": rows}
    return payload, csv_rows, _columns(headers, text_rows)


@_verb("bound", "--model", "--theta0", "--n",
       ("--h-sup", dict(type=float, default=1.0,
                        help="sup-norm weight of the test function (default %(default)s)")),
       ("--h-lip", dict(type=float, default=1.0, help="Lipschitz-norm weight (default %(default)s)")),
       "--epsilon", "--c", "--beta")
def cmd_bound(model, theta0, n, h_sup, h_lip, epsilon, c, beta):
    """Term-by-term distance bound and its Kolmogorov conversion.

    The exponential models weight each term by the given test-function
    norms.  The poisson and beta closed forms are unit-weight totals: they
    cover every h with sup norm <= 1 and Lipschitz constant <= 1, the class
    of the h_weights convention in steinmle.steincore, so they do not read
    the h options, and a weight above 1 is a validation error.  The
    Kolmogorov distance does not depend on h, so its bound converts the
    unit-weight total whatever the h options, against the normal the
    model targets: 2 sqrt(total) for N(0, 1), and for poisson's N(0, theta0)
    the larger of that and sqrt(2 C total), C = (2 pi theta0)^(-1/2).
    --epsilon applies to the exponential models only and --c to poisson
    only; given to another model, either is a validation error.
    """
    entry = registry.get_model(model, beta=beta)
    c = "auto" if c is None else c
    breakdown = entry.distance_bound(theta0, n, h_weights=(h_sup, h_lip), epsilon=epsilon, c=c)
    unit = breakdown
    if entry.uses_h_weights and (h_sup, h_lip) != (1.0, 1.0):
        unit = entry.distance_bound(theta0, n, h_weights=(1.0, 1.0), epsilon=epsilon, c=c)
    b_k = kolmogorov_from_bw(unit.total, entry.target_sigma(theta0))
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
        params = BetaParams(spec["theta0"], spec["beta"])
        reports = mc.run_mse_sweep(params, spec["ns"], trials=trials, seed=seed, workers=workers)
    else:
        cfg = mc.SimulationConfig(spec["model"], spec["theta0"], spec["ns"][0], trials, seed,
                                  workers=workers)
        reports = mc.run_rows(cfg, spec["ns"])
    # table 2's normalised-sum bound weighted by the h norms: the distance bound's score term
    direct = [dict(rep.bound_terms.terms)[TERM_SCORE] for rep in reports] if which == 2 else None
    return _report_table(mc, which, reports, direct)


@_verb("simulate", "--model", "--theta0", "--n", "--trials", "--seed", "--beta", "--epsilon", "--c",
       "--workers")
def cmd_simulate(model, theta0, n, trials, seed, beta, epsilon, c, workers):
    """Empirical h-discrepancy and MSE for one configuration, with its bound."""
    mc = _harness()
    cfg = mc.SimulationConfig(model, theta0, n, trials, _seed(seed), beta=beta, epsilon=epsilon,
                              c="auto" if c is None else c, workers=workers)
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
    """Coverage of the conservative (Kolmogorov-widened) confidence interval.

    Where b_k >= alpha/2 the interval is the whole line (degenerate): no
    trial is drawn, the coverage 1.0 is exact, and --trials is refused only
    from 2^60, so a count that simulate could not allocate still runs.
    """
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
    return _report_table(mc, "mse-sweep", reports)


@_verb("constants", "--model", "--theta0",
       ("--n", dict(type=int, help="sample size for n-dependent quantities")), "--beta", "--epsilon")
def cmd_constants(model, theta0, n, beta, epsilon):
    """Audit dump of a model's bound ingredients/constants.

    The exp-canonical fourth estimator moment does not exist below n = 5,
    and the deterministic Taylor route never uses it: it prints as null in
    JSON and None in text and CSV.
    """
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


def _parse(args):
    """The options of the verb that ``args`` names.

    A known verb's own parser reads the arguments after it, which skips the
    top-level parser's pass over them; what it does not recognise is
    refused through the top-level parser, as a full parse refuses it.
    Anything else (-h, --version, no verb or an unknown one) is a full
    parse, so usage, messages and exit codes are those of ``_PARSER``.
    """
    verb = _VERBS.choices.get(args[0]) if args else None
    if verb is None:
        return _PARSER.parse_args(args)
    options, extra = verb.parse_known_args(args[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return options


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the verb named by ``args`` (default ``sys.argv[1:]``).

    A usage error exits 2, as a validation error does; a numerical failure
    exits 3 (see ``_guard``); a closed stdout exits 141, pointed at devnull
    so that the interpreter's last flush fails no more.  ``prog_name``,
    ``standalone_mode`` and ``main.main`` accept the calls of a click
    command, ``main.main(args=..., prog_name=..., standalone_mode=...)``, and
    change nothing: the program is always named steinmle, and every error
    exits.
    """
    try:
        options = vars(_parse(sys.argv[1:] if args is None else list(args)))
        body, fmt = options.pop("body"), options.pop("fmt")
        _guard(fmt, lambda: _emit(fmt, *body(**options)))
        sys.stdout.flush()  # here, so that a closed pipe fails inside the try
    except BrokenPipeError:
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(EXIT_BROKEN_PIPE)


main.main = main


if __name__ == "__main__":
    main()
