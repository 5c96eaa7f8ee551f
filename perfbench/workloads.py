"""The benchmark's three workloads: inputs from the seed, one pass, checks.

A pass is the workload's fixed work, timed unit by unit (one CLI invocation,
or one bound evaluation).  Every pass of a run repeats the same inputs, so
its outputs must repeat byte for byte.  An operation is one table row, one
``simulate`` call or one bound evaluation.

* ``large-n``: ``steinmle table 1|2|3`` and a Beta(1.5, 2) ``mse-sweep`` at
  three n >= its minimal n 11848; trials keep the paper's 10:10:1 ratio.
* ``small-n``: ``steinmle simulate`` rows with many trials at n in {5, 20,
  50} for exp-canonical, exp-noncanonical and Poisson on both sides of the
  inversion/PTRS cut.
* ``bound-grid``: a seeded grid of bound evaluations over all four models,
  as ``steinmle bound`` computes them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time

from steinmle import registry
from steinmle.cli import main as cli_main
from steinmle.expfam import exp_noncanonical_ingredients
from steinmle.msebound import BetaParams, beta_ingredients, minimal_n
from steinmle.steincore import inv_quadratic_test_function, kolmogorov_from_bw, score_bound

from checks import (
    BETA_15_1_MINIMAL_N,
    PUBLISHED,
    PUBLISHED_DIRECT,
    check_row,
    check_total,
)

_clock = time.perf_counter_ns

# Trial-count multiplier t per size: tables 1-2 run 10 t trials, table 3 and
# the Beta(1.5, 2) sweep run t.  A small t keeps each invocation short, so
# that a run holds many passes and each invocation many timings.
LARGE_N_T = {"normal": 5, "tiny": 2}
SMALL_N_TRIALS = {"normal": 500, "tiny": 20}
# Bound evaluations per grid pass, by model.  Two thirds are exponential
# (~20 us each) so the median lies inside that group; the rest cost ~0.4 ms
# and set the p99.
GRID_COUNTS = {
    "normal": {"exp-canonical": 1000, "exp-noncanonical": 1000, "poisson": 500, "beta": 500},
    "tiny": {"exp-canonical": 20, "exp-noncanonical": 20, "poisson": 10, "beta": 10},
}
# On large-n and small-n every row bound is timed this many times after each
# CLI invocation; the best of them is one latency sample.
BOUND_REPEATS = {"normal": 3, "tiny": 1}
# Fresh interpreters of each kind (bare import, first call) per run.
FRESH_STARTS = {"normal": 8, "tiny": 1}

TABLE_NS = {1: [10, 100, 1000, 10000, 100000], 2: [10, 100, 1000, 10000, 100000],
            3: [7500, 7700, 7900, 8100, 8300]}
SWEEP = {"theta0": 1.5, "beta": 2.0, "ns": [11848, 12848, 13848]}
SMALL_N_MODELS = [("exp-canonical", 1.0), ("exp-noncanonical", 2.0),
                  ("poisson", 0.5), ("poisson", 5.0), ("poisson", 60.0)]
SMALL_N_NS = [5, 20, 50]

# The bound-grid lattice.  Reference totals for every point are recorded in
# reference_bounds.json, so any seed draws checkable points.
GRID_THETA = [10.0 ** (k / 2) for k in range(-4, 5)]
GRID_N = [int(round(10.0 ** (j / 2))) for j in range(2, 13)]
GRID_WEIGHTS = [(1.0, 1.0), (0.5, 3.0 * math.sqrt(1.5) / 16.0), (0.25, 0.5), (1.0, 0.1)]
GRID_BETA_THETA = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
GRID_BETA_SHAPE = [0.5, 1.0, 2.0, 4.0]
GRID_BETA_OFFSET = [0, 1, 10, 300, 10000, 150000]


# (sup, Lipschitz) norms of the tables' test function h(x) = 1/(x^2 + 2).
TABLE_H_WEIGHTS = inv_quadratic_test_function().weights


# -- bound evaluations shared by the grid, the row-bound phase and the
#    reference recorder ------------------------------------------------------


def bound_key(kind, model, theta0, n, beta, weights):
    return f"{kind}|{model}|{theta0!r}|{n}|{beta!r}|{weights[0]!r},{weights[1]!r}"


def evaluate_bound(kind, model, theta0, n, beta, weights):
    """(total, kolmogorov or None) of one bound evaluation.

    ``distance`` is what ``steinmle bound`` computes; ``mse`` is the Beta
    MSE bound of table 3 and ``mse-sweep``; ``direct`` is table 2's
    normalised-sum column.
    """
    if kind == "distance":
        total = registry.get_model(model, beta=beta).distance_bound(
            theta0, n, h_weights=weights, c="auto"
        ).total
        return total, kolmogorov_from_bw(total)
    if kind == "mse":
        return registry.get_model(model, beta=beta).mse_bound(theta0, n), None
    if kind == "direct":
        return score_bound(exp_noncanonical_ingredients(theta0, n), weights).total, None
    raise ValueError(kind)


def time_bounds(ops):
    """Time each bound evaluation: (latencies_ns, [(op, total, kolmogorov) or (op, error)])."""
    lat, outputs = [], []
    for op in ops:
        t0 = _clock()
        try:
            total, kol = evaluate_bound(*op)
        except Exception as exc:  # an operation that raises counts as failed
            lat.append(_clock() - t0)
            outputs.append((op, f"raised {type(exc).__name__}: {exc}"))
            continue
        lat.append(_clock() - t0)
        outputs.append((op, total, kol))
    return lat, outputs


def check_bounds(outputs, reference):
    """One message per failed bound evaluation."""
    failures = []
    for out in outputs:
        key = bound_key(*out[0])
        bad = [out[1]] if len(out) == 2 else check_total(out[1], out[2], reference.get(key))
        if bad:
            failures.append(f"{key}: " + "; ".join(bad))
    return failures


# -- CLI invocation ----------------------------------------------------------


def run_cli(args, tracer=None):
    """Run one ``steinmle`` verb in-process: (stdout text, error or None)."""
    buf = io.StringIO()
    call = cli_main.main
    if tracer is not None:
        call = tracer.wrap(call, "cli")
    try:
        with contextlib.redirect_stdout(buf):
            call(args=list(args), prog_name="steinmle", standalone_mode=False)
    except SystemExit as exc:
        return buf.getvalue(), f"exit {exc.code}"
    except Exception as exc:  # an operation that raises counts as failed
        return buf.getvalue(), f"raised {type(exc).__name__}: {exc}"
    return buf.getvalue(), None


class CliWorkload:
    """A workload made of CLI invocations whose JSON output lists report rows."""

    name = ""

    def __init__(self, seed, size, reference):
        self.seed = seed
        self.size = size
        self.reference = reference
        self.invocations = []  # (args, [row spec, ...])

    @property
    def ops_per_pass(self):
        return sum(len(specs) for _, specs in self.invocations)

    # Units of a pass whose times are bound-evaluation latencies: none here.
    bound_units = slice(0, 0)

    def run_pass(self, tracer=None, between=None):
        """One pass: (outputs, time in ns of each unit of work), a unit per invocation.

        ``between()`` runs untimed after each invocation.
        """
        outputs, unit_ns = [], []
        for args, _ in self.invocations:
            t0 = _clock()
            outputs.append(run_cli(args, tracer))
            unit_ns.append(_clock() - t0)
            if between is not None:
                between()
        return outputs, unit_ns

    def check_pass(self, outputs):
        """One message per failed row."""
        failures = []
        for (args, specs), (text, err) in zip(self.invocations, outputs):
            failures.extend(self.check_invocation(args, specs, text, err))
        return failures

    def check_invocation(self, args, specs, text, err):
        """One message per failed row of one invocation's output."""
        label = _label(args)
        rows = None
        if err is None:
            try:
                payload = json.loads(text)
                rows = payload["rows"] if "rows" in payload else [payload]
            except (ValueError, KeyError, TypeError) as exc:
                err = f"unparseable output: {exc}"
        if err is None and len(rows) != len(specs):
            err = f"{len(rows)} rows, expected {len(specs)}"
        if err is not None:
            return [f"{label}: {err}" for _ in specs]
        failures = []
        for row, spec in zip(rows, specs):
            bad = check_row(row, spec)
            if not bad:
                ref = self.reference.get(bound_key(*spec["bound_op"]))
                bad = check_total(row["bound_total"], None, ref)
            if bad:
                failures.append(f"{label} n={spec['n']}: " + "; ".join(bad))
        return failures

    def first_call(self):
        """(arguments, check) of the small invocation a fresh interpreter runs.

        ``check(stdout)`` returns one message per failed row.
        """
        args, specs = self.small_invocation()
        return args, lambda text: self.check_invocation(args, specs, text, None)

    def bound_ops(self):
        """Each distinct bound evaluation behind the workload's rows."""
        ops = [spec["bound_op"] for _, specs in self.invocations for spec in specs]
        ops += self.extra_bound_ops()
        return list(dict.fromkeys(ops))

    def extra_bound_ops(self):
        return []

    def rerun(self, first_outputs):
        """Rerun the first invocation; its output must repeat byte for byte."""
        text, err = run_cli(self.invocations[0][0])
        if err is not None:
            return f"rerun: {err}"
        if text != first_outputs[0][0]:
            return "rerun of a seeded invocation changed its output"
        return None

    def output_weights(self):
        """Operations behind each pass output."""
        return [len(specs) for _, specs in self.invocations]

    def trial_counts(self):
        return {_label(args): specs[0]["trials"] for args, specs in self.invocations}


def _label(args):
    """An invocation's arguments without trials, seed and format."""
    drop = {"--trials", "--seed", "--format"}
    return " ".join(a for a, prev in zip(args, [None] + list(args)) if a not in drop and prev not in drop)


def _spec(model, theta0, n, trials, seed, beta, target, bound_op, **extra):
    return dict(model=model, theta0=theta0, n=n, trials=trials, seed=seed, beta=beta,
                target=target, bound_op=bound_op, **extra)


def _table_invocation(which, trials, seed):
    """(args, row specs) of ``steinmle table 1`` or ``table 2``."""
    model, theta0 = {1: ("exp-canonical", 1.0), 2: ("exp-noncanonical", 2.0)}[which]
    values, tol = PUBLISHED[which]
    specs = []
    for i, n in enumerate(TABLE_NS[which]):
        extra = {"published": (values[i], tol)}
        if which == 2:
            extra["direct"] = (PUBLISHED_DIRECT[0][i], PUBLISHED_DIRECT[1])
        specs.append(_spec(model, theta0, n, trials, seed, 1.0, "distance",
                           ("distance", model, theta0, n, 1.0, TABLE_H_WEIGHTS), **extra))
    return ["table", str(which), "--trials", str(trials), "--seed", str(seed), "--format", "json"], specs


def _simulate_invocation(model, theta0, n, trials, seed):
    """(args, row specs) of one ``steinmle simulate`` call."""
    return (["simulate", "--model", model, "--theta0", repr(theta0), "--n", str(n),
             "--trials", str(trials), "--seed", str(seed), "--format", "json"],
            [_spec(model, theta0, n, trials, seed, 1.0, "distance",
                   ("distance", model, theta0, n, 1.0, TABLE_H_WEIGHTS))])


class LargeN(CliWorkload):
    name = "large-n"

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        t = LARGE_N_T[size]
        w = TABLE_H_WEIGHTS
        s = str(seed)
        for which in (1, 2):
            self.invocations.append(_table_invocation(which, 10 * t, seed))
        values, tol = PUBLISHED[3]
        self.invocations.append((
            ["table", "3", "--trials", str(t), "--seed", s, "--format", "json"],
            [_spec("beta", 1.5, n, t, seed, 1.0, "mse", ("mse", "beta", 1.5, n, 1.0, w),
                   published=(values[i], tol)) for i, n in enumerate(TABLE_NS[3])]))
        ns = SWEEP["ns"]
        self.invocations.append((
            ["mse-sweep", "--theta0", repr(SWEEP["theta0"]), "--beta", repr(SWEEP["beta"]),
             "--n-from", str(ns[0]), "--n-to", str(ns[-1]), "--n-step", str(ns[1] - ns[0]),
             "--trials", str(t), "--seed", s, "--format", "json"],
            [_spec("beta", SWEEP["theta0"], n, t, seed, SWEEP["beta"], "mse",
                   ("mse", "beta", SWEEP["theta0"], n, SWEEP["beta"], w)) for n in ns]))

    def extra_bound_ops(self):
        w = TABLE_H_WEIGHTS
        return [("direct", "exp-noncanonical", 2.0, n, 1.0, w) for n in TABLE_NS[2]]

    def small_invocation(self):
        # table 1 at ten trials: the verb's whole path, including E h(Z)
        return _table_invocation(1, 10, self.seed)

    def check_pass(self, outputs):
        failures = super().check_pass(outputs)
        got = minimal_n(beta_ingredients(BetaParams(1.5, 1.0)))
        if got != BETA_15_1_MINIMAL_N:
            # the table-3 rows rest on this constant
            failures.extend(f"table 3: minimal n {got} != {BETA_15_1_MINIMAL_N}" for _ in TABLE_NS[3])
        return failures


class SmallN(CliWorkload):
    name = "small-n"

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        trials = SMALL_N_TRIALS[size]
        for model, theta0 in SMALL_N_MODELS:
            for n in SMALL_N_NS:
                self.invocations.append(_simulate_invocation(model, theta0, n, trials, seed))

    def small_invocation(self):
        return _simulate_invocation("poisson", 5.0, 5, SMALL_N_TRIALS["tiny"], self.seed)


class BoundGrid:
    """Seeded bound evaluations over a lattice of (model, theta0, n, beta, h)."""

    name = "bound-grid"

    def __init__(self, seed, size, reference):
        self.seed = seed
        self.size = size
        self.reference = reference
        rng = random.Random(seed)
        self.points = []  # (model, theta0, n or offset above the Beta minimal n, beta, weights)
        for model, count in GRID_COUNTS[size].items():
            for _ in range(count):
                w = rng.choice(GRID_WEIGHTS)
                if model == "beta":
                    self.points.append((model, rng.choice(GRID_BETA_THETA), rng.choice(GRID_BETA_OFFSET),
                                        rng.choice(GRID_BETA_SHAPE), w))
                else:
                    self.points.append((model, rng.choice(GRID_THETA), rng.choice(GRID_N), 1.0, w))
        rng.shuffle(self.points)

    @property
    def ops_per_pass(self):
        return len(self.points)

    def resolve(self, points):
        """Bound operations, with each Beta n placed above its minimal n."""
        floor = {}
        ops = []
        for model, theta0, n, beta, w in points:
            if model == "beta":
                if (theta0, beta) not in floor:
                    floor[theta0, beta] = minimal_n(beta_ingredients(BetaParams(theta0, beta)))
                n = floor[theta0, beta] + n
            ops.append(("distance", model, theta0, n, beta, w))
        return ops

    # Unit 0 resolves the Beta sample sizes; every later unit is one bound.
    bound_units = slice(1, None)

    def run_pass(self, tracer=None, between=None):
        t0 = _clock()
        ops = self.resolve(self.points)
        resolve_ns = _clock() - t0
        lat, outputs = time_bounds(ops)
        return outputs, [resolve_ns] + lat

    def check_pass(self, outputs):
        return check_bounds(outputs, self.reference)

    def rerun(self, first_outputs):
        _, outputs = time_bounds(self.resolve(self.points[:1]))
        if outputs[0] != first_outputs[0]:
            return "rerun of a bound evaluation changed its output"
        return None

    def bound_ops(self):
        return []

    def first_call(self):
        """(arguments, check) of the ``steinmle bound`` call a fresh interpreter runs."""
        op = ("distance", "poisson", 1.0, 100, 1.0, (1.0, 1.0))
        args = ["bound", "--model", op[1], "--theta0", repr(op[2]), "--n", str(op[3]), "--format", "json"]

        def check(text):
            try:
                payload = json.loads(text)
                bad = check_total(payload["breakdown"]["total"], payload["kolmogorov_bound"],
                                  self.reference.get(bound_key(*op)))
            except (ValueError, KeyError, TypeError) as exc:
                bad = [f"unparseable output: {exc}"]
            return [f"{' '.join(args)}: " + "; ".join(bad)] if bad else []

        return args, check

    def output_weights(self):
        return [1] * len(self.points)

    def trial_counts(self):
        return {"bound evaluations per pass": len(self.points)}


WORKLOADS = {cls.name: cls for cls in (LargeN, SmallN, BoundGrid)}


def reference_ops():
    """Every bound evaluation any seed of any workload can make."""
    ops = []
    for model in ("exp-canonical", "exp-noncanonical", "poisson"):
        for theta0 in GRID_THETA:
            for n in GRID_N:
                for w in GRID_WEIGHTS:
                    ops.append(("distance", model, theta0, n, 1.0, w))
    for theta0 in GRID_BETA_THETA:
        for beta in GRID_BETA_SHAPE:
            floor = minimal_n(beta_ingredients(BetaParams(theta0, beta)))
            for off in GRID_BETA_OFFSET:
                for w in GRID_WEIGHTS:
                    ops.append(("distance", "beta", theta0, floor + off, beta, w))
    for cls in (LargeN, SmallN):
        ops.extend(cls(0, "tiny", {}).bound_ops())
    return ops
