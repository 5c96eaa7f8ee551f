"""Run one workload in a fresh interpreter and print its record as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Untraced, it repeats passes of the workload until ``--seconds``
have elapsed and times them.  Traced, it alternates untraced and traced
passes, so the tracing overhead is measured in the same process, and takes
the layer metrics from the traced passes only.

Each time is the best over the run's passes of one unit of work (one CLI
invocation, one bound evaluation); ``wall_s`` sums them over a pass.  Between
untraced passes, spread evenly over the run, the child starts fresh
interpreters one at a time and waits for each: a bare ``import
steinmle.cli`` (``setup_s``) and the same import followed by one small
invocation of the workload's verb (``cold_call_s``).  Each is the best of
its starts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

# Layers whose self time is reported as a share of the traced pass time.
LAYERS = (
    "cli",
    "harness",
    "kernels.trial_stats",
    "kernels.stream_setup",
    "kernels.draw",
    "harness.estimator",
    "specfun.normal_expectation",
    "specfun.polygamma",
    "registry.distance_bound",
    "registry.mse_bound",
    "boundary.minimize_poisson_c",
    "msebound.beta_b3",
    "msebound.minimal_n",
    "expfam.ingredients",
    "steincore.mle_bound_general",
)
MODELS = ("exp-canonical", "exp-noncanonical", "poisson", "beta")
DRAW_FAMILY = {"exp-canonical": "exp", "exp-noncanonical": "exp", "poisson": "poisson", "beta": "beta"}
COLD_CALL = "import sys; from steinmle.cli import main; main(sys.argv[1:], prog_name='steinmle')"
FRESH_TIMEOUT_S = 60


class FreshStarts:
    """Fresh interpreters, ``count`` of each kind, started evenly over ``seconds``.

    ``cold`` adds to the import one small invocation of the workload's verb,
    so that what a verb pays once per process (a deferred import, a table
    filled on first use) is counted; in-process passes never see it.  Each
    invocation is one operation, checked with the workload's ``check``.
    """

    def __init__(self, count, seconds, first_call):
        self.count, self.seconds = count, seconds
        self.args, self.check = first_call
        self.setup, self.cold, self.problems = [], [], []
        self.spent = 0.0

    def due(self, elapsed):
        return len(self.setup) < self.count and elapsed >= len(self.setup) * self.seconds / self.count

    @property
    def done(self):
        return len(self.setup) == self.count

    def sample(self):
        t = time.perf_counter()
        dt, proc = _timed_start(["-c", "import steinmle.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"import steinmle.cli exited with code {proc.returncode}")
        self.setup.append(dt)
        dt, proc = _timed_start(["-c", COLD_CALL, *self.args])
        self.cold.append(dt)
        bad = [f"exit {proc.returncode}"] if proc.returncode != 0 else self.check(proc.stdout)
        if bad:
            self.problems.append("fresh interpreter: " + "; ".join(bad))
        self.spent += time.perf_counter() - t


def _timed_start(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=FRESH_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def install_fault(name):
    """Plant a known defect, for the benchmark's self-test."""
    from steinmle import registry
    from steinmle.steincore import BoundBreakdown

    if name == "halve-bound":
        cls = type(registry.get_model("exp-noncanonical"))
        original = vars(cls)["distance_bound"]

        def halved(self, *args, **kwargs):
            bd = original(self, *args, **kwargs)
            return BoundBreakdown(terms=tuple((label, v / 2.0) for label, v in bd.terms))

        cls.distance_bound = halved
    elif name == "shift-theta":
        for model in MODELS:
            cls = type(registry.get_model(model))
            if "mle_from_stat" in vars(cls):
                original = vars(cls)["mle_from_stat"]
                cls.mle_from_stat = lambda self, stat, n, _f=original: 1.5 * _f(self, stat, n)
    else:
        raise SystemExit(f"unknown fault {name!r}")


def best_of(passes):
    """Per unit of work, its shortest time over the passes.

    The host's speed varies from second to second with its neighbours' load;
    the best time of each unit, summed, is the run's least disturbed estimate
    of the fixed work.
    """
    return [min(times) for times in zip(*passes)]


def percentile(values, q):
    """The q-th percentile (1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer, ranges, traced_walls):
    """Per-pass layer metrics from the spans of the traced passes."""
    passes = len(ranges)
    total_ns, calls, self_ns = {}, {}, {}
    draw_ns, draw_obs = {}, {}
    bound_ns, bound_calls = {}, {}
    trials = 0
    for first, last in ranges:
        selfs = tracer.self_times(first, last)
        for (name, t0, t1, _, attr), s in zip(tracer.spans[first:last], selfs):
            total_ns[name] = total_ns.get(name, 0) + t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + s
            if name == "kernels.draw":
                fam = DRAW_FAMILY[attr[0]]
                draw_ns[fam] = draw_ns.get(fam, 0) + t1 - t0
                draw_obs[fam] = draw_obs.get(fam, 0) + attr[1]
            elif name == "kernels.trial_stats":
                trials += attr
            elif name == "registry.distance_bound":
                bound_ns[attr] = bound_ns.get(attr, 0) + t1 - t0
                bound_calls[attr] = bound_calls.get(attr, 0) + 1

    def per_pass(value):
        return value / passes

    def per_call(name, scale):
        return total_ns.get(name, 0) / calls[name] / scale if calls.get(name) else 0.0

    obs = sum(draw_obs.values())
    m = {
        "cli.self_s": per_pass(self_ns.get("cli", 0)) / 1e9,
        "kernels.pykernels.calls": per_pass(
            sum(calls.get(k, 0) for k in ("kernels.trial_stats", "kernels.stream_setup", "kernels.draw"))
        ),
        "kernels.stream_setup.calls": per_pass(calls.get("kernels.stream_setup", 0)),
        "kernels.stream_setup.us_per_call": per_call("kernels.stream_setup", 1e3),
        "kernels.draw.obs": per_pass(obs),
        "kernels.trial_stats.self_ns_per_obs": self_ns.get("kernels.trial_stats", 0) / obs if obs else 0.0,
        "harness.trials": per_pass(trials),
        "harness.estimator.calls": per_pass(calls.get("harness.estimator", 0)),
        "harness.estimator.us_per_call": per_call("harness.estimator", 1e3),
        "harness.self_us_per_trial": self_ns.get("harness", 0) / trials / 1e3 if trials else 0.0,
        "specfun.normal_expectation.calls": per_pass(calls.get("specfun.normal_expectation", 0)),
        "specfun.normal_expectation.ms_per_call": per_call("specfun.normal_expectation", 1e6),
        "specfun.polygamma.calls": per_pass(calls.get("specfun.polygamma", 0)),
        "specfun.polygamma.ns_per_call": per_call("specfun.polygamma", 1),
        "registry.distance_bound.calls": per_pass(calls.get("registry.distance_bound", 0)),
        "boundary.minimize_poisson_c.calls": per_pass(calls.get("boundary.minimize_poisson_c", 0)),
        "boundary.minimize_poisson_c.us_per_call": per_call("boundary.minimize_poisson_c", 1e3),
        "msebound.beta_b3.calls": per_pass(calls.get("msebound.beta_b3", 0)),
        "msebound.beta_b3.us_per_call": per_call("msebound.beta_b3", 1e3),
        "msebound.minimal_n.calls": per_pass(calls.get("msebound.minimal_n", 0)),
        "msebound.minimal_n.us_per_call": per_call("msebound.minimal_n", 1e3),
        "expfam.ingredients.us_per_call": per_call("expfam.ingredients", 1e3),
        "steincore.mle_bound_general.us_per_call": per_call("steincore.mle_bound_general", 1e3),
    }
    for fam in ("exp", "poisson", "beta"):
        m[f"kernels.draw.ns_per_obs.{fam}"] = draw_ns[fam] / draw_obs[fam] if draw_obs.get(fam) else 0.0
    for model in MODELS:
        n = bound_calls.get(model, 0)
        m[f"registry.distance_bound.us.{model}"] = bound_ns[model] / n / 1e3 if n else 0.0
    wall_ns = sum(traced_walls) * 1e9
    for name in LAYERS:
        m[f"self_share.{name}"] = self_ns.get(name, 0) / wall_ns
    m["self_share.other"] = 1.0 - sum(self_ns.get(name, 0) for name in LAYERS) / wall_ns
    return m


def provenance(args, wl):
    import mpmath
    import numpy
    import scipy
    import steinmle
    from steinmle.montecarlo import active_backend

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "click": importlib.metadata.version("click"),
        "steinmle": steinmle.__version__,
        "backend": active_backend(),
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "trials": wl.trial_counts(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal")
    ap.add_argument("--fault", default=None)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import steinmle.cli  # noqa: F401 - the import every CLI call pays

    import_s = time.perf_counter() - t0
    import checks  # noqa: E402 - these import steinmle, after the timed import
    import workloads
    src = Path(args.src).resolve()
    if src not in Path(sys.modules["steinmle"].__file__).resolve().parents:
        raise SystemExit(f"steinmle was imported from outside {src}")

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, checks.load_reference())
    if args.fault:
        install_fault(args.fault)
    tracer = Tracer() if args.trace else None
    fresh = None
    if tracer is None:
        fresh = FreshStarts(workloads.FRESH_STARTS[args.size], args.seconds, wl.first_call())
    bound_ops = wl.bound_ops() if tracer is None else []
    row_bound_ns = []
    failures, tally = [], {"attempted": 0, "failed": 0}

    def time_row_bounds():
        # Row bounds are timed after every invocation, so that their timings
        # spread over the whole run; one sample per bound is the best of
        # BOUND_REPEATS back-to-back timings.
        best = [float("inf")] * len(bound_ops)
        for _ in range(workloads.BOUND_REPEATS[args.size]):
            lat, outs = workloads.time_bounds(bound_ops)
            best = [min(x, y) for x, y in zip(best, lat)]
            bad = workloads.check_bounds(outs, wl.reference)
            failures.extend(bad)
            tally["attempted"] += len(bound_ops)
            tally["failed"] += len(bad)
        row_bound_ns.extend(best)

    plain, traced, ranges, traced_s = [], [], [], []
    first_outputs = None
    weights = wl.output_weights()
    start = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        if trace_this:
            tracer.install()
            first_span = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            if trace_this:
                outputs, unit_ns = wl.run_pass(tracer)
            else:
                outputs, unit_ns = wl.run_pass(None, time_row_bounds if bound_ops else None)
        finally:
            dt = time.perf_counter() - t0
            if trace_this:
                tracer.uninstall()
        if trace_this:
            ranges.append((first_span, len(tracer.spans)))
            traced.append(unit_ns)
            traced_s.append(dt)
        else:
            plain.append(unit_ns)
        tally["attempted"] += wl.ops_per_pass
        if first_outputs is None:
            first_outputs = outputs
            first_failures = wl.check_pass(outputs)
            failures.extend(first_failures)
            tally["failed"] += len(first_failures)
        else:
            # identical inputs: each output must repeat the first pass exactly
            changed = sum(w for w, a, b in zip(weights, outputs, first_outputs) if a != b)
            if changed:
                failures.append(f"pass {k}: {changed} operations changed output between identical passes")
            tally["failed"] += min(wl.ops_per_pass, len(first_failures) + changed)
        k += 1
        elapsed = time.perf_counter() - start - (fresh.spent if fresh else 0.0)
        if fresh is not None and fresh.due(elapsed):
            fresh.sample()
        if elapsed >= args.seconds and (tracer is None or traced) and (fresh is None or fresh.done):
            break

    problem = wl.rerun(first_outputs)
    tally["attempted"] += 1
    if problem:
        failures.append(problem)
        tally["failed"] += 1
    if fresh is not None:
        failures.extend(fresh.problems)
        tally["attempted"] += len(fresh.cold)
        tally["failed"] += len(fresh.problems)

    plain_best = best_of(plain)
    record = {
        "workload": wl.name,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": failures[:20],
        "import_s": import_s,
        "passes": len(plain),
        "pass_s": [sum(u) / 1e9 for u in plain],
        "traced_pass_s": traced_s,
        "provenance": provenance(args, wl),
    }
    if tracer is None:
        # bound-grid: each evaluation's best time over the passes; the other
        # workloads: every sample of their row bounds
        latencies = plain_best[wl.bound_units] + row_bound_ns
        record["metrics"] = {
            "wall_s": sum(plain_best) / 1e9,
            "setup_s": min(fresh.setup),
            "cold_call_s": min(fresh.cold),
            "bound_us.p50": statistics.median(latencies) / 1e3,
            "bound_us.p99": percentile(latencies, 99) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["bound_us.samples"] = len(latencies)
        record["setup_samples_s"] = fresh.setup
        record["cold_call_samples_s"] = fresh.cold
    else:
        m = layer_metrics(tracer, ranges, traced_s)
        m["trace.overhead_frac"] = sum(best_of(traced)) / sum(plain_best) - 1.0
        m["trace.spans_per_pass"] = sum(b - a for a, b in ranges) / len(ranges)
        record["metrics"] = m
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
