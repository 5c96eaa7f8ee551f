"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 301 \\
        --seconds 16 --topic poisson_parts --claim bound-grid/bound_us.p99

Pair i runs ``perfbench/run.py --trace 0`` at seed ``--seed`` + i in both
checkouts, one after the other: the parent first in even pairs, the change
first in odd ones, so that neither side always meets the machine in the
same state.  ``--workload``, ``--seconds`` and ``--size`` are passed through.
Every run of a side writes its records into one ``--out`` directory,
``.perfbench/pairs-<pid>/<side>`` in that side's checkout.

The two directories then go to ``perfbench/compare.py``, whose table is
printed to stderr: it refuses records that mix environments, and gives each
end-to-end metric its verdict against the ``BENCHMARK.json`` bound.  The
summary gives, per workload and end-to-end metric, that verdict, each
side's median and quartiles (``statistics.quantiles``, n=4, as compare.py
takes them), ``change_frac`` (change median over parent median, minus 1),
``parent_iqr_frac`` (the parent's interquartile range over its median) and
``change_lower_in_pairs``; and per workload each run's pass count and
failed operations, so that ``peak_rss_mb`` can be read against the passes.
``--claim WORKLOAD/METRIC`` adds whether that metric fell: lower in at
least 9 of 10 pairs, by a median drop larger than the parent's
interquartile range.  With ``--topic`` the summary is written to
``BENCH_<topic>.json`` in the current directory, else printed.

Exits 1 on a run that fails or any failed operation.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import compare  # noqa: E402

SIDES = ("parent", "change")
# A claimed gain holds in at least this share of the pairs.
CLAIM_SHARE = 0.9


def _run(checkout, args, seed, out):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size, "--out", out]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed}: run.py exited with code {done.returncode}")


def _verdicts(dirs):
    """compare.py's table for the two directories, printed to stderr, and its
    verdict for each (workload, metric) that has one."""
    with contextlib.redirect_stdout(io.StringIO()) as table:
        compare.main([dirs["parent"], dirs["change"]])
    sys.stderr.write(table.getvalue())
    verdicts = {}
    for line in table.getvalue().splitlines():
        workload, metric = line.split()[:2]
        verdict = line.split(" spread ", 1)[1].split(None, 1)[1:]
        if verdict:
            verdicts[workload, metric] = verdict[0].strip()
    return verdicts


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summarise(records, seeds, metrics, verdicts):
    """Per workload, the end-to-end metrics of ``records[side]`` (compare.load's
    lists), paired by seed."""
    out = {}
    for workload in sorted({record["workload"] for record in records["parent"]}):
        runs = {side: {r["provenance"]["seed"]: r for r in records[side] if r["workload"] == workload}
                for side in SIDES}
        entry = {}
        for metric in metrics:
            values = {side: [runs[side][seed]["metrics"][metric] for seed in seeds] for side in SIDES}
            spread = {side: _spread(values[side]) for side in SIDES}
            base = spread["parent"]["median"]
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            entry[metric] = {
                "verdict": verdicts.get((workload, metric)),
                **spread,
                "change_frac": spread["change"]["median"] / base - 1.0 if base else None,
                "parent_iqr_frac": (spread["parent"]["q3"] - spread["parent"]["q1"]) / base
                if base else None,
                "change_lower_in_pairs": f"{lower} of {len(seeds)}",
            }
        entry["runs"] = {
            side: {key: [runs[side][seed][key] for seed in seeds] for key in ("passes", "failed")}
            for side in SIDES
        }
        entry["failed_operations_all_runs"] = sum(sum(entry["runs"][side]["failed"]) for side in SIDES)
        out[workload] = entry
    return out


def _claim(summary, claim, pairs):
    """Whether the claimed metric fell: lower in CLAIM_SHARE of the pairs, by a
    median drop larger than the parent's interquartile range."""
    workload, metric = claim.split("/", 1)
    entry = summary[workload][metric]
    lower = int(entry["change_lower_in_pairs"].split()[0])
    met = lower >= CLAIM_SHARE * pairs and -entry["change_frac"] > entry["parent_iqr_frac"]
    return {
        "workload": workload,
        "metric": metric,
        "met": met,
        "detail": f"lower in {lower} of {pairs} pairs; median {entry['change_frac']:+.1%} "
                  f"against a parent IQR of {entry['parent_iqr_frac']:.1%}",
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--size", default="normal")
    ap.add_argument("--topic", help="write BENCH_<topic>.json here instead of printing")
    ap.add_argument("--claim", help="WORKLOAD/METRIC whose gain is claimed; better lower, as every "
                                    "end-to-end metric of BENCHMARK.json is")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((Path(compare.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.claim and args.claim.partition("/")[2] not in metrics:
        ap.error(f"--claim: {args.claim.partition('/')[2]!r} is not an end-to-end metric")
    out = f".perfbench/pairs-{os.getpid()}"
    dirs = {side: os.path.join(os.path.abspath(getattr(args, side)), out, side) for side in SIDES}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            _run(getattr(args, side), args, seed, f"{out}/{side}")
            print(f"pair {i + 1}/{args.pairs}  seed {seed}  {side}", file=sys.stderr)
    records = {side: compare.load(dirs[side]) for side in SIDES}
    pairs = _summarise(records, seeds, metrics, _verdicts(dirs))
    provenance = records["change"][0]["provenance"]
    summary = {
        "topic": args.topic,
        "machine": f"{provenance['nproc']} CPUs ({provenance['cpu_model']}); "
                   f"Python {provenance['python']}, numpy {provenance['numpy']}",
        "method": (
            f"{args.pairs} pairs of `python3 perfbench/run.py --workload {args.workload} --seed S "
            f"--seconds {args.seconds} --trace 0 --size {args.size}`, S = {seeds[0]}..{seeds[-1]}, "
            "parent and change run from separate checkouts one after the other, the parent first "
            "in even pairs and the change first in odd ones (tools/bench_pairs.py). Verdicts from "
            "perfbench/compare.py; medians and quartiles (statistics.quantiles, n=4) over the runs "
            "of each side."
        ),
        "pair_seeds": seeds,
        "pairs": pairs,
    }
    if args.claim:
        summary["claim"] = _claim(pairs, args.claim, args.pairs)
    text = json.dumps(summary, indent=1) + "\n"
    if args.topic:
        Path(f"BENCH_{args.topic}.json").write_text(text)
    else:
        sys.stdout.write(text)
    failed = sum(entry["failed_operations_all_runs"] for entry in pairs.values())
    if failed:
        print(f"{failed} failed operations", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
