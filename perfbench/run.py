"""steinmle benchmark: one workload per call, one JSON result on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a separate
traced pass and reports the per-layer metrics.  The workload runs in one
fresh child interpreter (``child.py``) that imports ``steinmle`` from this
checkout's ``src``; ``setup_s`` and ``cold_call_s`` are measured in further
fresh interpreters that the child starts one at a time between its passes.
Every result record, with its provenance, is written under ``.perfbench/``
in the checkout (``--out``) under a name no other run uses, and spans of a
traced run next to it; ``compare.py`` compares two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# Top-level modules whose cumulative import time is reported.
IMPORT_MODULES = {
    "scipy.integrate": "scipy_integrate",
    "scipy.special": "scipy_special",
    "mpmath": "mpmath",
    "numpy": "numpy",
    "click": "click",
    "steinmle": "steinmle",
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "STEINMLE_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_imports(samples):
    """Median cumulative import time (s) of each module in IMPORT_MODULES.

    From ``python -X importtime``.  Each module is charged with everything it
    imports first, so a module shared by two importers counts under the one
    that ran first (``scipy.special`` under ``scipy.integrate``, for one),
    and is also reported under its own name.
    """
    cmd = [sys.executable, "-X", "importtime", "-c", "import steinmle.cli"]
    per_module = {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(samples):
        proc = subprocess.run(cmd, env=child_env(), check=True, timeout=60, capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            module = parts[2].strip()
            if module in IMPORT_MODULES and module not in seen:
                try:
                    seen[module] = int(parts[1]) / 1e6
                except ValueError:
                    continue
        for module, name in IMPORT_MODULES.items():
            per_module[name].append(seen.get(module, 0.0))
    return {f"setup.import_s.{name}": statistics.median(v) for name, v in per_module.items()}


def git_commit():
    """The checkout's commit from .git, or "unknown" outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args, workload):
    """One child run: the record it prints, plus setup metrics and provenance."""
    out = ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    # The time and pid keep records of repeated runs at one seed apart.
    stem = f"{workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--src", str(SRC),
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.trace:
        cmd += ["--spans-out", str(out / f"{stem}.spans.jsonl")]
        extra = measure_imports(IMPORTTIME_SAMPLES)
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        record["metrics"].update(extra)
    record["provenance"]["git_commit"] = git_commit()
    record["provenance"]["seconds"] = args.seconds
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal",
                    help="tiny: minimal trial counts, for the self-test")
    ap.add_argument("--fault", choices=("halve-bound", "shift-theta"), default=None,
                    help="plant a known defect, for the self-test")
    ap.add_argument("--out", default=".perfbench",
                    help="directory for result records and spans, relative to the checkout")
    args = ap.parse_args()
    if Path(args.out).is_absolute() or ".." in Path(args.out).parts:
        ap.error("--out must be a relative path inside the checkout")

    if not (SRC / "steinmle" / "cli.py").is_file():
        print(f"error: no steinmle sources under {SRC}", file=sys.stderr)
        sys.exit(2)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = run_workload(args, name)
        attempted += record["attempted"]
        failed += record["failed"]
        for problem in record["failures"]:
            print(f"{name}: FAILED {problem}")
        wanted = SPEC["per_layer" if args.trace else "end_to_end"]
        if set(record["metrics"]) != {m["name"] for m in wanted}:
            raise SystemExit(f"{name}: metrics differ from BENCHMARK.json: {sorted(record['metrics'])}")
        units = {m["name"]: m["unit"] for m in wanted}
        for metric, value in sorted(record["metrics"].items()):
            unit = units[metric]
            print(f"{name:<10}  {metric:<44} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        frac = record["failed"] / record["attempted"]
        print(f"{name:<10}  {'failed_frac':<44} {frac:>16.6g} frac"
              f"  ({record['failed']} of {record['attempted']} operations)")
        if not args.trace:
            print(f"{name:<10}  {'bound_us.samples':<44} {record['bound_us.samples']:>16d} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
