"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that, for every workload:

* an untraced run emits every end-to-end metric of ``BENCHMARK.json`` with
  its unit and a traced run every per-layer metric, with no failed
  operation;
* a planted fault is counted in ``failed``: a shifted estimate on the
  Monte Carlo workloads, a halved exp-noncanonical bound on ``bound-grid``;
* two traced runs with the same seed repeat every count exactly;

and that in a directory holding only ``BENCHMARK.json`` and the benchmark's
files the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAULTS = {"large-n": "shift-theta", "small-n": "shift-theta", "bound-grid": "halve-bound"}
EXACT_COUNTS = ("harness.trials", "kernels.draw.obs", "registry.distance_bound.calls", "specfun.polygamma.calls")


def run(root, workload, trace, seed=7, fault=None):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--out", ".perfbench/selftest"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, wanted, where):
    got = res["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in wanted})} differ")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{where}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")


def main():
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        try:
            plain = result(run(ROOT, name, 0))
            check_metrics(plain, SPEC["end_to_end"], f"{name} trace 0")
            assert plain["correct"] and plain["failed"] == 0, f"{name}: failures at tiny size"
            traced = [result(run(ROOT, name, 1)) for _ in range(2)]
            check_metrics(traced[0], SPEC["per_layer"], f"{name} trace 1")
            for key, entry in traced[0]["metrics"].items():
                if entry["unit"] == "count" or key in EXACT_COUNTS:
                    other = traced[1]["metrics"][key]["value"]
                    assert entry["value"] == other, f"{name}: {key} {entry['value']} != {other}"
            faulty = result(run(ROOT, name, 0, fault=FAULTS[name]))
            assert faulty["failed"] > 0 and not faulty["correct"], f"{name}: planted fault not counted"
            print(f"ok    {name}: {plain['attempted']} operations, fault -> {faulty['failed']} failed")
        except AssertionError as exc:
            problems.append(str(exc))
            print(f"FAIL  {exc}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without sources did not fail cleanly")
        print("FAIL  a checkout without sources did not fail cleanly")
    else:
        print(f"ok    a checkout without sources exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
