"""Compare two sets of benchmark result records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records ``run.py --out DIR`` wrote.  The
comparison is refused when the two sets ran on different kernel backends or
package versions, since their numbers would not measure the same program.
For every workload and metric it prints both medians, the base's quartile
spread and the change; for an end-to-end metric it gives a verdict against
the bound ``BENCHMARK.json`` fixes, but only when each side holds at least
MIN_RUNS runs of the workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("backend", "python", "numpy", "scipy", "mpmath", "click", "size", "seconds")
MIN_RUNS = 10


def load(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        if "provenance" in rec and "metrics" in rec:
            records.append(rec)
    if not records:
        raise SystemExit(f"no result records in {directory}")
    return records


def environment(records, label):
    envs = {tuple((k, str(r["provenance"].get(k))) for k in MUST_MATCH) for r in records}
    if len(envs) != 1:
        raise SystemExit(f"refused: the {label} records mix environments: {sorted(envs)}")
    return dict(envs.pop())


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    env_base, env_new = environment(base, "base"), environment(new, "new")
    if env_base != env_new:
        diff = {k: (env_base[k], env_new[k]) for k in MUST_MATCH if env_base[k] != env_new[k]}
        raise SystemExit(f"refused: backend or package versions differ: {diff}")
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for wl in workloads:
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in base if r["workload"] == wl and name in r["metrics"]]
            b = [r["metrics"][name] for r in new if r["workload"] == wl and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            spread = (lambda q: q[2] - q[0])(statistics.quantiles(a, n=4)) if len(a) > 1 else 0.0
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m:
                if min(len(a), len(b)) < MIN_RUNS:
                    verdict = f"no verdict ({len(a)} and {len(b)} runs, {MIN_RUNS} needed)"
                elif ma and spread / abs(ma) > m["bound"]:
                    verdict = "unresolved (spread > bound)"
                else:
                    verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(f"{wl:<10} {name:<44} {ma:>12.5g} -> {mb:>12.5g} {m['unit']:<5} "
                  f"{change:+8.2%}  spread {spread / abs(ma) if ma else 0.0:6.2%}  {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
