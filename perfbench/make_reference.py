"""Record the bound totals every workload checks against.

Writes ``reference_bounds.json``: the total of every bound evaluation that
any seed of ``bound-grid`` can draw, and of every row bound of ``large-n``
and ``small-n``.  Run it from the repository root only to re-baseline
after a change that is meant to move bound values:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

import checks
import workloads


def main():
    totals = {}
    for op in workloads.reference_ops():
        key = workloads.bound_key(*op)
        if key not in totals:
            totals[key] = workloads.evaluate_bound(*op)[0]
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(totals, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(totals)} reference totals -> {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
