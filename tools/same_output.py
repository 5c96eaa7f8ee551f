"""Check that this checkout's `src/` and another source tree give the same
command-line output.

    python3 tools/same_output.py OTHER_SRC     # e.g. ../steinmle-main/src

It runs every case of ``check_interpreters.CASES`` (the ``bound`` and
``constants`` verbs for all four models, one validation error and one
numerical failure) plus small ``table``, ``simulate``, ``mse-sweep`` and
``ci`` cases (the Beta ones among them: ``table 3``, a ``simulate`` row, a
``ci`` and a sweep refused below the minimal n), each in text, csv and json,
once against each tree, with the running interpreter in isolated mode
(``-I``: no user site, no PYTHONPATH).
Stdout, stderr and the exit code of every run must be byte-identical between
the two trees; any difference exits 1.  A behaviour-preserving change is one
that passes this against its parent's ``src/``.  For a run that differs, it
also prints whether the two differ only in numeric tokens (same exit code,
same text between the numbers) and the largest relative difference among
those tokens, so that a change meant to move values by a few ulps can show
that it moves nothing else.  Standard library only; the simulation verbs need
numpy in the running interpreter.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from decimal import Decimal

from check_interpreters import CASES, RUNNER, SRC

SIMULATION_CASES = [
    ["table", "1", "--trials", "200"],
    ["simulate", "--model", "poisson", "--theta0", "5", "--n", "20", "--trials", "200"],
    ["mse-sweep", "--beta", "2", "--n-from", "11848", "--n-to", "11848", "--trials", "20"],
    ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000000",
     "--alpha", "0.05", "--trials", "1000"],
    # the Beta bounds and scales the row engine and ci take from the registry
    ["table", "3", "--trials", "20"],
    ["simulate", "--model", "beta", "--theta0", "1.5", "--n", "7500", "--trials", "200"],
    ["ci", "--model", "beta", "--theta0", "1.5", "--n", "1000000000000",
     "--alpha", "0.5", "--trials", "200"],
    # two n below the minimal n 7460: refused (exit 2) before any draw
    ["mse-sweep", "--n-from", "7000", "--n-to", "7600", "--n-step", "300", "--trials", "5"],
]
FORMATS = ("text", "csv", "json")
# A number as the verbs print it: an integer, or a float's repr or format.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _run(src, case):
    done = subprocess.run([sys.executable, "-I", "-c", RUNNER, src, *case],
                          capture_output=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def numeric_difference(ours, theirs):
    """(whether two runs differ only in numeric tokens, the largest relative
    difference |x - y| / max(|x|, |y|) among their numeric tokens)."""
    texts = [run[1] + b"\0" + run[2] for run in (ours, theirs)]
    skeletons = [NUMBER.sub(b"#", text) for text in texts]
    numbers = [[Decimal(token.decode()) for token in NUMBER.findall(text)] for text in texts]
    only = ours[0] == theirs[0] and skeletons[0] == skeletons[1]
    largest = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(*numbers) if x != y),
                  default=Decimal(0))
    return only, largest


def main(argv):
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "steinmle")):
        print("usage: same_output.py OTHER_SRC  (a directory holding the steinmle package)",
              file=sys.stderr)
        return 2
    other = os.path.abspath(argv[0])
    print(f"this   {SRC}\nother  {other}")
    runs = [case + ["--format", fmt] for case in CASES + SIMULATION_CASES for fmt in FORMATS]
    failed = 0
    for case in runs:
        ours, theirs = _run(SRC, case), _run(other, case)
        status = "same" if ours == theirs else "DIFFERENT"
        print(f"{status:9}  exit {ours[0]}  {' '.join(case)}")
        if ours != theirs:
            failed += 1
            only, largest = numeric_difference(ours, theirs)
            print(f"    numeric tokens only: {'yes' if only else 'no'}; largest relative "
                  f"difference among them: {float(largest):.3g}")
            for name, (code, out, err) in (("this", ours), ("other", theirs)):
                print(f"    {name}: exit {code}, {out[:200]!r} {err[:200]!r}")
    print(f"{len(runs) - failed} of {len(runs)} runs byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
