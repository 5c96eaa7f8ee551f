"""Check that `steinmle bound` and `steinmle constants` print the same bytes
on every installed Python interpreter.

    python3 tools/check_interpreters.py                  # every interpreter found
    python3 tools/check_interpreters.py python3.10 python3.13

Each case runs the command line from this checkout's ``src/`` in a fresh
isolated interpreter (``-I``: no user site, no PYTHONPATH), in JSON, for all
four models.  The bound and audit verbs need no package outside the standard
library, so nothing has to be installed for any interpreter.  Stdout, stderr
and the exit code of every case must be byte-identical across interpreters;
any difference, or an interpreter named on the command line that cannot run,
exits 1.  Without arguments the interpreters are every ``python3.N`` (N >= 10)
on PATH and every ``bin/python3`` under ``$PYENV_ROOT/versions`` (default
``~/.pyenv``) that starts; at least two are needed.  Standard library only.
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Runs the command line with this checkout's src/ first on the path.
RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); from steinmle.cli import main; main()"
# Prints the version and the real path of the binary behind a shim or link.
PROBE = (
    "import os, sys; sys.exit(1) if sys.version_info < (3, 10) else "
    "print(sys.version.split()[0], os.path.realpath(sys.executable))"
)

CASES = [
    ["bound", "--model", "poisson", "--theta0", "5", "--n", "50"],
    ["bound", "--model", "poisson", "--theta0", "0.04", "--n", "5", "--c", "0.5"],
    ["bound", "--model", "poisson", "--theta0", "1e-06", "--n", "1000000"],
    # the longest c search on the benchmark's Poisson lattice (92 trial
    # values of c), and the degenerate zero bound
    ["bound", "--model", "poisson", "--theta0", "100", "--n", "1000000"],
    ["bound", "--model", "poisson", "--theta0", "0", "--n", "5"],
    # optima at the upper end c = n theta0, which a search must return
    # exactly, not a float above it or below it
    ["bound", "--model", "poisson", "--theta0", "0.01", "--n", "32"],
    ["bound", "--model", "poisson", "--theta0", "0.5", "--n", "5"],
    ["bound", "--model", "exp-canonical", "--theta0", "1", "--n", "10"],
    ["bound", "--model", "exp-canonical", "--theta0", "1", "--n", "100000",
     "--h-sup", "0.5", "--h-lip", "0.2296397"],
    ["bound", "--model", "exp-noncanonical", "--theta0", "2", "--n", "1000"],
    ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7500"],
    ["bound", "--model", "beta", "--theta0", "1.5", "--beta", "2.5", "--n", "14816"],
    ["constants", "--model", "poisson", "--theta0", "5", "--n", "50"],
    ["constants", "--model", "exp-canonical", "--theta0", "1", "--n", "3"],
    ["constants", "--model", "exp-noncanonical", "--theta0", "2", "--n", "10"],
    ["constants", "--model", "beta", "--theta0", "1.5", "--n", "7460"],
    ["constants", "--model", "beta", "--theta0", "0.5", "--beta", "4"],
    # n at the minimal n, where D1 rests on g = m - s+^2 alone, and a minimal
    # n (9,215,954,615,054,287) above 2^53
    ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460"],
    ["constants", "--model", "beta", "--theta0", "0.001", "--beta", "1000"],
    # a validation error (exit 2) and a numerical failure (exit 3)
    ["bound", "--model", "poisson", "--theta0", "5", "--n", "50", "--h-sup", "2"],
    ["constants", "--model", "exp-noncanonical", "--theta0", "1.1e77", "--n", "10"],
]


def _candidates():
    """Interpreter paths on PATH and under pyenv."""
    paths = []
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        for path in sorted(glob.glob(os.path.join(directory or ".", "python3.*"))):
            if re.fullmatch(r"python3\.\d+", os.path.basename(path)):
                paths.append(path)
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    paths.extend(sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python3"))))
    return paths


def _probe(python):
    """(version, real binary) of the interpreter, or None if it does not
    start or is older than 3.10."""
    try:
        done = subprocess.run([python, "-I", "-c", PROBE], capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return tuple(done.stdout.split(maxsplit=1)) if done.returncode == 0 else None


def _run(python, case):
    done = subprocess.run([python, "-I", "-c", RUNNER, SRC, *case, "--format", "json"],
                          capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def main(argv):
    named = bool(argv)
    interpreters, binaries = [], set()
    for python in argv or _candidates():
        probed = _probe(python)
        if probed is None:
            if named:
                print(f"{python}: does not start, or is older than 3.10", file=sys.stderr)
                return 1
            continue
        version, binary = probed
        if binary not in binaries:  # a shim or a link to one already found
            binaries.add(binary)
            interpreters.append((python, version))
    if len(interpreters) < 2:
        print(f"need at least two interpreters, found {interpreters}", file=sys.stderr)
        return 1
    for python, version in interpreters:
        print(f"interpreter {version}  {python}")
    failed = 0
    for case in CASES:
        outputs = [_run(python, case) for python, _ in interpreters]
        distinct = set(outputs)
        status = "same" if len(distinct) == 1 else "DIFFERENT"
        codes = sorted({code for code, _, _ in distinct})
        print(f"{status:9}  exit {codes}  {' '.join(case)}")
        if len(distinct) > 1:
            failed += 1
            for (python, version), output in zip(interpreters, outputs):
                print(f"    {version}: exit {output[0]}, {output[1][:200]!r} {output[2][:200]!r}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases byte-identical on "
          f"{len(interpreters)} interpreters")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
