"""Score how much the tests notice: plant each of a fixed list of faults in a
copy of a tree and see whether tier-1 fails.

    python3 tools/fault_score.py [TREE]     # TREE defaults to this checkout

Each fault is one string edit of one file under ``src/``: its anchor must
occur exactly once there, and every anchor is checked before anything runs.
The unedited tree then runs ``pytest -x -q -p no:cacheprovider`` once, and
must pass; its wall time, passed-test count and the line count of
``tests/*.py`` are recorded.  For each fault in turn, one run at a time, the
tree is copied, the edit applied and the same command run.  Every run
deselects ``tests/test_fault_score.py``'s check of this list, which an edit
fails by design:

* pytest exit 1 (a test failed) kills the fault in the ``full`` column.  The
  copy is then run again with every test that reads ``tests/snapshots/``
  deselected (``-k "not matches_snapshot"``: each such test carries that
  in its name), which fills the ``without_snapshots`` column.  A fault that
  only the snapshots catch can be re-recorded away.
* exit 0 is a survivor, recorded as surviving in both columns.
* any other exit code, or a run past ``RUN_TIMEOUT_S``, is an error, not a
  kill.

The record goes to ``BENCH_faults.json`` in this checkout, under the scored
tree's label: its short commit, with ``+changes`` when ``src/`` or
``tests/`` differ from it (``unversioned`` outside git).  A record of the
same label is replaced and the others kept, so that a parent and its change
can be scored side by side.  A fault that survives costs a full tier-1 run;
the whole list takes tens of minutes.  Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_faults.json"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", "tests/test_fault_score.py::test_every_fault_applies_once_and_compiles"]
WITHOUT_SNAPSHOTS = ["-k", "not matches_snapshot"]
RUN_TIMEOUT_S = 600


class Fault:
    """One planted fault: replace ``anchor`` by ``edit`` in ``path`` (relative
    to the tree)."""

    def __init__(self, name, path, anchor, edit):
        self.name, self.path, self.anchor, self.edit = name, path, anchor, edit

    def apply(self, tree) -> str:
        """The file's text with the edit made; an anchor that does not occur
        exactly once is a ValueError."""
        text = (Path(tree) / self.path).read_text()
        count = text.count(self.anchor)
        if count != 1:
            raise ValueError(f"{self.name}: anchor occurs {count} times in {self.path}")
        return text.replace(self.anchor, self.edit)


_CORE = "src/steinmle/steincore.py"
_HARNESS = "src/steinmle/montecarlo/harness.py"
_KERNELS = "src/steinmle/montecarlo/_pykernels.py"
_MSE = "src/steinmle/msebound.py"
_REGISTRY = "src/steinmle/registry.py"
_VALIDATE = "src/steinmle/_validate.py"
_CLI = "src/steinmle/cli.py"

FAULTS = [
    # M1-M12: the faults of the probe that first measured the score.
    Fault("M1 Poisson scale sqrt(n theta0)", _REGISTRY,
          "return math.sqrt(n)\n", "return math.sqrt(n * theta0)\n"),
    Fault("M2 SE divides by trials", _HARNESS,
          "math.fsum(memoryview(deviations)) / (trials - 1)",
          "math.fsum(memoryview(deviations)) / trials"),
    Fault("M3 Kolmogorov density drops the 2", _CORE,
          "density = 1.0 / (sigma * math.sqrt(2.0 * math.pi))",
          "density = 1.0 / (sigma * math.sqrt(math.pi))"),
    Fault("M4 Poisson target sigma = theta0", _REGISTRY,
          "return math.sqrt(theta0) if self.name", "return theta0 if self.name"),
    Fault("M5 Markov term halved", _CORE,
          "(TERM_MARKOV, 2.0 * sup * mse / eps**2)", "(TERM_MARKOV, sup * mse / eps**2)"),
    Fault("M6 Poisson c tolerance 1e-4", "src/steinmle/boundary.py",
          "_C_TOL = 1e-10", "_C_TOL = 1e-4"),
    Fault("M7 exp-canonical law Gamma/(n-1)", _KERNELS,
          "rng.standard_gamma(n, count) / n / theta0",
          "rng.standard_gamma(n, count) / (n - 1) / theta0"),
    Fault("M8 E h at unit scale", _HARNESS,
          "normal_expectation(h, scale=entry.target_sigma(theta0))",
          "normal_expectation(h, scale=1.0)"),
    Fault("M9 empirical MSE as a variance", _HARNESS,
          "empirical_mse=math.fsum(memoryview(errors**2)) / trials",
          "empirical_mse=float(np.var(errors))"),
    Fault("M10 exp-noncanonical law Gamma/(n+1)", _KERNELS,
          "theta0 * (rng.standard_gamma(n, count) / n)",
          "theta0 * (rng.standard_gamma(n, count) / (n + 1))"),
    Fault("M11 ci without the b_k widening", _CORE,
          "lo_arg = alpha / 2.0 - bk\n    hi_arg = 1.0 - alpha / 2.0 + bk",
          "lo_arg = alpha / 2.0\n    hi_arg = 1.0 - alpha / 2.0"),
    Fault("M12 ci at alpha instead of alpha/2", _CORE,
          "lo_arg = alpha / 2.0 - bk\n    hi_arg = 1.0 - alpha / 2.0 + bk",
          "lo_arg = alpha - bk\n    hi_arg = 1.0 - alpha + bk"),
    # One in each layer the probe left out.
    Fault("minimal n one below the root", _MSE,
          "m = (num + (root >> k)) // (2 * den) + 1", "m = (num + (root >> k)) // (2 * den)"),
    Fault("Beta shape root: series score logs the wrong ratio", _MSE,
          "np.log1p(beta / a)", "np.log1p(beta / b)"),
    Fault("Beta shape root: finite-sum score shifted by 1/2", _MSE,
          "inv = 1.0 / (theta + ks)", "inv = 1.0 / (theta + ks + 0.5)"),
    Fault("stream layout: trial jumps in the low counter words", _KERNELS,
          "stream.counter[2], stream.counter[3] = trial & _WORD, trial >> 64",
          "stream.counter[0], stream.counter[1] = trial & _WORD, trial >> 64"),
    Fault("worker splitting: pool blocks in reverse order", _KERNELS,
          "pool.map(block, firsts,", "pool.map(block, firsts[::-1],"),
    Fault("exit-code mapping: numerical failure exits 2", _CLI,
          "_emit_error(fmt, exc, EXIT_NUMERICAL)", "_emit_error(fmt, exc, EXIT_VALIDATION)"),
    Fault("json output: keys sorted", _CLI, "json.dumps(payload, allow_nan=False)",
          "json.dumps(payload, allow_nan=False, sort_keys=True)"),
    Fault("csv output: semicolon separated", _CLI,
          'print("\\n".join(",".join(row) for row in csv_rows))',
          'print("\\n".join(";".join(row) for row in csv_rows))'),
    Fault("text output: bound terms to 5 digits", _CLI,
          'f"{label:<{width}}  {value:.6g}"', 'f"{label:<{width}}  {value:.5g}"'),
    Fault("Poisson Markov term halved", "src/steinmle/boundary.py",
          "t_markov = 8.0 * theta0", "t_markov = 4.0 * theta0"),
    Fault("score term 2 -> 1", _CORE,
          "return (2.0 + third_abs_moment / variance**1.5)",
          "return (1.0 + third_abs_moment / variance**1.5)"),
    Fault("integer-shape Beta law shifted by one", _KERNELS,
          "(rng.standard_gamma(n, count) / n) / (theta0 + k)",
          "(rng.standard_gamma(n, count) / n) / (theta0 + k + 1)"),
    Fault("B3^2 rounded down", _MSE,
          "_MARGIN, _MARGIN_VAR = 1.0 + 20 * 2.0**-53, 1.0 + 40 * 2.0**-53",
          "_MARGIN, _MARGIN_VAR = 1.0 - 20 * 2.0**-53, 1.0 - 40 * 2.0**-53"),
    Fault("Kolmogorov bound sqrt(b)", _CORE,
          "smoothed = 2.0 * math.sqrt(b)", "smoothed = math.sqrt(b)"),
    # The input contract.
    Fault("real accepts bool", _VALIDATE,
          "if isinstance(x, bool) or not isinstance(x, numbers.Real):",
          "if not isinstance(x, numbers.Real):"),
    Fault("integer accepts bool", _VALIDATE,
          "if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < ge:",
          "if not isinstance(x, numbers.Integral) or x < ge:"),
    Fault("instance checks nothing", _VALIDATE,
          "    if not isinstance(x, cls):\n", "    if False:\n"),
    Fault("real returns the numpy scalar", _VALIDATE,
          "                v = float(x)\n",
          '                v = x if hasattr(x, "dtype") else float(x)\n'),
    Fault("Value allows assignment", _VALIDATE,
          'raise AttributeError(f"cannot assign to field {name!r}")',
          "object.__setattr__(self, name, value)"),
    Fault("BoundBreakdown accepts a negative term", _CORE,
          "if not (0.0 <= total < _INF and (not values or min(values) >= 0.0)):",
          "if not 0.0 <= total < _INF:"),
    Fault("float_range drops ZeroDivisionError", "src/steinmle/errors.py",
          "except (OverflowError, ZeroDivisionError) as exc:\n            raise range_error(name, exc)",
          "except OverflowError as exc:\n            raise range_error(name, exc)"),
    Fault("master_seed drops its 2^128 cap", _VALIDATE,
          "    if v >= 2**128:\n", "    if False:\n"),
    Fault("perturbation accepts an array", _VALIDATE,
          '    return real(c, "c", gt=0.0)\n',
          '    return c if hasattr(c, "ndim") else real(c, "c", gt=0.0)\n'),
    Fault("weights accepts None as the unit pair", _VALIDATE,
          "    if not (isinstance(h_weights, (tuple, list)) and len(h_weights) == 2):\n",
          "    if h_weights is None:\n        return 1.0, 1.0\n"
          "    if not (isinstance(h_weights, (tuple, list)) and len(h_weights) == 2):\n"),
    # The raw Beta clamp that lifted every draw below 2^-64, not only exact zeros.
    Fault("raw Beta draws clamped at 2^-64", _KERNELS,
          "        x[x == 0.0] = _TINY_X\n        return x\n",
          "        return np.maximum(x, 2.0**-64)\n"),
    Fault("ci intervals open at their edges", _HARNESS,
          "(lower <= theta0) & (theta0 <= upper)", "(lower < theta0) & (theta0 < upper)"),
]


def _pytest(tree, extra=()):
    """(verdict, first failing test id or None, wall seconds, stdout) of one
    tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([*PYTEST, *extra], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "error", None, time.perf_counter() - start, ""
    wall = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return verdict, failed and failed.group(1), wall, done.stdout


def _copy(tree, into):
    shutil.copytree(tree, into, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".perfbench"))


def _label(tree) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode:
        return "unversioned"
    changed = git("status", "--porcelain", "--", "src", "tests").stdout.strip()
    return head.stdout.strip() + ("+changes" if changed else "")


def score(tree) -> dict:
    edits = [(fault, fault.apply(tree)) for fault in FAULTS]  # every anchor, first
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        _copy(tree, copy)
        verdict, first, wall, out = _pytest(copy)
        if verdict != "survived":
            raise SystemExit(f"the unedited tree fails tier-1 ({first}):\n{out[-2000:]}")
        passed = int(re.search(r"(\d+) passed", out).group(1))
        results = []
        for fault, text in edits:
            shutil.rmtree(copy)
            _copy(tree, copy)
            (copy / fault.path).write_text(text)
            full, first, _, _ = _pytest(copy)
            without, first_without = full, first
            if full == "killed":
                without, first_without, _, _ = _pytest(copy, WITHOUT_SNAPSHOTS)
            print(f"{full:8} {without:8} {fault.name}", file=sys.stderr)
            results.append({"name": fault.name, "file": fault.path, "full": full,
                            "without_snapshots": without, "first_failure": first,
                            "first_failure_without_snapshots": first_without})
    lines = sum(len(p.read_text().splitlines()) for p in (Path(tree) / "tests").rglob("*.py"))
    return {
        "tree": _label(tree),
        "python": sys.version.split()[0],
        "tier1": {"wall_s": round(wall, 1), "passed": passed, "tests_lines": lines},
        "score": {
            "faults": len(results),
            "killed_full": sum(r["full"] == "killed" for r in results),
            "killed_without_snapshots": sum(r["without_snapshots"] == "killed" for r in results),
            "errors": sum("error" in (r["full"], r["without_snapshots"]) for r in results),
        },
        "faults": results,
    }


def main(argv):
    if len(argv) > 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    tree = Path(argv[0] if argv else ROOT).resolve()
    record = score(tree)
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    runs = [run for run in runs if run["tree"] != record["tree"]] + [record]
    OUT.write_text(json.dumps({"command": "python3 tools/fault_score.py [TREE]", "runs": runs},
                              indent=1) + "\n")
    print(json.dumps(record["score"]), file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
