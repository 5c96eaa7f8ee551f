"""Cold start: what a fresh interpreter loads for each verb.

``bound`` and ``constants`` load no numpy, mpmath or ``statistics`` (the
normal quantile's module, which only ``ci`` needs); only JSON output loads
``json``; neither the package's import nor ``bound`` loads ``dataclasses``;
the simulation verbs at one worker load no ``concurrent.futures``; and every
third-party module a verb loads is a declared runtime dependency.

Three fresh interpreters run the steps: the bare imports; every ``bound``
and ``constants`` invocation, with numpy and mpmath blocked; and the other
verbs.  Each reports its exit code, output and watched modules after every
step.  ``ROWS`` holds the expectations as (interpreter, step, module,
loaded).  Loaded modules only accumulate, so a module read as not loaded was
loaded by no step before, and one read as loaded was not loaded the step before.
"""

import functools
import importlib.metadata
import json
import os
import re
import subprocess
import sys

import pytest

import steinmle
from steinmle.registry import MODEL_NAMES

SRC = os.path.dirname(os.path.dirname(steinmle.__file__))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")

# One tiny invocation of each verb.
VERB_ARGS = {
    "bound": ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460"],
    "table": ["table", "1", "--trials", "2"],
    "simulate": ["simulate", "--model", "poisson", "--theta0", "5", "--n", "20", "--trials", "10"],
    "ci": ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10", "--trials", "10"],
    "mse-sweep": ["mse-sweep", "--beta", "2", "--n-from", "11848", "--n-to", "11848", "--trials", "2"],
    "constants": ["constants", "--model", "beta", "--theta0", "1.5", "--n", "7460"],
}
CI_STATISTICS = ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000",
                 "--alpha", "0.9", "--trials", "2"]
ONE_WORKER = ["--workers", "1"]
BLOCKED = ["numpy", "mpmath"]
SIMULATION_VERBS = ("table", "simulate", "mse-sweep")
WATCHED = ("numpy", "mpmath", "scipy", "json", "statistics", "dataclasses", "concurrent.futures")


def _model_args(verb, model, n="7460"):
    return [verb, "--model", model, "--theta0", "1.5", "--n", n]


def _json(args):
    return args + ["--format", "json"]


BOUND_TEXT = [_model_args("bound", m) for m in MODEL_NAMES]  # beta's is VERB_ARGS["bound"]
CONSTANTS_TEXT = [_model_args("constants", m) for m in MODEL_NAMES]
BOUND_CSV = VERB_ARGS["bound"] + ["--format", "csv"]
# Every JSON step of the blocked interpreter, beta's bound first.
JSON_STEPS = ([_json(VERB_ARGS["bound"])]
              + [_json(_model_args("bound", m)) for m in MODEL_NAMES if m != "beta"]
              + [_json(VERB_ARGS["constants"]), _json(_model_args("constants", "poisson", "100"))])

# Each interpreter: the modules it blocks (a None entry in sys.modules makes
# every import of that module fail), and its steps, a module name to import
# or a command line to run.
INTERPRETERS = {
    "import": ([], ["steinmle", "steinmle.cli"]),
    "bound": (BLOCKED, BOUND_TEXT + CONSTANTS_TEXT + [BOUND_CSV] + JSON_STEPS),
    "simulation": ([], [VERB_ARGS[verb] + ONE_WORKER for verb in SIMULATION_VERBS]
                   + [VERB_ARGS[verb] for verb in SIMULATION_VERBS]
                   + [VERB_ARGS["ci"], CI_STATISTICS]),
}

ROWS = [
    # the package's import loads no numpy, mpmath or scipy, nor the
    # dataclasses that took longer to import than the rest of the package
    *[("import", step, module, False) for step in ("steinmle", "steinmle.cli")
      for module in ("numpy", "mpmath", "scipy", "dataclasses")],
    ("import", "steinmle.cli", "json", False),
    ("import", "steinmle.cli", "statistics", False),
    ("bound", VERB_ARGS["bound"], "dataclasses", False),
    *[("bound", step, "statistics", False) for step in BOUND_TEXT + CONSTANTS_TEXT],
    # json is imported by the emitters for --format json alone
    ("bound", VERB_ARGS["bound"], "json", False),
    ("bound", BOUND_CSV, "json", False),
    ("bound", _json(VERB_ARGS["bound"]), "json", True),
    # concurrent.futures loads multiprocessing; only raw-sample blocks spread
    # over several workers use it
    *[("simulation", VERB_ARGS[verb] + ONE_WORKER, "concurrent.futures", False)
      for verb in SIMULATION_VERBS],
    # the statistics check above is live: the verb that needs the quantile loads it
    ("simulation", CI_STATISTICS, "statistics", True),
]

# Runs the steps given after the first argument (the blocked modules, comma
# separated, or "-"), each introduced by "--then", and prints its report.
# json is imported only once every step has been watched.
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
blocked, watched, *rest = sys.argv[1:]
for name in blocked.split(",") if blocked != "-" else ():
    sys.modules[name] = None
steps, words = [], []
for word in rest + ["--then"]:
    if word == "--then" and words:
        steps.append(words)
        words = []
    elif word != "--then":
        words.append(word)
report = []
for step in steps:
    code, out = 0, io.StringIO()
    if step[0] == "import":
        __import__(step[1])
    else:
        from steinmle.cli import main
        try:
            with contextlib.redirect_stdout(out):
                main(step, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    loaded = {m for m, module in sys.modules.items() if module is not None}
    report.append({
        "label": " ".join(step), "exit": code, "stdout": out.getvalue(),
        "loaded": {m: m in (loaded - before if m == "dataclasses" else loaded)
                   for m in watched.split(",")},
    })
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
loaded -= set(sys.stdlib_module_names) | {"steinmle"}
import json
print(json.dumps({"steps": report, "third_party": sorted(
    m for m in loaded if getattr(sys.modules[m], "__file__", None))}))
"""


def _label(step):
    return f"import {step}" if isinstance(step, str) else " ".join(step)


@functools.cache
def _report(name):
    """The report of interpreter ``name``, started once for every test."""
    blocked, steps = INTERPRETERS[name]
    args = [",".join(blocked) or "-", ",".join(WATCHED)]
    for step in steps:
        args += ["--then", *(["import", step] if isinstance(step, str) else step)]
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert [s["label"] for s in report["steps"]] == [_label(step) for step in steps]
    return report


def _canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


@functools.cache
def _declared():
    """The distributions in pyproject.toml's ``[project] dependencies``, read
    without tomllib, which Python 3.10 lacks, and without installed metadata,
    which a bare checkout lacks: the double-quoted strings of the one array
    assigned to ``dependencies``."""
    with open(PYPROJECT) as fh:
        array = re.search(r'^dependencies\s*=\s*\[((?:"[^"]*"|[^]"])*)\]', fh.read(), re.M).group(1)
    deps = re.findall(r'"([^"]*)"', array)
    return {_canonical(re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]) for dep in deps}


def _steps(name, step):
    """The reports of interpreter ``name``'s steps, up to ``step``."""
    steps = _report(name)["steps"]
    return steps[: [s["label"] for s in steps].index(_label(step)) + 1]


@pytest.mark.parametrize("name,step,module,loaded", ROWS,
                         ids=[f"{r[0]}-{_label(r[1])}-{r[2]}" for r in ROWS])
def test_step_loads_what_its_row_says(name, step, module, loaded):
    *before, report = _steps(name, step)
    assert report["exit"] == 0, report
    assert report["loaded"][module] is loaded
    if loaded:
        assert before and before[-1]["loaded"][module] is False


@pytest.mark.parametrize("step", JSON_STEPS, ids=_label)
def test_bound_verbs_print_json_without_numpy_or_mpmath(step):
    assert INTERPRETERS["bound"][0] == BLOCKED
    report = _steps("bound", step)[-1]
    assert report["exit"] == 0, report
    json.loads(report["stdout"])


@pytest.mark.parametrize("name", sorted(INTERPRETERS))
def test_steps_load_only_declared_dependencies(name):
    # Modules without a file (Cython's runtime modules, __mp_main__) are
    # made at run time, not imported from any distribution.
    report = _report(name)
    assert [s for s in report["steps"] if s["exit"] != 0] == []
    distributions = importlib.metadata.packages_distributions()
    for module in report["third_party"]:
        owners = {_canonical(d) for d in distributions.get(module, [module])}
        assert owners & _declared(), f"{name} loads {module} ({sorted(owners)}), not a dependency"
