"""Cold start: what a fresh interpreter loads for each verb.

``bound`` and ``constants`` must not load numpy, mpmath or ``statistics``
(the normal quantile's module, which only ``ci`` needs), only JSON output
may load ``json``, neither the package's import nor ``bound`` may load
``dataclasses``, no verb may load mpmath or scipy (neither is a dependency,
but an environment that runs the benchmark has both), and every third-party
module a verb loads must be a declared runtime dependency.  The test process
may have imported any of them already, so one fresh interpreter makes the bare
imports and one runs each verb, every invocation of that verb in turn.  Each
reports, after every step, which of the watched modules are loaded, and at
its end each step's exit code and output and the third-party modules it
loaded, as JSON.  Loaded modules only accumulate, so a module absent after
a step was absent after every step before it.
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


def _model_args(verb, model, n="7460"):
    return [verb, "--model", model, "--theta0", "1.5", "--n", n]


# Each interpreter: the modules it blocks (a None entry in sys.modules makes
# every import of that module fail), and its steps, a module name to import
# or a command line to run.  JSON output comes after every other step.
INTERPRETERS = {
    "import": ([], ["steinmle", "steinmle.cli"]),
    "bound": (BLOCKED, [VERB_ARGS["bound"]]
              + [_model_args("bound", m) for m in MODEL_NAMES if m != "beta"]
              + [VERB_ARGS["bound"] + ["--format", "csv"]]
              + [_model_args("bound", m) + ["--format", "json"] for m in MODEL_NAMES]),
    "constants": (BLOCKED, [_model_args("constants", m) for m in MODEL_NAMES]
                  + [VERB_ARGS["constants"] + ["--format", "json"],
                     _model_args("constants", "poisson", "100") + ["--format", "json"]]),
    "ci": ([], [VERB_ARGS["ci"], CI_STATISTICS]),
    **{verb: ([], [VERB_ARGS[verb] + ONE_WORKER, VERB_ARGS[verb]])
       for verb in ("table", "simulate", "mse-sweep")},
}

# Runs the steps given after the first argument (the blocked modules, comma
# separated, or "-"), each introduced by "--then", and prints its report.
# json is imported only once every step has been watched.
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
blocked, *rest = sys.argv[1:]
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
    tops = {m.split(".")[0] for m, module in sys.modules.items() if module is not None}
    report.append({
        "label": " ".join(step), "exit": code, "stdout": out.getvalue(),
        "loaded": {m: m in tops for m in ("numpy", "mpmath", "scipy", "json", "statistics")},
        "dataclasses": "dataclasses" in set(sys.modules) - before,
        "process_pool": "concurrent.futures" in sys.modules,
    })
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
loaded -= set(sys.stdlib_module_names) | {"steinmle"}
import json
print(json.dumps({"steps": report, "third_party": sorted(
    m for m in loaded if getattr(sys.modules[m], "__file__", None))}))
"""


@functools.cache
def _report(name):
    """The report of interpreter ``name``, started once for every test."""
    blocked, steps = INTERPRETERS[name]
    args = [",".join(blocked) or "-"]
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
    return json.loads(out.stdout)


def _step(name, step):
    """The report of one step of interpreter ``name``: a module or a command line."""
    label = f"import {step}" if isinstance(step, str) else " ".join(step)
    return next(s for s in _report(name)["steps"] if s["label"] == label)


def _canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


@pytest.mark.parametrize("module", ["steinmle", "steinmle.cli"])
def test_import_loads_no_numpy_mpmath_or_scipy(module):
    loaded = _step("import", module)["loaded"]
    assert [m for m in ("mpmath", "numpy", "scipy") if loaded[m]] == []


@pytest.mark.parametrize(
    "name,step",
    [("import", "steinmle"), ("import", "steinmle.cli"), ("bound", VERB_ARGS["bound"])],
    ids=["import", "import-cli", "bound-beta"],
)
def test_no_dataclasses_loaded(name, step):
    # the value types are plain classes: importing dataclasses, with the
    # inspect it loads, took longer than the rest of the package
    assert _step(name, step)["dataclasses"] is False


@pytest.mark.parametrize(
    "name,args",
    [("bound", _model_args("bound", m)) for m in MODEL_NAMES]
    + [
        ("constants", VERB_ARGS["constants"]),
        ("constants", _model_args("constants", "poisson", "100")),
    ],
    ids=[f"bound-{m}" for m in MODEL_NAMES] + ["constants-beta", "constants-poisson"],
)
def test_bound_verbs_run_without_numpy_or_mpmath(name, args):
    # both interpreters block numpy and mpmath
    assert INTERPRETERS[name][0] == BLOCKED
    step = _step(name, args + ["--format", "json"])
    assert step["exit"] == 0, step
    json.loads(step["stdout"])


@pytest.mark.parametrize(
    "name,step,loaded",
    [("import", "steinmle.cli", False), ("bound", VERB_ARGS["bound"], False),
     ("bound", VERB_ARGS["bound"] + ["--format", "csv"], False),
     ("bound", VERB_ARGS["bound"] + ["--format", "json"], True)],
    ids=["import", "bound-text", "bound-csv", "bound-json"],
)
def test_only_json_output_loads_json(name, step, loaded):
    # json is imported by the emitters for --format json alone
    assert _step(name, step)["loaded"]["json"] is loaded


@pytest.mark.parametrize(
    "name,step",
    [("import", "steinmle.cli")]
    + [("bound", _model_args("bound", m)) for m in MODEL_NAMES]
    + [("constants", _model_args("constants", m)) for m in MODEL_NAMES],
    ids=["import"] + [f"bound-{m}" for m in MODEL_NAMES] + [f"constants-{m}" for m in MODEL_NAMES],
)
def test_cli_import_and_bound_verbs_load_no_statistics(name, step):
    report = _step(name, step)
    assert report["exit"] == 0, report
    assert report["loaded"]["statistics"] is False


def test_ci_loads_statistics():
    # the check above is live: the verb that needs the quantile does load it
    report = _step("ci", CI_STATISTICS)
    assert report["exit"] == 0, report
    assert report["loaded"]["statistics"] is True


@pytest.mark.parametrize("verb", ["table", "simulate", "mse-sweep"])
def test_simulation_verbs_at_one_worker_load_no_process_pool(verb):
    # concurrent.futures loads multiprocessing; only raw-sample blocks spread
    # over several workers use it.  This is the interpreter's first step.
    assert INTERPRETERS[verb][1][0] == VERB_ARGS[verb] + ONE_WORKER
    report = _step(verb, VERB_ARGS[verb] + ONE_WORKER)
    assert report["exit"] == 0, report
    assert report["process_pool"] is False


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_verb_loads_only_declared_dependencies(verb):
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        declared = {
            _canonical(re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0])
            for dep in tomllib.load(fh)["project"]["dependencies"]
        }
    # Modules without a file (Cython's runtime modules, __mp_main__) are
    # made at run time, not imported from any distribution.
    assert _step(verb, VERB_ARGS[verb])["exit"] == 0
    distributions = importlib.metadata.packages_distributions()
    for module in _report(verb)["third_party"]:
        owners = {_canonical(d) for d in distributions.get(module, [module])}
        assert owners & declared, f"{verb} loads {module} ({sorted(owners)}), not a dependency"
