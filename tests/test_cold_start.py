"""Cold start: what a fresh interpreter loads for each verb.

``bound`` and ``constants`` must not load numpy, mpmath or ``statistics``
(the normal quantile's module, which only ``ci`` needs), only JSON output
may load ``json``, neither the package's import nor ``bound`` may load
``dataclasses``, no verb may load mpmath or scipy, and every third-party
module a verb loads must be a declared runtime dependency.  Each test starts its own interpreter, since
the test process has long since imported all of them.
"""

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


def _fresh(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )


def _canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


@pytest.mark.parametrize("module", ["steinmle", "steinmle.cli"])
def test_import_loads_no_numpy_mpmath_or_scipy(module):
    out = _fresh(
        f"import sys, {module}; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'mpmath', 'scipy'}))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "code",
    [
        "import steinmle",
        "import steinmle.cli",
        "from steinmle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:], standalone_mode=False)",
    ],
    ids=["import", "import-cli", "bound-beta"],
)
def test_no_dataclasses_loaded(code):
    # the value types are plain classes: importing dataclasses, with the
    # inspect it loads, took longer than the rest of the package
    out = _fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print('dataclasses' in set(sys.modules) - before)",
        *VERB_ARGS["bound"],
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "args",
    [["bound", "--model", m, "--theta0", "1.5", "--n", "7460"] for m in MODEL_NAMES]
    + [
        ["constants", "--model", "beta", "--theta0", "1.5", "--n", "7460"],
        ["constants", "--model", "poisson", "--theta0", "1.5", "--n", "100"],
    ],
    ids=[f"bound-{m}" for m in MODEL_NAMES] + ["constants-beta", "constants-poisson"],
)
def test_bound_verbs_run_without_numpy_or_mpmath(args):
    # a None entry in sys.modules makes every import of that module fail
    out = _fresh(
        "import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None; "
        "from steinmle.cli import main; main()",
        *args,
        "--format",
        "json",
    )
    assert out.returncode == 0, out.stderr
    json.loads(out.stdout)


@pytest.mark.parametrize(
    "args,loaded",
    [([], False), (VERB_ARGS["bound"], False), (VERB_ARGS["bound"] + ["--format", "csv"], False),
     (VERB_ARGS["bound"] + ["--format", "json"], True)],
    ids=["import", "bound-text", "bound-csv", "bound-json"],
)
def test_only_json_output_loads_json(args, loaded):
    # json is imported by the emitters for --format json alone
    out = _fresh(
        "import contextlib, io, sys\n"
        "from steinmle.cli import main\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(sys.argv[1:], standalone_mode=False)\n"
        "print('json' in sys.modules)",
        *args,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(loaded)


@pytest.mark.parametrize(
    "args",
    [[]]
    + [["bound", "--model", m, "--theta0", "1.5", "--n", "7460"] for m in MODEL_NAMES]
    + [["constants", "--model", m, "--theta0", "1.5", "--n", "7460"] for m in MODEL_NAMES],
    ids=["import"] + [f"bound-{m}" for m in MODEL_NAMES] + [f"constants-{m}" for m in MODEL_NAMES],
)
def test_cli_import_and_bound_verbs_load_no_statistics(args):
    out = _fresh(
        "import contextlib, io, sys\n"
        "from steinmle.cli import main\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(sys.argv[1:], standalone_mode=False)\n"
        "print('statistics' in sys.modules)",
        *args,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_ci_loads_statistics():
    # the check above is live: the verb that needs the quantile does load it
    out = _fresh(
        "import contextlib, io, sys\n"
        "from steinmle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "print('statistics' in sys.modules)",
        "ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000", "--alpha", "0.9",
        "--trials", "2",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("verb", ["table", "simulate", "mse-sweep"])
def test_simulation_verbs_at_one_worker_load_no_process_pool(verb):
    # concurrent.futures loads multiprocessing; only raw-sample blocks spread
    # over several workers use it
    out = _fresh(
        "import contextlib, io, sys\n"
        "from steinmle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "print('concurrent.futures' in sys.modules)",
        *VERB_ARGS[verb],
        "--workers",
        "1",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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
    out = _fresh(
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from steinmle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "loaded -= set(sys.stdlib_module_names) | {'steinmle'}\n"
        "print(json.dumps(sorted(m for m in loaded if getattr(sys.modules[m], '__file__', None))))",
        *VERB_ARGS[verb],
    )
    assert out.returncode == 0, out.stderr
    distributions = importlib.metadata.packages_distributions()
    for module in json.loads(out.stdout):
        owners = {_canonical(d) for d in distributions.get(module, [module])}
        assert owners & declared, f"{verb} loads {module} ({sorted(owners)}), not a dependency"
