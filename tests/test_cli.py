"""CLI surface: verbs, formats, exit codes, environment seed."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import steinmle
from steinmle.cli import main

SNAPSHOTS = Path(__file__).parent / "snapshots"


def _run_cli(args):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = os.path.dirname(os.path.dirname(steinmle.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "steinmle.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _json_out(result):
    return json.loads(result.output)


def test_version_from_a_source_checkout():
    out = _run_cli(["--version"])
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"steinmle, version {steinmle.__version__}\n"
    assert out.stderr == ""


@pytest.mark.parametrize(
    "args",
    [
        ["table", "1", "--trials", "10", "--format", "json"],
        ["simulate", "--model", "poisson", "--theta0", "5", "--n", "20", "--trials", "50",
         "--format", "json"],
        ["mse-sweep", "--n-from", "7460", "--n-to", "7461", "--trials", "5", "--format", "json"],
    ],
    ids=["table", "simulate", "mse-sweep"],
)
def test_verbs_computing_gaussian_expectations_run_without_scipy(args):
    # a None entry in sys.modules makes every import of that module fail;
    # mpmath, like scipy, is a test-only dependency
    src = os.path.dirname(os.path.dirname(steinmle.__file__))
    code = (
        "import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
        "from steinmle.cli import main; main()"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    json.loads(out.stdout)


class TestBoundCommand:
    def test_table1_last_row(self, runner):
        result = runner.invoke(
            main,
            [
                "bound",
                "--model",
                "exp-canonical",
                "--theta0",
                "1",
                "--n",
                "100000",
                "--h-sup",
                "0.5",
                "--h-lip",
                "0.2296401",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        payload = _json_out(result)
        assert payload["schema"] == "steinmle/bound/v1"
        assert payload["breakdown"]["total"] == pytest.approx(0.009, abs=1e-3)
        assert payload["kolmogorov_bound"] == pytest.approx(
            2.0 * payload["breakdown"]["total"] ** 0.5, rel=1e-12
        )

    def test_poisson_zero_total(self, runner):
        result = runner.invoke(
            main,
            ["bound", "--model", "poisson", "--theta0", "0", "--n", "50", "--format", "json"],
        )
        assert result.exit_code == 0
        assert _json_out(result)["breakdown"]["total"] == 0.0

    def test_beta_below_minimal_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["bound", "--model", "beta", "--theta0", "1.5", "--beta", "1", "--n", "7000"],
        )
        assert result.exit_code == 2
        assert "minimal n = 7460" in result.output

    def test_json_error_on_stderr(self, runner):
        result = runner.invoke(
            main,
            ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7000", "--format", "json"],
        )
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip())
        assert err["schema"] == "steinmle/error/v1"
        assert err["error"] == "DomainError"
        assert "minimal n" in err["message"]

    def test_csv_format(self, runner):
        result = runner.invoke(
            main,
            [
                "bound",
                "--model",
                "exp-noncanonical",
                "--theta0",
                "2",
                "--n",
                "10",
                "--format",
                "csv",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "label,value"
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["score", "markov_tail", "r2", "taylor_remainder", "total", "kolmogorov_bound"]


def test_in_process_calls_keep_no_output_alive():
    # nothing may keep a reference to a redirected StringIO (a cache of the
    # stream each call wrote to, say): it would hold every call's output for good
    args = ["bound", "--model", "exp-canonical", "--theta0", "1", "--n", "100", "--format", "json"]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, standalone_mode=False)

    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            call()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 50_000


class TestTableCommand:
    def test_table1_bound_column(self, runner):
        result = runner.invoke(
            main, ["table", "1", "--trials", "40", "--seed", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = _json_out(result)["rows"]
        bounds = [row["bound_total"] for row in rows]
        targets = [1.955, 0.336, 0.094, 0.029, 0.009]
        for got, want in zip(bounds, targets):
            assert got == pytest.approx(want, abs=1e-3)

    def test_table2_direct_column(self, runner):
        result = runner.invoke(
            main, ["table", "2", "--trials", "40", "--seed", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = _json_out(result)["rows"]
        direct = [row["direct_bound"] for row in rows]
        for got, want in zip(direct, [0.321, 0.101, 0.032, 0.010, 0.003]):
            assert got == pytest.approx(want, abs=1e-3)
        general = [row["bound_total"] for row in rows]
        for got, want in zip(general, [11.888, 3.401, 1.058, 0.333, 0.105]):
            assert got == pytest.approx(want, abs=5e-3)

    def test_table3_bound_column(self, runner):
        result = runner.invoke(
            main, ["table", "3", "--trials", "25", "--seed", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = _json_out(result)["rows"]
        for row, want in zip(rows, [0.2517, 0.0416, 0.0223, 0.0151, 0.0112]):
            assert row["bound_total"] == pytest.approx(want, abs=5e-4)
            assert row["target"] == "mse"

    def test_table_text_rendering(self, runner):
        result = runner.invoke(main, ["table", "1", "--trials", "25", "--seed", "1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split() == ["n", "empirical", "bound", "error"]
        assert "1.955" in lines[1]

    def test_table_csv_schema(self, runner):
        result = runner.invoke(
            main, ["table", "1", "--trials", "25", "--seed", "1", "--format", "csv"]
        )
        header = result.output.splitlines()[0]
        assert header == "model,theta0,n,trials,seed,empirical_distance,empirical_mse,bound_total,error"

    def test_table_csv_reproducible(self, runner):
        args = ["table", "2", "--trials", "30", "--seed", "11", "--format", "csv"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2


class TestSimulateCommand:
    def test_dominance_row(self, runner):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--model",
                "exp-canonical",
                "--theta0",
                "1",
                "--n",
                "10",
                "--trials",
                "2000",
                "--seed",
                "42",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        payload = _json_out(result)
        assert payload["empirical_distance"] <= payload["bound_total"]
        assert payload["bound_total"] == pytest.approx(1.955, abs=1e-3)

    def test_env_seed_used(self, runner):
        args = [
            "simulate",
            "--model",
            "exp-canonical",
            "--theta0",
            "1",
            "--n",
            "20",
            "--trials",
            "50",
            "--format",
            "json",
        ]
        with_env = runner.invoke(main, args, env={"STEINMLE_SEED": "31"})
        explicit = runner.invoke(main, args + ["--seed", "31"])
        assert with_env.exit_code == explicit.exit_code == 0
        assert _json_out(with_env)["empirical_distance"] == _json_out(explicit)["empirical_distance"]
        assert _json_out(with_env)["seed"] == 31

    def test_non_integer_env_seed_is_a_validation_error(self, runner):
        args = ["table", "1", "--trials", "2", "--format", "json"]
        result = runner.invoke(main, args, env={"STEINMLE_SEED": "x"})
        assert result.exit_code == 2
        err = json.loads(result.stderr)
        assert err["error"] == "DomainError"
        assert err["message"] == "STEINMLE_SEED must be an integer, got 'x'"


class TestCiCommand:
    def test_conservative_coverage(self, runner):
        result = runner.invoke(
            main,
            [
                "ci",
                "--model",
                "exp-noncanonical",
                "--theta0",
                "2",
                "--n",
                "1000",
                "--alpha",
                "0.05",
                "--trials",
                "100",
                "--seed",
                "7",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        payload = _json_out(result)
        assert payload["coverage"] >= 0.95

    def test_poisson_rejected(self, runner):
        result = runner.invoke(
            main,
            ["ci", "--model", "poisson", "--theta0", "1", "--n", "100", "--trials", "10"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "1000", "--trials", "0"],
            ["--n", "1000", "--trials", "-5"],
            ["--n", "10000000", "--alpha", "0.9", "--trials", "0"],
        ],
        ids=["degenerate-0", "degenerate-negative", "interval-0"],
    )
    def test_nonpositive_trials_exit_2(self, runner, args):
        base = ["ci", "--model", "exp-canonical", "--theta0", "1", "--format", "json"]
        result = runner.invoke(main, base + args)
        assert result.exit_code == 2
        assert json.loads(result.stderr)["message"].startswith("trials must")


class TestMseSweepCommand:
    def test_rows(self, runner):
        result = runner.invoke(
            main,
            [
                "mse-sweep",
                "--theta0",
                "1.5",
                "--beta",
                "1",
                "--n-from",
                "7500",
                "--n-to",
                "7700",
                "--n-step",
                "200",
                "--trials",
                "40",
                "--seed",
                "2",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        rows = _json_out(result)["rows"]
        assert [row["n"] for row in rows] == [7500, 7700]
        assert rows[0]["bound_total"] == pytest.approx(0.252048, abs=1e-4)

    def test_below_minimal_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["mse-sweep", "--n-from", "7000", "--n-to", "7000", "--trials", "5"],
        )
        assert result.exit_code == 2

    def test_integer_shape_identical_across_worker_counts(self, runner):
        base = ["mse-sweep", "--theta0", "1.5", "--beta", "2", "--n-from", "11848",
                "--n-to", "12848", "--n-step", "1000", "--trials", "12", "--seed", "3",
                "--format", "csv"]
        out = [runner.invoke(main, base + ["--workers", w]).stdout for w in ("1", "2")]
        assert out[0].count("\n") == 3
        assert out[0] == out[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "name,args",
    [
        ("table3", ["table", "3", "--trials", "40", "--seed", "11"]),
        ("sweep1", ["mse-sweep", "--theta0", "1.5", "--beta", "1", "--n-from", "7460",
                    "--n-to", "7860", "--n-step", "200", "--trials", "40", "--seed", "11"]),
    ],
)
def test_unit_shape_beta_output_matches_snapshot(runner, name, args, fmt):
    # recorded from the raw-statistic sampler the integer-shape law replaced;
    # shape 1 draws the same numbers from the same stream
    result = runner.invoke(main, args + ["--format", fmt])
    assert result.exit_code == 0
    assert result.stdout_bytes == (SNAPSHOTS / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize(
    "snapshot,args",
    [
        ("table1.json", ["table", "1", "--trials", "40", "--seed", "7", "--format", "json"]),
        ("table2.csv", ["table", "2", "--trials", "40", "--seed", "7", "--format", "csv"]),
        ("sweep-beta2.json", ["mse-sweep", "--theta0", "1.5", "--beta", "2", "--n-from", "11848",
                              "--n-to", "12848", "--n-step", "1000", "--trials", "20",
                              "--seed", "7", "--format", "json"]),
        ("sweep-beta2.5.json", ["mse-sweep", "--theta0", "1.5", "--beta", "2.5", "--n-from",
                                "14816", "--n-to", "15816", "--n-step", "1000", "--trials",
                                "20", "--seed", "7", "--format", "json"]),
    ],
)
def test_batched_rows_output_matches_snapshot(runner, snapshot, args):
    # recorded with every row run on its own: one E h(Z), one shape root and
    # one h call per row; sharing them across rows changes no byte
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stdout_bytes == (SNAPSHOTS / snapshot).read_bytes()


@pytest.mark.parametrize(
    "args,count",
    [(["table", "1"], 1), (["table", "2"], 1), (["table", "3"], 1),
     (["mse-sweep", "--n-from", "7460", "--n-to", "7470", "--n-step", "5"], 1)],
    ids=["table-1", "table-2", "table-3", "mse-sweep"],
)
def test_gaussian_expectation_computed_once_per_invocation(runner, monkeypatch, args, count):
    from steinmle.montecarlo import harness

    calls = []
    original = harness.normal_expectation

    def counted(*a, **k):
        calls.append(a)
        return original(*a, **k)

    monkeypatch.setattr(harness, "normal_expectation", counted)
    result = runner.invoke(main, args + ["--trials", "5"])
    assert result.exit_code == 0, result.output
    assert len(calls) == count


class TestConstantsCommand:
    def test_beta_constants(self, runner):
        result = runner.invoke(
            main,
            ["constants", "--model", "beta", "--theta0", "1.5", "--beta", "1", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = _json_out(result)
        assert payload["schema"] == "steinmle/constants/v1"
        assert payload["minimal_n"] == 7460
        assert payload["B2"] == pytest.approx(25.56296296, abs=1e-6)

    def test_exp_ingredient_audit(self, runner):
        result = runner.invoke(
            main,
            [
                "constants",
                "--model",
                "exp-canonical",
                "--theta0",
                "1",
                "--n",
                "10",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        ing = _json_out(result)["ingredients"]
        assert ing["mse"] == pytest.approx(12.0 / 72.0, rel=1e-12)
        assert ing["sup_third_is_deterministic"] is True

    def test_missing_n_is_validation_error(self, runner):
        result = runner.invoke(main, ["constants", "--model", "exp-canonical", "--theta0", "1"])
        assert result.exit_code == 2


class TestValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--model", "weibull", "--theta0", "1", "--n", "10"],
            ["bound", "--model", "poisson", "--theta0", "1"],
            ["table", "4"],
            ["bound", "--mod", "poisson", "--theta0", "1", "--n", "10"],
            ["bound", "--model", "poisson", "--theta0", "1", "--n", "1.5"],
            ["weibull"],
            [],
        ],
        ids=["unknown-model", "missing-option", "table-4", "abbreviated-option", "non-integer-n",
             "unknown-verb", "no-verb"],
    )
    def test_usage_error_exits_2(self, runner, args):
        # options match by their full names only, and every verb states its usage
        result = runner.invoke(main, args + ["--format", "json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "usage: steinmle" in result.stderr

    @pytest.mark.parametrize("verb", ["bound", "table", "simulate", "ci", "mse-sweep", "constants"])
    def test_every_verb_has_help(self, runner, verb):
        result = runner.invoke(main, [verb, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"usage: steinmle {verb} ")

    def test_bad_theta0_domain_error(self, runner):
        result = runner.invoke(
            main, ["bound", "--model", "exp-canonical", "--theta0", "-1", "--n", "10"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "3", "--trials", "5"],
            ["mse-sweep", "--beta", "1", "--n-from", "7500", "--n-to", "7500", "--trials", "5"],
            ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10", "--trials", "5"],
        ],
        ids=["table-3", "mse-sweep", "ci"],
    )
    def test_negative_seed_exits_2(self, runner, args):
        result = runner.invoke(main, args + ["--seed", "-1"])
        assert result.exit_code == 2
        assert "seed" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460", "--epsilon", "0.1"],
            ["bound", "--model", "poisson", "--theta0", "5", "--n", "50", "--epsilon", "0.1"],
            ["bound", "--model", "exp-canonical", "--theta0", "1", "--n", "100", "--c", "2"],
            ["bound", "--model", "beta", "--theta0", "1.5", "--n", "7460", "--c", "2"],
            ["simulate", "--model", "poisson", "--theta0", "5", "--n", "20", "--trials", "5",
             "--epsilon", "0.1"],
            ["simulate", "--model", "exp-noncanonical", "--theta0", "2", "--n", "20",
             "--trials", "5", "--c", "2"],
            ["constants", "--model", "poisson", "--theta0", "5", "--n", "50", "--epsilon", "0.1"],
            ["constants", "--model", "beta", "--theta0", "1.5", "--epsilon", "0.1"],
        ],
        ids=["bound-beta-epsilon", "bound-poisson-epsilon", "bound-exp-c", "bound-beta-c",
             "simulate-poisson-epsilon", "simulate-exp-c", "constants-poisson-epsilon",
             "constants-beta-epsilon"],
    )
    def test_option_the_model_ignores_exits_2(self, runner, args):
        result = runner.invoke(main, args + ["--format", "json"])
        assert result.exit_code == 2
        option = "epsilon" if "--epsilon" in args else "c applies"
        assert option in json.loads(result.stderr)["message"]

    def test_numerical_failure_maps_to_exit_3(self):
        from steinmle.cli import _guard
        from steinmle.errors import ConvergenceError

        def boom():
            raise ConvergenceError("iteration stalled", bracket=(0.0, 1.0))

        with pytest.raises(SystemExit) as excinfo:
            _guard("text", boom)
        assert excinfo.value.code == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--model", "poisson", "--theta0", "1e300", "--n", "10"],
            ["bound", "--model", "exp-canonical", "--theta0", "1e-300", "--n", "10"],
            ["simulate", "--model", "exp-canonical", "--theta0", "1e300", "--n", "10",
             "--trials", "5"],
            ["bound", "--model", "poisson", "--theta0", "1e-300", "--n", "10"],
            ["bound", "--model", "exp-canonical", "--theta0", "1e300", "--n", "10"],
            ["bound", "--model", "beta", "--theta0", "1e300", "--n", "10"],
            ["bound", "--model", "beta", "--theta0", "1e300", "--beta", "1.7976931348623157e308",
             "--n", "10"],
            ["constants", "--model", "exp-noncanonical", "--theta0", "1e-300", "--n", "10"],
        ],
        ids=["poisson-overflow", "exp-zero-division", "simulate-overflow",
             "poisson-zero-division", "exp-overflow", "beta-overflow", "beta-sum-overflow",
             "constants-zero-division"],
    )
    def test_arithmetic_error_maps_to_exit_3(self, args):
        # a value leaving the float range is a numerical failure of the package's own kind
        out = _run_cli(args + ["--format", "json"])
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        err = json.loads(out.stderr)
        assert err["schema"] == "steinmle/error/v1"
        assert err["error"] == "FloatRangeError"
        text = _run_cli(args)
        assert text.returncode == 3
        assert text.stderr.startswith("error: ") and "Traceback" not in text.stderr

    def test_poisson_constants_audit(self, runner):
        result = runner.invoke(
            main,
            [
                "constants",
                "--model",
                "poisson",
                "--theta0",
                "1",
                "--n",
                "100",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        payload = _json_out(result)
        assert payload["bound"]["total"] > 0.0

    def test_table_workers_flag_reproducible(self, runner):
        base = ["table", "3", "--trials", "20", "--seed", "4", "--format", "csv"]
        out1 = runner.invoke(main, base + ["--workers", "1"]).output
        out2 = runner.invoke(main, base + ["--workers", "2"]).output
        assert out1 == out2

    def test_mse_sweep_csv_header(self, runner):
        result = runner.invoke(
            main,
            [
                "mse-sweep",
                "--n-from",
                "7500",
                "--n-to",
                "7500",
                "--trials",
                "10",
                "--format",
                "csv",
            ],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == (
            "model,theta0,n,trials,seed,empirical_distance,empirical_mse,bound_total,error"
        )
