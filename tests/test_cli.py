"""CLI surface: verbs, formats, exit codes, environment seed."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import steinmle
from steinmle import boundary, cli, registry
from steinmle.cli import main
from steinmle.registry import get_model
from steinmle.expfam import exp_canonical_ingredients, exp_noncanonical_ingredients
from steinmle.steincore import inv_quadratic_test_function, kolmogorov_from_bw, score_bound

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


def _strict_json(text):
    """``text`` parsed as strict JSON, which has no Infinity or NaN."""

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_version_from_a_source_checkout():
    out = _run_cli(["--version"])
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"steinmle, version {steinmle.__version__}\n"
    assert out.stderr == ""


class TestBoundCommand:
    @pytest.mark.parametrize(
        "model,theta0,n",
        [("exp-canonical", "1", "100000"), ("exp-noncanonical", "2", "1000"),
         ("poisson", "5", "50"), ("beta", "1.5", "7500")],
    )
    def test_kolmogorov_bound_does_not_depend_on_the_h_weights(self, runner, model, theta0, n):
        # the Kolmogorov distance involves no h, so neither may its bound
        base = ["bound", "--model", model, "--theta0", theta0, "--n", n, "--format", "json"]
        unit = _json_out(runner.invoke(main, base))
        assert unit["schema"] == "steinmle/bound/v1"
        assert unit["kolmogorov_bound"] == kolmogorov_from_bw(unit["breakdown"]["total"])
        pairs = [("0.5", "0.2296401"), ("0.01", "0.01"), ("1", "0.1")]
        if get_model(model).uses_h_weights:  # poisson and beta refuse a weight above 1
            pairs.append(("2", "3"))
        for sup, lip in pairs:
            weighted = _json_out(runner.invoke(main, base + ["--h-sup", sup, "--h-lip", lip]))
            assert weighted["kolmogorov_bound"] == unit["kolmogorov_bound"]
            bound = get_model(model).distance_bound(float(theta0), int(n), (float(sup), float(lip)))
            assert weighted["breakdown"] == bound.to_dict()

    @pytest.mark.parametrize("theta0", ["1e-6", "1e-3", "0.04", "1"])
    @pytest.mark.parametrize("n", ["1000", "1000000000000000"])
    def test_poisson_kolmogorov_bound_uses_the_target_density(self, runner, theta0, n):
        # the Poisson route targets N(0, theta0), whose density is bounded by
        # C = (2 pi theta0)^(-1/2), not by the unit normal's
        args = ["bound", "--model", "poisson", "--theta0", theta0, "--n", n, "--format", "json"]
        payload = _json_out(runner.invoke(main, args))
        b, c = payload["breakdown"]["total"], (2.0 * math.pi * float(theta0)) ** -0.5
        expected = max(2.0 * math.sqrt(b), math.sqrt(2.0 * c * b))
        assert payload["kolmogorov_bound"] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert payload["kolmogorov_bound"] >= math.sqrt(2.0 * c * b) * (1.0 - 1e-15)

    def test_poisson_kolmogorov_bound_at_theta0_zero(self, runner):
        args = ["bound", "--model", "poisson", "--theta0", "0", "--n", "50", "--format", "json"]
        assert _json_out(runner.invoke(main, args))["kolmogorov_bound"] == 0.0

    @pytest.mark.parametrize("model,args", [("poisson", ["--theta0", "5", "--n", "50"]),
                                            ("beta", ["--theta0", "1.5", "--n", "7500"])])
    def test_weight_free_route_computes_one_bound(self, runner, monkeypatch, model, args):
        # poisson and beta ignore the h weights, so the unit-weight total that
        # the Kolmogorov bound converts is the bound already computed
        calls, searches = [], []
        bound, search = registry.Model.distance_bound, boundary.minimize_poisson_c
        monkeypatch.setattr(registry.Model, "distance_bound",
                            lambda *a, **k: calls.append(a) or bound(*a, **k))
        monkeypatch.setattr(boundary, "minimize_poisson_c",
                            lambda *a: searches.append(a) or search(*a))
        base = ["bound", "--model", model, *args]
        for fmt in ("text", "csv", "json"):
            unit = runner.invoke(main, base + ["--format", fmt])
            del calls[:], searches[:]
            weighted = runner.invoke(main, base + ["--h-sup", "0.5", "--format", fmt])
            assert weighted.exit_code == unit.exit_code == 0
            assert len(calls) == 1
            assert len(searches) == (model == "poisson")
            if fmt == "json":
                assert _json_out(weighted) == dict(_json_out(unit), h_sup=0.5)
            else:
                assert weighted.stdout == unit.stdout

    def test_text_format(self, runner):
        # a term a line, the labels padded to the longest, six significant digits
        result = runner.invoke(main, ["bound", "--model", "exp-noncanonical", "--theta0", "2",
                                      "--n", "10"])
        assert result.stdout == (
            "score             1.39601\n"
            "markov_tail       0.8\n"
            "r2                0.632456\n"
            "taylor_remainder  48\n"
            "total             50.8285\n"
            "kolmogorov        14.2588\n"
        )

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
    def test_table2_direct_column_is_the_score_bound(self, runner):
        # the column is the score term of each row's distance bound: the
        # normalised-sum bound, bit for bit, at the table's n and elsewhere
        weights = inv_quadratic_test_function().weights
        rows = _json_out(runner.invoke(main, ["table", "2", "--trials", "2", "--format", "json"]))["rows"]
        for row in rows:
            ing = exp_noncanonical_ingredients(2.0, row["n"])
            assert row["direct_bound"] == score_bound(ing, weights).total
        for n in (3, 7, 10**6):
            bound = get_model("exp-noncanonical").distance_bound(2.0, n, h_weights=weights)
            score = score_bound(exp_noncanonical_ingredients(2.0, n), weights).total
            assert dict(bound.terms)["score"] == score

    def test_table_text_rendering(self, runner):
        result = runner.invoke(main, ["table", "1", "--trials", "25", "--seed", "1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split() == ["n", "empirical", "bound", "error"]
        assert "1.955" in lines[1]


class TestSimulateCommand:
    def test_one_trial_has_no_standard_error(self, runner):
        args = ["simulate", "--model", "exp-canonical", "--theta0", "1", "--n", "10", "--trials", "1"]
        assert "standard_error    n/a\n" in runner.invoke(main, args).stdout


class TestCiCommand:
    def test_quantile_rounding_onto_one_is_degenerate(self, runner):
        # b_k falls a few ulps below alpha/2, so the lower quantile's argument
        # is positive but 1 - alpha/2 + b_k rounds to 1: the whole line
        args = ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "10000000",
                "--alpha", "0.25065130648591133", "--format", "json"]
        payload = _json_out(runner.invoke(main, args))
        assert payload["b_k"] < payload["alpha"] / 2.0
        assert payload["degenerate"] is True and payload["coverage"] == 1.0

    def test_degenerate_interval_draws_nothing_at_any_drawable_count(self, runner):
        # the whole line covers by construction: no trial is drawn, so 10^18
        # trials, which simulate could not allocate, give the exact coverage
        # 1.0 at once, and only 2^60 and up is refused, as for every verb
        base = ["ci", "--model", "exp-canonical", "--theta0", "1", "--n", "1000",
                "--alpha", "0.05", "--format", "json", "--trials"]
        payload = _json_out(runner.invoke(main, base + [str(10**18)]))
        assert payload["degenerate"] is True and payload["coverage"] == 1.0
        assert payload["trials"] == 10**18
        result = runner.invoke(main, base + [str(2**60)])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"] == "MemoryError"
        assert "no trial is drawn" in " ".join(cli.cmd_ci.__doc__.split())


class TestMseSweepCommand:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_overflowed_scale_exits_3_before_any_draw(self, runner, monkeypatch, fmt):
        # sqrt(n i) overflows at theta0 1e-70, n 10^170: refused as the
        # distance rows' scale is, with no draw and no RuntimeWarning
        import warnings

        from steinmle.montecarlo import _pykernels

        drawn, trial_stats = [], _pykernels.trial_stats
        monkeypatch.setattr(_pykernels, "trial_stats", lambda *a: drawn.append(a) or trial_stats(*a))
        n = str(10**170)
        args = ["mse-sweep", "--theta0", "1e-70", "--beta", "1", "--n-from", n, "--n-to", n,
                "--trials", "2", "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert "standardize_scale: the scale overflowed to inf" in result.stderr
        assert drawn == []

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
        ("sweep-beta2.5.json", ["mse-sweep", "--theta0", "1.5", "--beta", "2.5", "--n-from",
                                "14816", "--n-to", "15816", "--n-step", "1000", "--trials",
                                "20", "--seed", "7", "--format", "json", "--workers", "2"]),
    ],
)
def test_batched_rows_output_matches_snapshot(runner, snapshot, args):
    # recorded with every row run on its own: one E h(Z), one shape root and
    # one h call per row; sharing them across rows changes no byte, and nor
    # does splitting the raw-sample blocks over two workers
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
    @pytest.mark.parametrize("n", [3, 4])
    def test_canonical_fourth_moment_below_n5_is_null(self, runner, n):
        # E(1/mean - theta0)^4 does not exist below n = 5: null in JSON, None
        # in text and CSV, exit 0 in all three; the ingredients keep +inf.
        args = ["constants", "--model", "exp-canonical", "--theta0", "1", "--n", str(n)]
        result = runner.invoke(main, args + ["--format", "json"])
        assert result.exit_code == 0, result.output
        ing = _strict_json(result.stdout)["ingredients"]
        assert ing["fourth_mle_moment"] is None and ing["n"] == n
        text = runner.invoke(main, args)
        assert text.exit_code == 0 and "ingredients.fourth_mle_moment = None" in text.stdout
        csv = runner.invoke(main, args + ["--format", "csv"])
        assert csv.exit_code == 0 and "ingredients.fourth_mle_moment,None" in csv.stdout
        assert get_model("exp-canonical").audit(1.0, n)["ingredients"]["fourth_mle_moment"] is None
        assert exp_canonical_ingredients(1.0, n).to_dict()["fourth_mle_moment"] == math.inf


def _parse_outcome(parse, argv):
    """What one parse of ``argv`` gives: the options (None if it exits), the
    exit code (0 if it returns), and what it printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    options, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            options = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return options, code, out.getvalue(), err.getvalue()


class TestParsing:
    """``main`` hands a named verb's arguments to that verb's parser; each
    argv must give what the top-level parser, reading all of it, gives."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["bound", "-h"],
            ["--version"],
            [],
            ["weibull", "--n", "3"],
            ["bound", "--model", "poisson", "--theta0", "1"],
            ["bound", "--model", "poisson", "--theta0", "1", "--n", "5", "extra", "--bogus=1"],
            ["simulate", "--model=poisson", "--theta0=5", "--n=20", "--trials=10", "--format=json"],
            ["bound", "--model", "weibull", "--theta0", "1", "--n", "3"],
            ["table", "4"],
            ["table", "1", "--trials", "5", "--seed", "3"],
            ["bound", "--version"],
        ],
        ids=["help", "verb-help", "version", "no-verb", "unknown-verb", "missing-option",
             "unrecognized-extra", "opt=value", "bad-choice", "bad-positional", "positional",
             "version-after-verb"],
    )
    def test_verb_parser_matches_the_top_level_parser(self, argv):
        direct = _parse_outcome(cli._parse, argv)
        assert direct == _parse_outcome(cli._PARSER.parse_args, argv)
        assert direct[1] in (0, 2)


class TestValidation:
    @pytest.mark.parametrize("verb", ["bound", "table", "simulate", "ci", "mse-sweep", "constants"])
    def test_every_verb_has_help(self, runner, verb):
        result = runner.invoke(main, [verb, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"usage: steinmle {verb} ")

    def test_largest_seed_runs(self, runner):
        args = ["simulate", "--model", "poisson", "--theta0", "5", "--n", "20", "--trials", "5",
                "--format", "json"]
        explicit = runner.invoke(main, args + ["--seed", str(2**128 - 1)])
        from_env = runner.invoke(main, args, env={"STEINMLE_SEED": str(2**128 - 1)})
        assert explicit.exit_code == from_env.exit_code == 0
        assert explicit.stdout == from_env.stdout
        assert _json_out(explicit)["seed"] == 2**128 - 1

    def test_numerical_failure_maps_to_exit_3(self):
        from steinmle.cli import _guard
        from steinmle.errors import ConvergenceError

        def boom():
            raise ConvergenceError("iteration stalled", bracket=(0.0, 1.0))

        with pytest.raises(SystemExit) as excinfo:
            _guard("text", boom)
        assert excinfo.value.code == 3
