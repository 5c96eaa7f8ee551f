"""Bound values against recorded snapshots.

``snapshots/bounds.json`` holds every term and total of ``distance_bound``
for the four models over a grid of settings, the Beta MSE bound and table
2's direct column.  Beta and Poisson values must match bit for bit;
exponential values within 1e-15 relative, room for the last-digit moves of
a reordered score term.  ``snapshots/constants-*.json`` are the
``constants --format json`` outputs, byte for byte.
``snapshots/poisson-c.json`` holds ``float.hex`` of the searched Poisson c
and of the Poisson total at it, which must match exactly.

Run this file as a script with no argument to re-record all three, or as
``python tests/test_bound_snapshots.py poisson-c`` to re-record only the
Poisson c snapshot; any other argument is refused and records nothing.
"""

import json
import sys
from pathlib import Path

import pytest
from conftest import CliRunner

from steinmle.boundary import minimize_poisson_c, poisson_bound
from steinmle.cli import main
from steinmle.expfam import exp_noncanonical_ingredients
from steinmle.registry import get_model
from steinmle.steincore import inv_quadratic_test_function, score_bound

SNAPSHOTS = Path(__file__).parent / "snapshots"
BOUNDS = SNAPSHOTS / "bounds.json"
POISSON_C = SNAPSHOTS / "poisson-c.json"
EXP_RTOL = 1e-15

TABLE_NS = [10, 100, 1000, 10000, 100000]
TABLE_WEIGHTS = inv_quadratic_test_function().weights
UNIT_WEIGHTS = (1.0, 1.0)

CONSTANTS_ARGS = {
    "exp-canonical": ["--theta0", "1", "--n", "10"],
    "exp-noncanonical": ["--theta0", "2", "--n", "100", "--epsilon", "0.5"],
    "poisson": ["--theta0", "5", "--n", "50"],
    "beta": ["--theta0", "1.5", "--beta", "2.5", "--n", "14816"],
}


def _grid():
    """The recorded settings: (kind, model, theta0, n, beta, weights, epsilon, c)."""
    out = []
    for model, theta0, ns in (
        ("exp-canonical", 1.0, [3, 4, 5] + TABLE_NS),
        ("exp-noncanonical", 2.0, [1, 2] + TABLE_NS),
        ("exp-canonical", 0.3, TABLE_NS),
        ("exp-noncanonical", 7.5, TABLE_NS),
    ):
        for n in ns:
            for weights in (TABLE_WEIGHTS, UNIT_WEIGHTS):
                out.append(("distance", model, theta0, n, 1.0, weights, None, "auto"))
            out.append(("distance", model, theta0, n, 1.0, UNIT_WEIGHTS, theta0 / 4.0, "auto"))
    for n in TABLE_NS:
        out.append(("direct", "exp-noncanonical", 2.0, n, 1.0, TABLE_WEIGHTS, None, "auto"))
    for theta0 in (0.0, 1e-3, 0.5, 5.0, 60.0):
        for n in (1, 20, 1000):
            out.append(("distance", "poisson", theta0, n, 1.0, UNIT_WEIGHTS, None, "auto"))
            out.append(("distance", "poisson", theta0, n, 1.0, UNIT_WEIGHTS, None, 0.5))
    for beta in (1.0, 2.0, 2.5):
        for theta0 in (0.8, 1.5, 4.0):
            floor_n = get_model("beta", beta=beta).audit(theta0, None)["minimal_n"]
            for n in (floor_n, floor_n + 1, 2 * floor_n, 10 * floor_n + 7):
                for kind in ("distance", "mse"):
                    out.append((kind, "beta", theta0, n, beta, UNIT_WEIGHTS, None, "auto"))
    return out


def _poisson_c_grid():
    """The Poisson (theta0, n) points whose searched c is pinned: the
    bound-grid benchmark's Poisson lattice, the small-n benchmark's nine
    points, and small means at n = 1, 5 and 10^6."""
    lattice = [
        (10.0 ** (k / 2), int(round(10.0 ** (j / 2))))
        for k in range(-4, 5)
        for j in range(2, 13)
    ]
    small_n = [(theta0, n) for theta0 in (0.5, 5.0, 60.0) for n in (5, 20, 50)]
    small_mean = [(theta0, n) for theta0 in (1e-6, 1e-3, 0.04) for n in (1, 5, 10**6)]
    return lattice + small_n + small_mean


def _poisson_c_entry(theta0, n):
    return {
        "theta0": theta0,
        "n": n,
        "c": minimize_poisson_c(theta0, n).hex(),
        "total": poisson_bound(theta0, n).total.hex(),
    }


def _record_poisson_c():
    entries = [_poisson_c_entry(theta0, n) for theta0, n in _poisson_c_grid()]
    POISSON_C.write_text(json.dumps(entries, indent=1) + "\n")


def _evaluate(kind, model, theta0, n, beta, weights, epsilon, c):
    if kind == "direct":
        bd = score_bound(exp_noncanonical_ingredients(theta0, n), weights)
    elif kind == "mse":
        return {"total": get_model(model, beta=beta).mse_bound(theta0, n)}
    else:
        kwargs = {"h_weights": weights}
        if epsilon is not None:
            kwargs["epsilon"] = epsilon
        if c != "auto":
            kwargs["c"] = c
        bd = get_model(model, beta=beta).distance_bound(theta0, n, **kwargs)
    return {"terms": [[label, value] for label, value in bd.terms], "total": bd.total}


def _record():
    entries = []
    for setting in _grid():
        kind, model, theta0, n, beta, weights, epsilon, c = setting
        entries.append(
            {
                "kind": kind,
                "model": model,
                "theta0": theta0,
                "n": n,
                "beta": beta,
                "weights": list(weights),
                "epsilon": epsilon,
                "c": c,
                **_evaluate(*setting),
            }
        )
    BOUNDS.write_text(json.dumps(entries, indent=1) + "\n")
    runner = CliRunner()
    for model, args in CONSTANTS_ARGS.items():
        result = runner.invoke(main, ["constants", "--model", model, *args, "--format", "json"])
        assert result.exit_code == 0, result.output
        (SNAPSHOTS / f"constants-{model}.json").write_bytes(result.stdout_bytes)


def _entries():
    return json.loads(BOUNDS.read_text())


def _id(entry):
    return (
        f"{entry['kind']}-{entry['model']}-{entry['theta0']!r}-{entry['n']}-{entry['beta']!r}"
        f"-w{entry['weights'][0]:.3g}-e{entry['epsilon']!r}-c{entry['c']!r}"
    )


def _same(model, got, want):
    if model.startswith("exp"):
        return got == pytest.approx(want, rel=EXP_RTOL, abs=0.0)
    return got == want


@pytest.mark.parametrize("entry", _entries(), ids=_id)
def test_bound_matches_snapshot(entry):
    got = _evaluate(
        entry["kind"],
        entry["model"],
        entry["theta0"],
        entry["n"],
        entry["beta"],
        tuple(entry["weights"]),
        entry["epsilon"],
        entry["c"],
    )
    if "terms" in entry:
        assert [label for label, _ in got["terms"]] == [label for label, _ in entry["terms"]]
        for (label, value), (_, want) in zip(got["terms"], entry["terms"]):
            assert _same(entry["model"], value, want), label
    assert _same(entry["model"], got["total"], entry["total"])


@pytest.mark.parametrize(
    "entry",
    json.loads(POISSON_C.read_text()),
    ids=lambda entry: f"{entry['theta0']!r}-{entry['n']}",
)
def test_poisson_c_matches_snapshot(entry):
    assert _poisson_c_entry(entry["theta0"], entry["n"]) == entry


@pytest.mark.parametrize("model", sorted(CONSTANTS_ARGS))
def test_constants_json_matches_snapshot(model):
    result = CliRunner().invoke(
        main, ["constants", "--model", model, *CONSTANTS_ARGS[model], "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (SNAPSHOTS / f"constants-{model}.json").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] == []:
        _record()
        _record_poisson_c()
    elif sys.argv[1:] == ["poisson-c"]:
        _record_poisson_c()
    else:
        sys.exit(f"usage: {sys.argv[0]} [poisson-c]; unknown arguments {sys.argv[1:]!r}")
