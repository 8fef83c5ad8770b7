"""The benchmark's contract with covsel: its tracer wraps covsel
functions by name, so each must exist, and its reference re-draws the
oracle simulation's random streams, so they must not change."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from covsel.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def traced_names():
    """The FUNCTIONS tuple of bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS tuple in {TRACING}")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"covsel.{module}"), attr, None)), name


def load_reference():
    """bench/reference.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_reference", BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_simulate_keeps_the_reference_streams(tmp_path, seed):
    """The benchmark checks `simulate --table oracle` exactly against
    `reference.oracle_tables`, which re-draws each replicate from its own
    stream, so a change of `simulate`'s streams must fail here as well."""
    reference = load_reference()
    d, beta_inverse, n_values, reps = 5, 2.0, (5, 10), 30
    out = tmp_path / "simulate.json"
    argv = [
        "simulate", "--table", "oracle", "--d", str(d), "--beta-inv", str(beta_inverse),
        "--n", *map(str, n_values), "--reps", str(reps), "--seed", str(seed), "--json", str(out),
    ]
    assert main(argv) == 0
    got = json.loads(out.read_text())["tables"]
    want = reference.oracle_tables(seed, d, beta_inverse, n_values, reps)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["n"], g["reps"], g["exclusions"]) == (w["n"], w["reps"], 0)
        for label, matrix in w["matrices"].items():
            assert g["matrices"][label]["counts"] == matrix["counts"], (w["n"], label)
        assert len(g["comparisons"]) == len(w["comparisons"])
        for gc, wc in zip(g["comparisons"], w["comparisons"]):
            for key in ("first", "second", "scope", "better", "b", "c", "method", "significant"):
                assert gc[key] == wc[key], (w["n"], gc["first"], gc["second"], gc["scope"], key)
            assert gc["statistic"] == pytest.approx(wc["statistic"], rel=1e-12, abs=1e-12)
            assert gc["p_value"] == pytest.approx(wc["p_value"], rel=1e-9, abs=1e-9)
