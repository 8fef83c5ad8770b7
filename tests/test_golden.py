"""The seeded CLI commands of `make_golden.py` still write the documents in
`golden.json`, manifest aside. Non-float fields (counts, records, picks,
McNemar methods and winners, rankings, skipped structures, subset order)
match exactly; a float lies within 1e-12 * max(1, |x|) of the record, or
1e-11 for the rows and slope of a `rates` study."""

import json
import math

import pytest

from make_golden import COMMANDS, RECORD, outputs

RATES_TOL = 1e-11
TOL = 1e-12


def mismatches(got, want, path, tol):
    """The paths where `got` differs from `want` beyond the tolerance."""
    if isinstance(want, float) and type(got) is float:
        both_nan = math.isnan(want) and math.isnan(got)
        if both_nan or got == want or abs(got - want) <= tol * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}", tol)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]", tol)]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def current():
    return outputs()


def test_record_covers_every_command(record):
    assert sorted(record) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_record(name, record, current):
    want, got = record[name], current[name]
    if name.startswith("rates"):
        study, want_study = dict(got["study"]), dict(want["study"])
        loose = {k: (study.pop(k), want_study.pop(k)) for k in ("rows", "slope")}
        bad = mismatches(study, want_study, "study", TOL)
        bad += [m for k, (g, w) in loose.items() for m in mismatches(g, w, f"study.{k}", RATES_TOL)]
    else:
        bad = mismatches(got, want, name, TOL)
    assert bad == []


def test_mismatches_reads_tolerance_and_types():
    assert mismatches(1.0 + 1e-13, 1.0, "x", TOL) == []
    assert mismatches(1e6 * (1 + 2e-12), 1e6, "x", TOL) != []
    assert mismatches(float("nan"), float("nan"), "x", TOL) == []
    assert mismatches(1, 1.0, "x", TOL) != []
    assert mismatches({"a": [1, "C"]}, {"a": [1, "D"]}, "x", TOL) == ["x.a[1]: 'C' != 'D'"]
