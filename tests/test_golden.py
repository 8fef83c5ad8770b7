"""The seeded CLI commands of `make_golden.py` still write the documents in
`golden.json`, manifest aside. Non-float fields (counts, records, picks,
McNemar methods and winners, rankings, skipped structures, subset order)
match exactly; a float lies within 1e-12 * max(1, |x|) of the record, or
1e-11 for the rows and slope of a `rates` study."""

import json
import math

import pytest

import make_golden
from make_golden import COMMANDS, RECORD, mismatches, outputs

RATES_TOL = 1e-11
TOL = 1e-12


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


def test_check_prints_every_difference_and_writes_nothing(monkeypatch, capsys, record):
    before = RECORD.read_bytes()
    monkeypatch.setattr(make_golden, "outputs", lambda: record)
    assert make_golden.check() == 0
    moved = json.loads(json.dumps(record))
    moved["select-kic"]["n"] += 1
    evidence = moved["select-kic"]["ranked"][0]["log_evidence"]
    moved["select-kic"]["ranked"][0]["log_evidence"] = math.nextafter(evidence, math.inf)
    monkeypatch.setattr(make_golden, "outputs", lambda: moved)
    capsys.readouterr()
    assert make_golden.check() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "golden.select-kic.n", "golden.select-kic.ranked[0].log_evidence"
    ]
    assert lines[-1] == "2 difference(s) from golden.json"
    assert RECORD.read_bytes() == before
