"""The seeded CLI commands of `make_golden.py` still write the documents in
`golden.json`, manifest aside, and print its text. Non-float fields (counts,
records, picks, McNemar methods and winners, rankings, skipped structures,
subset order, and the printed tables and CSV) match exactly; a float lies
within 1e-12 * max(1, |x|) of the record, or 1e-11 for the rows and slope
of a `rates` study, whose CSV goes to --out and must hold its rows."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covsel
import make_golden
from make_golden import COMMANDS, RECORD, STDOUT, mismatches, output, rates_csv_matches

RATES_TOL = 1e-11
TOL = 1e-12


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_command(record):
    assert sorted(record) == sorted(COMMANDS)
    printed = sorted(name for name, doc in record.items() if STDOUT in doc)
    assert printed == sorted(name for name in COMMANDS if not name.startswith("rates"))


def test_rates_csv_must_hold_the_rows(record):
    study = record["rates-fixed-A-vs-D"]["study"]
    row = study["rows"][1]
    text = "n,scaled_statistic,se,target,pair,truth\n" + "\n".join(
        f"{r['n']},{r['scaled_statistic']!r},{r['se']!r},{r['target']!r},A-vs-D,A"
        for r in study["rows"]
    )
    assert rates_csv_matches(text + "\n", study)
    moved = repr(math.nextafter(row["se"], math.inf))
    assert not rates_csv_matches(text.replace(repr(row["se"]), moved), study)
    assert not rates_csv_matches(text.replace("pair,truth", "truth,pair"), study)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_record(name, record):
    # each case runs only its own command, so one that fails or warns fails alone
    want, got = record[name], output(name)
    if name.startswith("rates"):
        study, want_study = dict(got["study"]), dict(want["study"])
        loose = {k: (study.pop(k), want_study.pop(k)) for k in ("rows", "slope")}
        bad = mismatches(study, want_study, "study", TOL)
        bad += [m for k, (g, w) in loose.items() for m in mismatches(g, w, f"study.{k}", RATES_TOL)]
    else:
        bad = mismatches(got, want, name, TOL)
    assert bad == []


@pytest.mark.parametrize("name", [name for name in COMMANDS if "failing-draws" in name])
def test_failing_draws_warn_nothing(name, record):
    # a fresh interpreter with every RuntimeWarning an error prints the record's text
    src = str(Path(covsel.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "covsel.cli", *COMMANDS[name]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout == record[name][STDOUT]


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
