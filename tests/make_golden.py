"""The golden-output record: seeded CLI commands, their JSON documents and
the text they print.

`test_golden.py` re-runs COMMANDS in process and compares each document,
manifest aside, with `golden.json`, and the printed text, kept in the
document under STDOUT, exactly. A `rates` command writes its CSV to --out
and prints nothing; its CSV must hold its document's rows instead. Each
--json file must be byte for byte `json.dumps(doc, indent=2, sort_keys=True)`
and a newline, so the record pins the format as well as the values.
Regenerate the record only in a change that moves an output on purpose (a
new random stream, say), and list the fields that moved in CHANGES.md:

    PYTHONPATH=src python tests/make_golden.py

To check that the current code writes the record's values exactly, without
writing anything, run it with `--check`: it prints each path whose value
differs at all (tolerance 0) and exits 1 if there is one.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from importlib import resources
from pathlib import Path

from covsel.cli import main

IRIS = str(resources.files("covsel") / "datasets" / "iris_setosa.csv")
RECORD = Path(__file__).with_name("golden.json")
STDOUT = "_stdout"  # sorts before every key of a document
RATES_COLUMNS = ["n", "scaled_statistic", "se", "target"]  # then the pair and the truth

_SIM = ["simulate", "--d", "3", "--n", "5", "10", "--reps", "40", "--seed", "7", "--records"]
_RATES = ["rates", "--d", "3", "--n-grid", "20", "200", "2000", "--reps", "30", "--seed", "5"]
_FIXED = ["--fixed-sigma", "1,0.5,0.2;0.5,2,0.3;0.2,0.3,1.5"]
_REGRESS = ["regress", IRIS, "--response", "sepal_width", "sepal_length"]

COMMANDS = {
    "simulate-oracle": _SIM + ["--table", "oracle"],
    # a seed of 2^32 takes two uint32 words in its replicates' SeedSequence
    "simulate-oracle-multiword-seed": _SIM[:-2] + ["4294967296", "--records", "--table", "oracle"],
    # two tables, of stream keys 500000 and 2000000
    "simulate-oracle-two-beta-inv": _SIM + ["--table", "oracle", "--beta-inv", "0.5", "2"],
    # beta^-1 = 2.5e-308: draws fail and C's posterior rate overflows in some replicates
    "simulate-oracle-failing-draws": [
        "simulate", "--table", "oracle", "--d", "3", "--n", "2", "5", "--reps", "80",
        "--beta-inv", "2.5e-308", "--seed", "3", "--records",
    ],
    "simulate-eb": _SIM + ["--table", "eb"],
    "simulate-vs-mclust": _SIM + ["--table", "vs-mclust"],
    "rates-nested-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "C"],
    "rates-nested-D-vs-C": _RATES + ["--pair", "D-vs-C", "--truth", "C"],
    "rates-full-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "A"],
    "rates-full-D-vs-C": _RATES + ["--pair", "D-vs-C", "--truth", "D"],
    # a prior-drawn theta per replicate: its (2 theta)^{-1} comes from the scatter's factor
    "rates-full-A-vs-D": _RATES + ["--pair", "A-vs-D", "--truth", "A"],
    "rates-fixed-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "A"] + _FIXED,
    "rates-fixed-A-vs-D": _RATES + ["--pair", "A-vs-D", "--truth", "A"] + _FIXED,
    "regress-enumerate": _REGRESS
    + ["--covariates", "petal_width", "petal_length", "--intercept", "--enumerate"],
    "regress-enumerate-pcbic": _REGRESS
    + ["--covariates", "petal_width", "petal_length", "--intercept", "--enumerate"]
    + ["--criterion", "pcbic"],
    "regress-single": _REGRESS + ["--covariates", "petal_width", "petal_length", "--intercept"],
    "regress-lambda-path": [
        "regress", IRIS, "--response", "sepal_width", "--covariates", "sepal_length",
        "petal_width", "petal_length", "--lambda-path", "0.1", "0.4", "0.5", "1", "3",
    ],
    "select-empirical-bayes": ["select", IRIS],
    "select-mclust": ["select", IRIS, "--hyper-source", "mclust"],
    "select-kic": ["select", IRIS, "--criterion", "kic"],
}


def outputs() -> dict:
    """Each command's --json document, without its manifest, with its printed
    text under STDOUT; RuntimeError if the --json text is not the stdlib's
    format or a `rates` CSV is not its document's rows."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            path, csv_path = Path(tmp) / f"{name}.json", Path(tmp) / f"{name}.csv"
            out = ["--out", str(csv_path)] if argv[0] == "rates" else []
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = main(argv + out + ["--json", str(path)])
            if rc != 0:
                raise RuntimeError(f"{name} exited with {rc}")
            text = path.read_text()
            doc = json.loads(text)
            if text != json.dumps(doc, indent=2, sort_keys=True) + "\n":
                raise RuntimeError(f"{name}: the --json text is not in the stdlib's format")
            del doc["manifest"]
            if not out:
                doc[STDOUT] = printed.getvalue()
            elif not rates_csv_matches(csv_path.read_text(), doc["study"]):
                raise RuntimeError(f"{name}: the --out CSV does not hold the document's rows")
            docs[name] = doc
    return docs


def rates_csv_matches(text: str, study: dict) -> bool:
    """Whether a `rates` CSV is exactly the study's rows, each followed by the
    study's pair and truth, every cell as `str` writes it."""
    tail = [study["pair"], study["truth"]]
    rows = [[str(row[k]) for k in RATES_COLUMNS] + tail for row in study["rows"]]
    return list(csv.reader(io.StringIO(text))) == [RATES_COLUMNS + ["pair", "truth"]] + rows


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


def check() -> int:
    """Print each path where the commands' documents or printed text differ
    from the record at all; 1 if one does, else 0."""
    record = json.loads(RECORD.read_text())
    bad = mismatches(outputs(), record, "golden", 0.0)
    for line in bad:
        print(line)
    print(f"{len(bad)} difference(s) from {RECORD.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check the golden-output record.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the record; write nothing"
    )
    if parser.parse_args().check:
        sys.exit(check())
    RECORD.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes)")
