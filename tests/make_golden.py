"""The golden-output record: seeded CLI commands and their JSON documents.

`test_golden.py` re-runs COMMANDS in process and compares each document,
manifest aside, with `golden.json`. Regenerate the record only in a change
that moves an output on purpose (a new random stream, say), and list the
fields that moved in CHANGES.md:

    PYTHONPATH=src python tests/make_golden.py
"""

import json
import tempfile
from importlib import resources
from pathlib import Path

from covsel.cli import main

IRIS = str(resources.files("covsel") / "datasets" / "iris_setosa.csv")
RECORD = Path(__file__).with_name("golden.json")

_SIM = ["simulate", "--d", "3", "--n", "5", "10", "--reps", "40", "--seed", "7", "--records"]
_RATES = ["rates", "--d", "3", "--n-grid", "20", "200", "2000", "--reps", "30", "--seed", "5"]
_FIXED = ["--fixed-sigma", "1,0.5,0.2;0.5,2,0.3;0.2,0.3,1.5"]
_REGRESS = ["regress", IRIS, "--response", "sepal_width", "sepal_length"]

COMMANDS = {
    "simulate-oracle": _SIM + ["--table", "oracle"],
    "simulate-eb": _SIM + ["--table", "eb"],
    "simulate-vs-mclust": _SIM + ["--table", "vs-mclust"],
    "rates-nested-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "C"],
    "rates-nested-D-vs-C": _RATES + ["--pair", "D-vs-C", "--truth", "C"],
    "rates-full-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "A"],
    "rates-full-D-vs-C": _RATES + ["--pair", "D-vs-C", "--truth", "D"],
    "rates-fixed-A-vs-C": _RATES + ["--pair", "A-vs-C", "--truth", "A"] + _FIXED,
    "rates-fixed-A-vs-D": _RATES + ["--pair", "A-vs-D", "--truth", "A"] + _FIXED,
    "regress-enumerate": _REGRESS
    + ["--covariates", "petal_width", "petal_length", "--intercept", "--enumerate"],
    "regress-lambda-path": [
        "regress", IRIS, "--response", "sepal_width", "--covariates", "sepal_length",
        "petal_width", "petal_length", "--lambda-path", "0.1", "0.4", "0.5", "1", "3",
    ],
    "select-empirical-bayes": ["select", IRIS],
    "select-mclust": ["select", IRIS, "--hyper-source", "mclust"],
    "select-kic": ["select", IRIS, "--criterion", "kic"],
}


def outputs() -> dict:
    """Each command's --json document, without its manifest."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            path = Path(tmp) / f"{name}.json"
            out = ["--out", str(Path(tmp) / f"{name}.csv")] if argv[0] == "rates" else []
            rc = main(argv + out + ["--json", str(path)])
            if rc != 0:
                raise RuntimeError(f"{name} exited with {rc}")
            doc = json.loads(path.read_text())
            del doc["manifest"]
            docs[name] = doc
    return docs


if __name__ == "__main__":
    RECORD.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes)")
