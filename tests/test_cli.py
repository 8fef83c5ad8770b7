import csv
import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covsel
import covsel.cli as cli
from covsel.cli import main

IRIS = str(resources.files("covsel") / "datasets" / "iris_setosa.csv")
COVARIATES = ["petal_width", "petal_length"]


def run(args):
    return main(args)


class TestSelect:
    def test_iris_ranking(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = run(
            [
                "select",
                IRIS,
                "--columns",
                "sepal_length",
                "sepal_width",
                "--hyper-source",
                "empirical-bayes",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "| 1 |" in text
        doc = json.loads(out.read_text())
        assert len(doc["ranked"]) == 3
        assert doc["n"] == 50 and doc["d"] == 2

    def test_missing_file_exits_2(self):
        assert run(["select", "/nonexistent/file.csv"]) == 2

    def test_d1_tie_selects_iso(self, tmp_path):
        path = tmp_path / "one.csv"
        rng = np.random.default_rng(0)
        path.write_text("x\n" + "\n".join(str(v) for v in rng.standard_normal(30)))
        out = tmp_path / "r.json"
        rc = run(["select", str(path), "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["ranked"][0]["structure"] == "C"

    def test_column_indices_without_header(self, tmp_path):
        # argv holds strings, so an index reaches the loader as "0"
        path = tmp_path / "plain.csv"
        rng = np.random.default_rng(4)
        path.write_text("\n".join(",".join(map(str, row)) for row in rng.standard_normal((20, 3))))
        out = tmp_path / "r.json"
        argv = ["select", str(path), "--no-header", "--columns", "2", "0", "--json", str(out)]
        assert run(argv) == 0
        assert json.loads(out.read_text())["d"] == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        # two observations in five dimensions: empirical Bayes needs a
        # positive definite scatter, which cannot exist here
        path = tmp_path / "thin.csv"
        path.write_text("a,b,c,d,e\n1,2,3,4,5\n2,3,4,5,6\n")
        assert run(["select", str(path)]) == 3

    def test_center_flag(self, tmp_path, capsys):
        path = tmp_path / "shifted.csv"
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((40, 2)) + 100.0
        path.write_text("u,v\n" + "\n".join(f"{a},{b}" for a, b in vals))
        out_c = tmp_path / "c.json"
        assert run(["select", str(path), "--center", "--json", str(out_c)]) == 0
        doc = json.loads(out_c.read_text())
        # centered data are nearly isotropic noise; the huge offset is gone
        assert doc["ranked"][0]["log_evidence"] > -200

    def test_hyper_file_source(self, tmp_path):
        hyper = {
            "A": {"structure": "A", "alpha": 4.0, "rate": [[0.5, 0.0], [0.0, 0.5]]},
            "D": {"structure": "D", "alpha": 2.0, "rate": [0.5, 0.5]},
            "C": {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 2},
        }
        hp = tmp_path / "hyper.json"
        hp.write_text(json.dumps(hyper))
        rc = run(
            [
                "select",
                IRIS,
                "--columns",
                "petal_length",
                "petal_width",
                "--hyper-source",
                f"file:{hp}",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "cannot read JSON"),
            ('["A", "D", "C"]', "expected a JSON object"),
            (json.dumps({"A": {"structure": "A", "alpha": 4.0, "rate": [[1.0]]}}), "['D', 'C']"),
            (
                json.dumps({s: {"structure": s, "alpha": 4.0, "rate": "x"} for s in "ADC"}),
                "malformed hyperparameter document",
            ),
        ],
    )
    def test_bad_hyper_file_exits_2(self, tmp_path, capsys, text, message):
        hp = tmp_path / "hyper.json"
        hp.write_text(text)
        assert run(["select", IRIS, "--hyper-source", f"file:{hp}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "structure, entry, message",
        [
            # an A entry tagged D would make D appear twice and A not at all
            ("A", {"structure": "D", "alpha": 2.0, "rate": [0.5, 0.5]}, "structure-D prior"),
            # a C entry of the wrong dimension would raise DimensionMismatchError
            # when scored; the CLI rejects it first
            ("C", {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 3}, "dimension 3"),
            # outside the prior's support
            ("A", {"structure": "A", "alpha": -1, "rate": [[0.5, 0], [0, 0.5]]}, "Wishart shape"),
            ("D", {"structure": "D", "alpha": 2.0, "rate": [0.5, -1.0]}, "positive and finite"),
            # a stack of rates, or a fractional dimension, is not one prior
            ("A", {"structure": "A", "alpha": 4.0, "rate": [[[0.5, 0], [0, 0.5]]] * 2}, "ndim 2"),
            ("D", {"structure": "D", "alpha": 2.0, "rate": [[0.5, 0.5]] * 3}, "ndim 1"),
            ("C", {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 2.7}, "integer"),
        ],
    )
    def test_invalid_hyper_file_entry_exits_2(self, tmp_path, capsys, structure, entry, message):
        hyper = {
            "A": {"structure": "A", "alpha": 4.0, "rate": [[0.5, 0.0], [0.0, 0.5]]},
            "D": {"structure": "D", "alpha": 2.0, "rate": [0.5, 0.5]},
            "C": {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 2},
            structure: entry,
        }
        hp = tmp_path / "hyper.json"
        hp.write_text(json.dumps(hyper))
        argv = ["select", IRIS, "--columns", "petal_length", "petal_width"]
        assert run(argv + ["--hyper-source", f"file:{hp}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_csv_and_hyper_file_with_a_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" and some editors' JSON start the file with U+FEFF
        hyper = {
            "A": {"structure": "A", "alpha": 4.0, "rate": [[0.5, 0.0], [0.0, 0.5]]},
            "D": {"structure": "D", "alpha": 2.0, "rate": [0.5, 0.5]},
            "C": {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 2},
        }
        ranked = {}
        for encoding in ("utf-8", "utf-8-sig"):
            data, hp = tmp_path / f"{encoding}.csv", tmp_path / f"{encoding}.json"
            data.write_text("a,b\n1,0.5\n-0.3,2\n0.7,-1\n", encoding=encoding)
            hp.write_text(json.dumps(hyper), encoding=encoding)
            out = tmp_path / f"{encoding}-report.json"
            argv = ["select", str(data), "--columns", "a", "b", "--hyper-source", f"file:{hp}"]
            assert run(argv + ["--json", str(out)]) == 0
            ranked[encoding] = json.loads(out.read_text())["ranked"]
        assert ranked["utf-8-sig"] == ranked["utf-8"]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"x,y\n1,2\nnan,1\n3,1\n", "row 2, column 1: not a finite number: 'nan'"),
            (b"x,y\n1,2\n\xff,1\n", "can't decode byte 0xff"),
        ],
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert run(["select", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "error: file has no header row"),
            (["--no-header"], "error: no columns found"),
        ],
    )
    def test_empty_csv_exits_2(self, tmp_path, capsys, flags, message):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run(["select", str(path), *flags]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--columns", "petal"], "error: unknown column 'petal'"),
            (["--hyper-source", "bogus"], "error: unknown hyper source 'bogus'"),
        ],
    )
    def test_unknown_column_or_hyper_source_exits_2(self, capsys, flags, message):
        assert run(["select", IRIS, *flags]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [["select", "DATA", "--columns", "a", "b"], ["regress", "DATA", "--response", "a"]],
        ids=["select", "regress"],
    )
    def test_a_repeated_header_name_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "repeated.csv"
        path.write_text("a,a,b\n1,2,3\n4,5,7\n0,1,1\n")
        assert run([str(path) if arg == "DATA" else arg for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(
            "error: column 'a' is named 2 times in the header"
        )

    def test_overflowing_mode_skips_the_structure(self, tmp_path, capsys):
        # all-zero rows and a Wishart rate of 1e-310 I: the rate is accepted,
        # but the posterior mode (alpha - 3/2) (B + s)^{-1} overflows
        path = tmp_path / "zeros.csv"
        path.write_text("a,b\n" + "0,0\n" * 5)
        hyper = {
            "A": {"structure": "A", "alpha": 2.0, "rate": [[1e-310, 0.0], [0.0, 1e-310]]},
            "D": {"structure": "D", "alpha": 2.0, "rate": [1.0, 1.0]},
            "C": {"structure": "C", "alpha": 2.0, "rate": 1.0, "dim": 2},
        }
        hp = tmp_path / "hyper.json"
        hp.write_text(json.dumps(hyper))
        out = tmp_path / "r.json"
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        assert run(["select", str(path), "--hyper-source", f"file:{hp}", "--json", str(out)]) == 0
        assert "skipped A: SupportError: posterior mode is not finite" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert [rep["structure"] for rep in doc["ranked"]] == ["C", "D"]
        assert list(doc["skipped"]) == ["A"]

    def test_overflowing_posterior_rate_skips_the_structure(self, tmp_path, capsys):
        # tr s = 4 (7.7e153)^2 overflows C's rate beta + tr s alone
        path = tmp_path / "big.csv"
        rows = [",".join("7.7e153" if j == i else "0" for j in range(4)) for i in range(4)]
        path.write_text("a,b,c,d\n" + "\n".join(rows) + "\n")
        hyper = {
            "A": {"structure": "A", "alpha": 4.0, "rate": np.eye(4).tolist()},
            "D": {"structure": "D", "alpha": 2.0, "rate": [1.0] * 4},
            "C": {"structure": "C", "alpha": 5.0, "rate": 4.0, "dim": 4},
        }
        hp = tmp_path / "hyper.json"
        hp.write_text(json.dumps(hyper))
        out = tmp_path / "r.json"
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        assert run(["select", str(path), "--hyper-source", f"file:{hp}", "--json", str(out)]) == 0
        assert "skipped C: SupportError: the posterior rate overflows" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert [rep["structure"] for rep in doc["ranked"]] == ["D", "A"]

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1e200", "SupportError: the scatter matrix of the data overflows"),
            ("1e154", "DegenerateScatterError: the empirical Bayes rates overflow"),
        ],
    )
    def test_overflowing_data_exits_3(self, tmp_path, capsys, entry, message):
        # 1e200^2 overflows the scatter; 1e154^2 does not, but its rates do
        path = tmp_path / "big.csv"
        path.write_text(f"a,b\n{entry},1\n2,3\n")
        assert run(["select", str(path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err

    def test_value_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(cli, "select_structure", broken)
        with pytest.raises(ValueError, match="programming error"):
            run(["select", IRIS])


class TestSimulate:
    def test_single_rep_smoke(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        rc = run(
            [
                "simulate",
                "--table",
                "oracle",
                "--beta-inv",
                "2",
                "--n",
                "5",
                "--reps",
                "1",
                "--d",
                "3",
                "--seed",
                "1",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["tables"]) == 1
        counts = doc["tables"][0]["matrices"]["evidence"]["counts"]
        assert sum(map(sum, counts)) == 3  # one replicate per truth

    def test_records_flag(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = run(
            [
                "simulate", "--table", "oracle", "--beta-inv", "2", "--n", "4",
                "--reps", "2", "--d", "2", "--seed", "5", "--records",
                "--json", str(out),
            ]
        )
        assert rc == 0
        records = json.loads(out.read_text())["tables"][0]["records"]
        assert set(records) == {"A", "D", "C"}
        assert len(records["A"]["evidence"]) == 2

    @pytest.mark.parametrize(
        "table, d, n_values, reps, exclusions",
        [
            ("eb", "3", ["3", "5"], "80", [235, 240]),
            ("vs-mclust", "4", ["4", "6"], "60", [180, 180]),
        ],
    )
    def test_overflowing_moment_rates_fail_their_replicates(
        self, tmp_path, table, d, n_values, reps, exclusions
    ):
        # beta = 4e307: the moment rates of some drawn scatters overflow;
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        out = tmp_path / "sim.json"
        argv = ["simulate", "--table", table, "--d", d, "--n", *n_values, "--reps", reps]
        assert run(argv + ["--beta-inv", "2.5e-308", "--seed", "3", "--json", str(out)]) == 0
        tables = json.loads(out.read_text())["tables"]
        assert [t["exclusions"] for t in tables] == exclusions

    def test_invalid_beta_exits_2(self):
        rc = run(["simulate", "--beta-inv", "-1", "--n", "5", "--reps", "1"])
        assert rc == 2

    @pytest.mark.parametrize(
        "beta_inv, d",
        [("1e303", 2), ("1e-308", 2), ("2e-308", 5)],
        ids=["stream-key-overflows", "2-beta-overflows", "d-beta-overflows"],
    )
    def test_beta_inverse_the_simulation_cannot_use_exits_2(self, capsys, beta_inv, d):
        # positive and finite, but round(beta_inverse 1e6) or a generating rate is not finite
        argv = ["simulate", "--table", "oracle", "--beta-inv", beta_inv, "--n", "5", "--reps", "3"]
        assert run(argv + ["--d", str(d)]) == 2
        assert capsys.readouterr().err.startswith(f"error: beta_inverse {float(beta_inv)} is out")

    def test_repeated_n_exits_2(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--table", "oracle", "--n", "5", "5", "--reps", "3", "--json", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: n values must be distinct, got [5, 5]\n"
        assert not out.exists()

    def test_repeated_beta_inverse_exits_2(self, capsys, tmp_path):
        # each value is a table of its own; a repeated one would be written twice
        out = tmp_path / "sim.json"
        argv = ["simulate", "--table", "oracle", "--beta-inv", "2", "2", "--n", "5", "--reps", "3"]
        assert run(argv + ["--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --beta-inv values must be distinct, got [2.0, 2.0]\n"
        assert not out.exists()

    def test_beta_inverses_sharing_a_stream_key_exit_2(self, capsys, tmp_path):
        # 2 and 2.0000001 both key their streams 2000000: their tables would be copies
        out = tmp_path / "a.json"
        argv = ["simulate", "--table", "oracle", "--d", "3", "--n", "5", "--reps", "200"]
        argv += ["--beta-inv", "2", "2.0000001", "--seed", "1", "--records", "--json", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: --beta-inv values 2.0 and 2.0000001 share the stream key "
            "round(beta_inverse * 1e6) = 2000000, so their tables would be copies\n"
        )
        assert not out.exists()

    def test_beta_inverses_with_adjacent_stream_keys_are_distinct_tables(self, tmp_path):
        out = tmp_path / "a.json"
        argv = ["simulate", "--table", "oracle", "--d", "3", "--n", "5", "--reps", "200"]
        argv += ["--beta-inv", "2", "2.000001", "--seed", "1", "--records", "--json", str(out)]
        assert run(argv) == 0
        first, second = json.loads(out.read_text())["tables"]
        assert (first["beta_inverse"], second["beta_inverse"]) == (2.0, 2.000001)
        assert first["records"] != second["records"]

    def test_negative_seed_exits_2(self, capsys):
        # a replicate's stream codes the seed as uint32 words, which a negative seed would wrap
        argv = ["simulate", "--table", "oracle", "--n", "5", "--reps", "3", "--seed", "-1"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: reps and d must be >= 1, and the seed >= 0\n"

    def test_seeded_json_reproducible(self, tmp_path):
        args = [
            "simulate", "--table", "oracle", "--beta-inv", "2", "--n", "5",
            "--reps", "5", "--d", "2", "--seed", "3",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        # identical invocations give byte-identical output files
        assert run(args + ["--json", str(out1)]) == 0
        assert run(args + ["--json", str(out2)]) == 0
        assert out1.read_bytes().replace(b"a.json", b"x") == out2.read_bytes().replace(
            b"b.json", b"x"
        )
        assert json.loads(out1.read_text())["tables"] == json.loads(out2.read_text())["tables"]


class TestRegress:
    def test_iris_enumeration_evidence_column(self, capsys, tmp_path):
        out = tmp_path / "reg.json"
        rc = run(
            [
                "regress",
                IRIS,
                "--response",
                "sepal_width",
                "sepal_length",
                "--covariates",
                "petal_width",
                "petal_length",
                "--intercept",
                "--enumerate",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["fits"]) == 7
        best = doc["fits"][0]
        assert set(best["subset"]) == {"intercept", "petal_length"}
        assert best["reports"]["A"]["log_evidence"] == pytest.approx(-61.1, abs=0.1)

    def test_overflowing_data_exits_3(self, tmp_path, capsys):
        # 1e200^2 overflows the Gram matrix; a RuntimeWarning would fail the test
        path = tmp_path / "big.csv"
        path.write_text("y,x\n1e200,1\n2,3\n4,5\n")
        assert run(["regress", str(path), "--response", "y", "--covariates", "x"]) == 3
        message = "SupportError: the Gram matrix [X Y]^T [X Y] of the data overflows"
        assert f"numerical failure: {message}" in capsys.readouterr().err

    def test_single_covariate_three_rows(self, capsys):
        rc = run(
            [
                "regress",
                IRIS,
                "--response",
                "sepal_width",
                "--covariates",
                "petal_width",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert text.count("| petal_width |") == 3

    def test_separate_covariate_file(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        n = 25
        x = rng.standard_normal(n)
        y = 0.7 * x + 0.2 * rng.standard_normal(n)
        (tmp_path / "resp.csv").write_text("y\n" + "\n".join(map(str, y)))
        (tmp_path / "covs.csv").write_text("x\n" + "\n".join(map(str, x)))
        rc = run(
            [
                "regress",
                str(tmp_path / "resp.csv"),
                "--response",
                "y",
                "--covariates-file",
                str(tmp_path / "covs.csv"),
                "--intercept",
            ]
        )
        assert rc == 0
        assert "| intercept, x |" in capsys.readouterr().out

    def test_no_header_covariates_file_enumerates(self, tmp_path, capsys):
        # the covariates are labelled by their indices, next to "intercept"
        rng = np.random.default_rng(22)
        x = rng.standard_normal((25, 2))
        y = x @ [0.7, -0.3] + 0.2 * rng.standard_normal(25)
        (tmp_path / "resp.csv").write_text("\n".join(map(str, y)))
        (tmp_path / "covs.csv").write_text("\n".join(f"{a},{b}" for a, b in x))
        out = tmp_path / "fits.json"
        argv = ["regress", str(tmp_path / "resp.csv"), "--no-header", "--response", "0"]
        argv += ["--covariates-file", str(tmp_path / "covs.csv"), "--intercept", "--enumerate"]
        assert run(argv + ["--json", str(out)]) == 0
        subsets = [fit["subset"] for fit in json.loads(out.read_text())["fits"]]
        assert len(subsets) == 7 and ["0", "1", "intercept"] in subsets
        assert "| 0, 1, intercept |" in capsys.readouterr().out

    def test_enumerate_without_covariates_exits_2(self, capsys):
        assert run(["regress", IRIS, "--response", "sepal_width", "--enumerate"]) == 2
        assert capsys.readouterr().err == (
            "error: --enumerate needs at least one --covariates column\n"
        )

    def test_enumerate_with_kic_exits_2(self, capsys):
        rc = run(
            [
                "regress",
                IRIS,
                "--response",
                "sepal_width",
                "--covariates",
                "petal_width",
                "--enumerate",
                "--criterion",
                "kic",
            ]
        )
        assert rc == 2
        assert "undefined for regression" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "covariates",
        [["petal_width", "petal_width"], ["intercept", "--intercept"]],
        ids=["repeated", "intercept"],
    )
    def test_repeated_covariate_names_exit_2(self, tmp_path, capsys, covariates):
        data = tmp_path / "data.csv"
        data.write_text(Path(IRIS).read_text().replace("petal_length", "intercept", 1))
        argv = ["regress", str(data), "--response", "sepal_width", "--covariates", *covariates]
        assert run(argv + ["--enumerate"]) == 2
        assert "covariate names must be distinct" in capsys.readouterr().err

    def test_repeated_covariate_without_enumerate_is_fit(self, tmp_path):
        # a single fit takes the columns as given, a repeated one included
        out = tmp_path / "fit.json"
        argv = ["regress", IRIS, "--response", "sepal_width", "--json", str(out)]
        assert run(argv + ["--covariates", "petal_width", "petal_width"]) == 0
        [fit] = json.loads(out.read_text())["fits"]
        assert fit["subset"] == ["petal_width", "petal_width"]

    def test_kic_without_enumerate_exits_2_before_fitting(self, capsys):
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width"]
        assert run(argv + ["--criterion", "kic"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "undefined for regression" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "cannot read JSON"),
            ("[1, 2]", "expected a JSON object"),
            ('{"alpha": "two"}', "malformed --hyper file"),
            ('{"lambda": [["a"]]}', "malformed --hyper file"),
            ('{"lambda": [[NaN]]}', "malformed --hyper file"),
            ('{"alpha": NaN}', "malformed --hyper file"),
            ('{"nu": [[NaN]]}', "malformed --hyper file"),
        ],
    )
    def test_bad_hyper_file_exits_2(self, tmp_path, capsys, text, message):
        hp = tmp_path / "hyper.json"
        hp.write_text(text)
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width"]
        assert run(argv + ["--hyper", str(hp)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"nu": [[1.0, 2.0]]}, "nu row count"),  # one row for two responses
            ({"lambda": [[1.0, 2.0], [2.0, 1.0]]}, "not positive definite"),
            ({"alpha": -1}, "Wishart shape"),
            ({"nu": [[0.0], [0.0]], "lambda": [[1.0]]}, "need 2 covariate columns"),
        ],
    )
    def test_hyper_outside_the_model_exits_2(self, tmp_path, capsys, doc, message):
        hp = tmp_path / "hyper.json"
        hp.write_text(json.dumps(doc))
        argv = ["regress", IRIS, "--response", "sepal_width", "sepal_length"]
        argv += ["--covariates", "petal_width", "petal_length", "--hyper", str(hp)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_covariates_file_row_count_mismatch_exits_2(self, tmp_path, capsys):
        covs = tmp_path / "covs.csv"
        covs.write_text("x\n" + "\n".join(str(v) for v in range(19)))
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates-file", str(covs)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "has 19 rows but" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--hyper", "/nonexistent.json"], "--hyper"),
            (["--enumerate"], "--enumerate"),
            (["--criterion", "bic"], "--criterion"),
            (["--hyper", "/nonexistent.json", "--enumerate", "--criterion", "kic"],
             "--hyper, --enumerate, --criterion"),
        ],
    )
    def test_lambda_path_rejects_the_flags_it_ignores(self, capsys, flags, named):
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width"]
        assert run(argv + ["--lambda-path", "1"] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --lambda-path fixes its own prior and criterion; drop {named}"
        ]

    @pytest.mark.parametrize("enumerate_subsets", [[], ["--enumerate"]])
    def test_out_without_lambda_path_exits_2(self, capsys, tmp_path, enumerate_subsets):
        # --out is the lambda-path CSV; without a path it would name a file never written
        out, js = tmp_path / "path.csv", tmp_path / "reg.json"
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width"]
        assert run(argv + enumerate_subsets + ["--out", str(out), "--json", str(js)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --out writes the --lambda-path CSV; give --lambda-path or drop --out"
        ]
        assert not out.exists() and not js.exists()

    def test_lambda_zero_exits_2(self):
        rc = run(
            [
                "regress",
                IRIS,
                "--response",
                "sepal_width",
                "--covariates",
                "petal_width",
                "--lambda-path",
                "0",
                "1",
            ]
        )
        assert rc == 2

    def test_lambda_path_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = run(
            [
                "regress",
                IRIS,
                "--response",
                "sepal_width",
                "--covariates",
                "petal_width",
                "--intercept",
                "--lambda-path",
                "0.3",
                "1.0",
                "3.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 4
        assert lines[1].split(",")[-1] == "1"  # 0.3 < 1/2: non-regular flag


def object_path_output(intercept, enumerate_subsets, criterion):
    """stdout and `fits` of `regress` on iris, [sepal width, sepal length] on
    petal width and length, as written from per-subset RegressionFits: the
    table loop and `to_jsonable` that the stacked columns replaced."""
    from covsel.data import load_csv
    from covsel.regression import (
        RegressionData, enumerate_covariates, fit_regression, standard_hypers,
    )
    from covsel.structures import SIMPLEST_FIRST

    iris = load_csv(IRIS)
    y, x = iris.select(["sepal_width", "sepal_length"]).rows, iris.select(COVARIATES).rows
    names = list(COVARIATES)
    if intercept:
        x, names = np.column_stack([np.ones(len(x)), x]), ["intercept"] + names
    data = RegressionData(y, x)
    hypers = standard_hypers(data.d1, data.d2)
    if enumerate_subsets:
        fits = enumerate_covariates(data, hypers, names=names, criterion=criterion)
    else:
        fits = [dataclasses.replace(fit_regression(data, hypers), subset=tuple(names))]
    lines = ["| covariates | structure | log evidence | pcBIC |", "|---|---|---|---|"]
    for fit in fits:
        label = ", ".join(str(sname) for sname in fit.subset) or "(none)"
        for structure in SIMPLEST_FIRST:
            rep = fit.reports[structure]
            lines.append(
                f"| {label} | {structure} | {rep.log_evidence:.1f} | {cli._fmt(rep.pc_bic)} |"
            )
    return "\n".join(lines) + "\n", [fit.to_jsonable() for fit in fits]


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1.7976931348623157e308, 1 / 3]
)


@st.composite
def _stacks(draw):
    """A regression stack of A, D and C fits with arbitrary values: non-finite
    ones, criteria that are None (as at n = 0), and int or str subset labels of
    one size, the empty subset included."""
    from covsel.regression import _Stack
    from covsel.structures import StackFit

    r, size = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    floats = _FLOATS | st.floats(-1e6, 1e6)

    def column(*shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(floats, min_size=count, max_size=count))).reshape(shape)

    def criterion():
        return None if draw(st.booleans()) else column(r)

    label = st.integers(0, 2**70) | st.text(max_size=3)
    labels = [tuple(draw(st.lists(label, min_size=size, max_size=size))) for _ in range(r)]
    fits = {}
    for structure in draw(st.permutations("ADC")):
        d = draw(st.integers(1, 3))
        fits[structure] = StackFit(
            structure=structure, dim=d, k=draw(st.integers(0, 40)),
            map=column(r, *(d,) * "CDA".index(structure)),
            log_lik=column(r), log_evidence=column(r),
            flexibility=column(r), log_prior=column(r),
            bic=criterion(), pc_bic=criterion(), kic=criterion(),
            valid=np.ones(r, dtype=bool), errors={},
        )
    return _Stack(labels, fits, {})


class TestRegressColumns:
    """`regress` writes its table and `fits` from the stacked subset columns."""

    @pytest.mark.parametrize("criterion", ["evidence", "bic", "pcbic"])
    @pytest.mark.parametrize("intercept", [False, True], ids=["", "intercept"])
    @pytest.mark.parametrize("enumerate_subsets", [False, True], ids=["single", "enumerate"])
    def test_matches_the_object_path(
        self, tmp_path, capsys, criterion, intercept, enumerate_subsets
    ):
        argv = ["regress", IRIS, "--response", "sepal_width", "sepal_length", "--covariates"]
        argv += COVARIATES + ["--criterion", criterion]
        argv += ["--intercept"] * intercept + ["--enumerate"] * enumerate_subsets
        out = tmp_path / "fits.json"
        assert run(argv + ["--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        text = out.read_text(encoding="utf-8")
        want_stdout, want_fits = object_path_output(intercept, enumerate_subsets, criterion)
        assert stdout == want_stdout
        doc = json.loads(text)
        assert doc["fits"] == want_fits
        assert text == cli._json_text({"manifest": doc["manifest"], "fits": want_fits}) + "\n"

    def test_enumeration_builds_no_report_objects(self, tmp_path, monkeypatch):
        from covsel.regression import RegressionFit
        from covsel.structures import FitReport, StackFit

        calls = []
        for cls, name in [(StackFit, "report"), (FitReport, "to_jsonable"),
                          (RegressionFit, "to_jsonable")]:
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        argv = ["regress", IRIS, "--response", "sepal_width", "sepal_length", "--covariates"]
        argv += ["petal_width", "petal_length", "--intercept", "--enumerate"]
        assert run(argv + ["--json", str(tmp_path / "fits.json")]) == 0
        assert calls == []

    def test_enumeration_matches_the_object_path_byte_for_byte(self, tmp_path):
        from covsel.regression import RegressionData, enumerate_covariates, standard_hypers

        rng = np.random.default_rng(7)
        y, x = rng.standard_normal((40, 3)), rng.standard_normal((40, 8))
        y[:, 0] += x[:, 2] - 0.5 * x[:, 5]
        ynames, xnames = ["y0", "y1", "y2"], [f"x{7 - j}" for j in range(8)]
        data, out = tmp_path / "data.csv", tmp_path / "fits.json"
        rows = [",".join(map(repr, row)) for row in np.hstack([y, x]).tolist()]
        data.write_text("\n".join([",".join(ynames + xnames)] + rows) + "\n")
        argv = ["regress", str(data), "--response", *ynames, "--covariates", *xnames, "--enumerate"]
        assert run(argv + ["--json", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        fits = enumerate_covariates(RegressionData(y, x), standard_hypers(3, 8), names=xnames)
        assert len(fits) == 255
        want = [fit.to_jsonable() for fit in fits]
        assert text == cli._json_text({"manifest": json.loads(text)["manifest"], "fits": want}) + "\n"

    def test_labels_with_template_characters_are_written_as_json(self, tmp_path):
        # a label fills a template's hole: its %, quotes, backslash and non-ASCII
        # letters must come out as the stdlib writes them
        from covsel.regression import RegressionData, enumerate_covariates, standard_hypers

        rng = np.random.default_rng(3)
        y, x = rng.standard_normal((30, 2)), rng.standard_normal((30, 5))
        xnames = ["%", "%s", 'say "hi"', "back\\slash", "\u00e9t\u00e9"]
        data, out = tmp_path / "data.csv", tmp_path / "fits.json"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["y0", "y1"] + xnames, *np.hstack([y, x]).tolist()])
        argv = ["regress", str(data), "--response", "y0", "y1", "--covariates", *xnames]
        assert run(argv + ["--enumerate", "--json", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        fits = enumerate_covariates(RegressionData(y, x), standard_hypers(2, 5), names=xnames)
        doc = {"manifest": json.loads(text)["manifest"], "fits": [f.to_jsonable() for f in fits]}
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert {name for fit in json.loads(text)["fits"] for name in fit["subset"]} == set(xnames)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=_stacks())
    def test_items_are_the_row_dicts(self, stack):
        pad = cli._ITEM_PAD
        want = [
            cli._json_text(
                {"subset": list(label),
                 "reports": {s: fit.report(i).to_jsonable() for s, fit in stack.fits.items()}},
                pad,
            )
            for i, label in enumerate(stack.labels)
        ]
        assert cli._item_format(stack)(np.arange(len(stack.labels))) == want

    def test_one_encode_per_stack(self, monkeypatch):
        from covsel.regression import RegressionData, _fit_subsets, standard_hypers

        rng = np.random.default_rng(5)
        data = RegressionData(rng.standard_normal((20, 2)), rng.standard_normal((20, 3)))
        subsets = np.array([[0, 2], [1, 2]])
        stack = _fit_subsets(data, standard_hypers(2, 3), subsets, [(0, 2), (1, 2)])
        assert sorted(stack.fits) == ["A", "C", "D"]
        calls = []
        json_text = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda *a: calls.append(a) or json_text(*a))
        assert len(cli._item_format(stack)(np.arange(len(stack.labels)))) == 2
        assert len(calls) <= 1

    @pytest.mark.parametrize("size", [1, 7])
    def test_chunks_write_the_one_chunk_output(self, tmp_path, capsys, monkeypatch, size):
        from covsel import regression

        rng = np.random.default_rng(11)
        data = tmp_path / "data.csv"
        y, x = rng.standard_normal((30, 2)), rng.standard_normal((30, 6))
        rows = [",".join(map(repr, row)) for row in np.hstack([y, x]).tolist()]
        data.write_text("\n".join(["y0,y1," + ",".join(f"x{j}" for j in range(6))] + rows))
        argv = ["regress", str(data), "--response", "y0", "y1", "--covariates"]
        argv += [f"x{j}" for j in range(6)] + ["--enumerate", "--json", str(tmp_path / "fits.json")]
        texts = []
        for chunk in (regression._MAX_STACK, size):  # 63 subsets: one chunk, then several
            monkeypatch.setattr(regression, "_MAX_STACK", chunk)
            assert run(argv) == 0
            texts.append((capsys.readouterr().out, (tmp_path / "fits.json").read_text()))
        assert texts[1] == texts[0]
        assert texts[0][0].count("\n") == 2 + 3 * 63

    @pytest.mark.parametrize("entry", ["ulp", "signed-zero"])
    def test_a_map_that_is_not_symmetric_bit_for_bit_is_written_whole(self, entry):
        from covsel.regression import RegressionData, _fit_subsets, standard_hypers

        rng = np.random.default_rng(12)
        data = RegressionData(rng.standard_normal((20, 3)), rng.standard_normal((20, 2)))
        stack = _fit_subsets(data, standard_hypers(3, 2), np.array([[0], [1]]), [(0,), (1,)])
        fit = stack.fits["A"]
        maps = fit.map.copy()
        assert np.array_equal(maps, maps.swapaxes(-1, -2))
        if entry == "ulp":
            maps[1, 2, 0] = np.nextafter(maps[1, 2, 0], np.inf)
        else:
            maps[1, 0, 1], maps[1, 1, 0] = 0.0, -0.0
        stack.fits["A"] = dataclasses.replace(fit, map=maps)
        items = cli._item_format(stack)(np.arange(len(stack.labels)))
        want = [
            cli._json_text(
                {"subset": list(label),
                 "reports": {s: f.report(i).to_jsonable() for s, f in stack.fits.items()}},
                cli._ITEM_PAD,
            )
            for i, label in enumerate(stack.labels)
        ]
        assert items == want
        for i, item in enumerate(items):
            written = np.array(json.loads(item)["reports"]["A"]["map"])
            assert written.tobytes() == maps[i].tobytes()  # all nine entries, bit for bit

    def test_bic_without_rows_exits_2_before_writing(self, tmp_path, capsys):
        data, out = tmp_path / "header.csv", tmp_path / "fits.json"
        data.write_text("a,b,c\n")
        argv = ["regress", str(data), "--response", "a", "--covariates", "b", "c"]
        assert run(argv + ["--enumerate", "--criterion", "bic", "--json", str(out)]) == 2
        assert "criterion bic has no value" in capsys.readouterr().err
        assert not out.exists()

    def test_a_subset_that_cannot_be_fit_exits_3(self, tmp_path, capsys):
        # no rows and alpha = 0.6: structure A has no mode with one covariate
        # (shape 0.6 + 1/2 <= 3/2) but has one with two; the first subset raises
        data, hyper = tmp_path / "empty.csv", tmp_path / "hyper.json"
        data.write_text("a,b,c,d\n")
        hyper.write_text('{"alpha": 0.6}')
        argv = ["regress", str(data), "--hyper", str(hyper), "--response", "a", "b"]
        assert run(argv + ["--covariates", "c", "d", "--enumerate"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: NonRegularPriorError: posterior mode undefined: "
            "shape 1.1 <= (d+1)/2"
        ]


class TestManifest:
    """`main` writes each command's manifest: its name, its non-default
    arguments, seed, version and output paths."""

    def manifest(self, argv, path):
        assert run(argv + ["--json", str(path)]) == 0
        return json.loads(path.read_text())["manifest"]

    def test_select(self, tmp_path):
        path = tmp_path / "select.json"
        assert self.manifest(["select", IRIS, "--criterion", "kic"], path) == {
            "command": "select",
            "config": {
                "command": "select", "data": IRIS, "no_header": False, "center": False,
                "hyper_source": "empirical-bayes", "criterion": "kic", "json": str(path),
            },
            "seed": None,
            "version": covsel.__version__,
            "outputs": [str(path)],
        }

    def test_simulate(self, tmp_path):
        path = tmp_path / "simulate.json"
        argv = ["simulate", "--d", "2", "--n", "6", "--reps", "3", "--seed", "4"]
        assert self.manifest(argv, path) == {
            "command": "simulate",
            "config": {
                "command": "simulate", "table": "oracle", "beta_inv": [2.0], "n": [6],
                "reps": 3, "d": 2, "seed": 4, "records": False, "json": str(path),
            },
            "seed": 4,
            "version": covsel.__version__,
            "outputs": [str(path)],
        }

    def test_regress(self, tmp_path):
        path, out = tmp_path / "regress.json", tmp_path / "path.csv"
        argv = ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width"]
        argv += ["--lambda-path", "0.5", "2", "--out", str(out)]
        assert self.manifest(argv, path) == {
            "command": "regress",
            "config": {
                "command": "regress", "data": IRIS, "response": ["sepal_width"],
                "covariates": ["petal_width"], "no_header": False, "intercept": False,
                "enumerate_subsets": False, "criterion": "evidence", "lambda_path": [0.5, 2.0],
                "json": str(path), "out": str(out),
            },
            "seed": None,
            "version": covsel.__version__,
            "outputs": [str(path), str(out)],
        }

    def test_rates(self, tmp_path):
        path, out = tmp_path / "rates.json", tmp_path / "rates.csv"
        argv = ["rates", "--d", "2", "--n-grid", "10", "20", "--reps", "3", "--out", str(out)]
        assert self.manifest(argv, path) == {
            "command": "rates",
            "config": {
                "command": "rates", "pair": "A-vs-C", "truth": "C", "d": 2, "n_grid": [10, 20],
                "reps": 3, "seed": 0, "beta_inv": 2.0, "out": str(out), "json": str(path),
            },
            "seed": 0,
            "version": covsel.__version__,
            "outputs": [str(out), str(path)],
        }


class TestRates:
    def test_repeated_n_exits_2(self, tmp_path, capsys):
        # the slope of a grid with one n would divide by a zero spread
        out, js = tmp_path / "rates.csv", tmp_path / "rates.json"
        argv = ["rates", "--d", "3", "--n-grid", "10", "10", "--reps", "5"]
        assert run(argv + ["--out", str(out), "--json", str(js)]) == 2
        assert capsys.readouterr().err == "error: n_grid must be strictly increasing\n"
        assert not out.exists() and not js.exists()

    def test_single_n_no_slope(self, tmp_path):
        out = tmp_path / "rates.csv"
        js = tmp_path / "rates.json"
        rc = run(
            [
                "rates", "--pair", "D-vs-C", "--truth", "C", "--d", "3",
                "--n-grid", "50", "--reps", "3", "--seed", "1",
                "--out", str(out), "--json", str(js),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(js.read_text())["study"]["slope"] is None

    def test_negative_seed_exits_2(self, capsys):
        argv = ["rates", "--pair", "A-vs-C", "--truth", "C", "--d", "3", "--n-grid", "10", "20"]
        assert run(argv + ["--reps", "5", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: reps must be >= 1 and the seed >= 0\n"

    @pytest.mark.parametrize("truth", ["A", "C"])
    def test_beta_inverse_whose_rates_overflow_exits_2(self, capsys, truth):
        # positive and finite, but the generating rates 2 beta and d beta are not
        argv = ["rates", "--truth", truth, "--d", "2", "--n-grid", "20", "40", "--reps", "3"]
        assert run(argv + ["--beta-inv", "1e-308"]) == 2
        assert capsys.readouterr().err.startswith("error: beta_inverse 1e-308 is out of range")

    @pytest.mark.parametrize(
        "truth, pair", [("A", "A-vs-C"), ("D", "D-vs-C"), ("C", "D-vs-C")]
    )
    def test_an_overflowing_prior_draw_exits_3(self, capsys, truth, pair):
        # every prior draw overflows at this beta_inverse. The study exits 3
        # naming the drawn half-precision; it neither scores an inf draw's
        # zero scatter nor warns (a RuntimeWarning would fail the test)
        argv = ["rates", "--truth", truth, "--pair", pair, "--beta-inv", "1e308"]
        assert run(argv + ["--reps", "3", "--n-grid", "5", "6"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: SupportError: a drawn half-precision must be positive and finite\n"
        )

    def test_unknown_pair_exits_2(self):
        rc = run(["rates", "--pair", "B-vs-C", "--n-grid", "10", "--reps", "1"])
        assert rc == 2

    def test_nested_true_n1_exits_2(self, capsys):
        argv = ["rates", "--truth", "C", "--d", "3", "--n-grid", "1", "10", "--reps", "5"]
        assert run(argv) == 2
        assert "n >= 2" in capsys.readouterr().err

    def test_n_below_d_exits_2(self, capsys):
        # the study draws Wishart scatters, which need n >= d
        assert run(["rates", "--truth", "A", "--d", "5", "--n-grid", "3", "10"]) == 2
        assert "n >= d" in capsys.readouterr().err

    @pytest.mark.parametrize("truth", ["A", "D", "C"])
    def test_zero_dimension_exits_2(self, capsys, truth):
        assert run(["rates", "--truth", truth, "--d", "0", "--n-grid", "10", "--reps", "2"]) == 2
        assert "d >= 1" in capsys.readouterr().err

    # ragged, non-numeric, not square, non-finite, not positive definite
    @pytest.mark.parametrize("sigma", ["1,0.5;0.5", "1,a;a,1", "1,0.5", "1,0;0,nan", "1,2;2,1"])
    def test_bad_fixed_sigma_exits_2(self, capsys, sigma):
        argv = ["rates", "--pair", "A-vs-D", "--truth", "A", "--n-grid", "10", "--reps", "2"]
        assert run(argv + ["--fixed-sigma", sigma]) == 2
        assert "--fixed-sigma is not a positive definite matrix" in capsys.readouterr().err

    def test_fixed_sigma_outside_truth_a_exits_2(self, capsys):
        argv = ["rates", "--truth", "C", "--n-grid", "10", "--reps", "2", "--fixed-sigma", "1"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --fixed-sigma is only meaningful with --truth A\n"

    def test_fixed_sigma(self, tmp_path):
        js = tmp_path / "r.json"
        rc = run(
            [
                "rates", "--pair", "A-vs-D", "--truth", "A",
                "--fixed-sigma", "1,0.5;0.5,1",
                "--n-grid", "200", "--reps", "5", "--seed", "2", "--json", str(js),
            ]
        )
        assert rc == 0
        doc = json.loads(js.read_text())
        assert doc["study"]["target"] == pytest.approx(0.5 * np.log(4 / 3))


class TestNonFiniteInput:
    """NaN and inf fail every `x > bound` check: usage errors, not tracebacks
    or numerical failures."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--beta-inv", "nan", "--n", "5", "--reps", "1"],
            ["simulate", "--beta-inv", "inf", "--n", "5", "--reps", "1"],
            ["rates", "--beta-inv", "nan", "--n-grid", "10", "--reps", "1"],
            ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width",
             "--lambda-path", "nan", "1"],
        ],
    )
    def test_exits_2(self, capsys, argv):
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err


class TestPaths:
    # a directory where a file is expected raises IsADirectoryError, not FileNotFoundError
    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "DIR"],
            ["regress", IRIS, "--response", "sepal_length", "--covariates-file", "DIR"],
            ["simulate", "--n", "5", "--reps", "1", "--d", "2", "--json", "DIR"],
        ],
    )
    def test_directory_exits_2(self, tmp_path, capsys, argv):
        assert run([str(tmp_path) if arg == "DIR" else arg for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err


class TestJsonWriter:
    """The CLI's JSON writer is json.dumps(doc, indent=2, sort_keys=True)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", IRIS, "--hyper-source", "mclust", "--criterion", "kic"],
            ["simulate", "--table", "vs-mclust", "--n", "3", "6", "--reps", "3", "--d", "2",
             "--records"],
            ["rates", "--pair", "A-vs-C", "--truth", "C", "--d", "2", "--reps", "5",
             "--n-grid", "20", "40"],
            ["regress", IRIS, "--response", "sepal_width", "--covariates", "sepal_length",
             "petal_length", "petal_width", "--enumerate"],
            ["regress", IRIS, "--response", "sepal_width", "--covariates", "petal_width",
             "--intercept", "--lambda-path", "0.3", "1.0"],
            ["regress", IRIS, "--response", "sepal_width", "sepal_length", "--covariates",
             "petal_width", "--intercept"],
            ["simulate", "--table", "eb", "--n", "3", "--reps", "4", "--d", "2", "--records"],
        ],
        ids=["select", "simulate", "rates", "regress-enumerate", "regress-lambda-path",
             "regress-single", "simulate-eb-records"],
    )
    def test_every_command_writes_the_stdlib_format(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        assert run(argv + ["--json", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def every_command_parser():
    """A parser holding every subcommand's arguments, as `main` built before
    it added only the invoked one's: a root from `cli._build_parser`, each of
    whose subparsers is replaced by the one built for its command."""
    def subparsers(parser):
        return parser._subparsers._group_actions[0].choices

    root = cli._build_parser.__wrapped__(None)
    for name in list(subparsers(root)):
        subparsers(root)[name] = subparsers(cli._build_parser.__wrapped__(name))[name]
    return root


class TestParser:
    COMMANDS = ["select", "simulate", "regress", "rates"]
    # argv that `main` answers by parsing alone: help, the version, usage errors
    ARGVS = [
        [],
        ["--help"],
        ["-h"],
        ["--version"],
        *([c, "--help"] for c in COMMANDS),
        *([c, "--bogus"] for c in COMMANDS),
        ["select"],
        ["regress", IRIS],
        ["select", IRIS, "--criterion", "nope"],
        ["simulate", "--table", "nope"],
        ["simulate", "--reps", "x"],
        ["rates", "--truth", "Q"],
        ["rates", "--beta-inv", "abc"],
        ["rates", "--reps", "3", "extra"],
        ["rates", "--version"],
        ["nope"],
        ["nope", "rates"],
        ["--nope"],
        ["--nope", "rates"],
        ["-"],
        ["--", "rates"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @staticmethod
    def eager_main(argv):
        """`main` on `every_command_parser`, for argv that stop at parsing."""
        parser = every_command_parser()
        assert not hasattr(parser.parse_args(argv), "func")
        parser.print_help()
        return 2

    def test_output_is_that_of_every_command_parser(self, capsys):
        want = [self.outcome(self.eager_main, argv, capsys) for argv in self.ARGVS]
        for argv, expected in zip(self.ARGVS, want):
            cli._build_parser.cache_clear()  # a process's first call
            assert self.outcome(main, argv, capsys) == expected, argv
        for argv, expected in reversed(list(zip(self.ARGVS, want))):  # with other commands built
            assert self.outcome(main, argv, capsys) == expected, argv

    def test_a_call_builds_only_its_command(self, capsys):
        cli._build_parser.cache_clear()
        assert self.outcome(main, ["rates", "--reps", "x"], capsys)[0] == 2
        choices = cli._build_parser("rates")._subparsers._group_actions[0].choices  # cached
        dests = {c: [a.dest for a in p._actions] for c, p in choices.items()}
        assert dests["select"] == dests["simulate"] == dests["regress"] == ["help"]
        assert "n_grid" in dests["rates"]
        assert cli._build_parser.cache_info().currsize == 1


class TestEntryPoint:
    def test_no_command_prints_help_and_returns_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().out.startswith("usage: covsel")
    def test_console_script(self):
        # the child imports the covsel under test, installed or not
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "covsel.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "covsel" in proc.stdout
