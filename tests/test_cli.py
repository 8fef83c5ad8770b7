import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import covsel.cli as cli
from covsel.cli import main

IRIS = str(resources.files("covsel") / "datasets" / "iris_setosa.csv")


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
            # a C entry of the wrong dimension would be skipped as unfit
            ("C", {"structure": "C", "alpha": 6.0, "rate": 1.0, "dim": 3}, "dimension 3"),
            # outside the prior's support
            ("A", {"structure": "A", "alpha": -1, "rate": [[0.5, 0], [0, 0.5]]}, "Wishart shape"),
            ("D", {"structure": "D", "alpha": 2.0, "rate": [0.5, -1.0]}, "positive and finite"),
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

    def test_invalid_beta_exits_2(self):
        rc = run(["simulate", "--beta-inv", "-1", "--n", "5", "--reps", "1"])
        assert rc == 2

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
        "text, message",
        [
            ("{not json", "cannot read JSON"),
            ("[1, 2]", "expected a JSON object"),
            ('{"alpha": "two"}', "malformed --hyper file"),
            ('{"lambda": [["a"]]}', "malformed --hyper file"),
            ('{"lambda": [[NaN]]}', "malformed --hyper file"),
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


class TestRates:
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


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covsel.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "covsel" in proc.stdout
