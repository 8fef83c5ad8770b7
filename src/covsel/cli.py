"""Command line interface: select | simulate | regress | rates.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every command that takes --seed produces byte-identical JSON across runs;
wall-clock timing is therefore reported on stderr, not inside the JSON
payload.
"""

import argparse
import json
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .asymptotics import RateStudyConfig, rate_study
from .data import center_columns, load_csv, suff_stats
from .errors import (
    ConfigError,
    CovselError,
    CsvParseError,
    EmptyDatasetError,
)
from .montecarlo import (
    SimConfig,
    TRUTH_ORDER,
    confusion_table,
    render_confusion_markdown,
    run_cell,
)
from .precision import FullPrecision
from .priors import (
    HyperTriple,
    empirical_bayes,
    hyper_from_jsonable,
    mclust_default,
)
from .montecarlo import oracle_hyper
from .regression import (
    RegressionData,
    enumerate_covariates,
    fit_regression,
    lambda_path,
    standard_hypers,
)
from .structures import CRITERIA, SIMPLEST_FIRST, select_structure

_CONFIG_ERRORS = (
    ConfigError, CsvParseError, EmptyDatasetError, FileNotFoundError, UnicodeDecodeError
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    start = time.monotonic()
    try:
        rc = args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CovselError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"[covsel] done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return rc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Bayesian evidence for Gaussian covariance structure selection",
    )
    parser.add_argument("--version", action="version", version=f"covsel {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("select", help="rank covariance structures for a CSV dataset")
    p.add_argument("data", help="CSV file of observations (rows)")
    p.add_argument("--columns", nargs="+", help="column names or 0-based indices to use")
    p.add_argument("--no-header", action="store_true", help="file has no header row")
    p.add_argument("--center", action="store_true", help="subtract column means first")
    p.add_argument(
        "--hyper-source",
        default="empirical-bayes",
        help="'empirical-bayes', 'mclust', or 'file:PATH' with per-structure hypers",
    )
    p.add_argument("--criterion", default="evidence", choices=CRITERIA)
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="criterion comparison studies with confusion tables")
    p.add_argument("--table", default="oracle", choices=("oracle", "eb", "vs-mclust"))
    p.add_argument("--beta-inv", type=float, nargs="+", default=[2.0])
    p.add_argument("--n", type=int, nargs="+", default=[5, 10])
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--records", action="store_true", help="include per-replicate decisions")
    p.add_argument("--json", help="write confusion tables as JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("regress", help="regression evidences, covariate subsets, penalty paths")
    p.add_argument("data", help="CSV file with response (and, by default, covariate) columns")
    p.add_argument("--response", nargs="+", required=True, help="response column names/indices")
    p.add_argument("--covariates", nargs="+", default=[], help="covariate column names/indices")
    p.add_argument(
        "--covariates-file",
        help="read covariate columns from this CSV instead of the response file",
    )
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--intercept", action="store_true", help="prepend an all-ones covariate")
    p.add_argument("--hyper", help="JSON file with alpha/beta and optional nu/lambda")
    p.add_argument("--enumerate", dest="enumerate_subsets", action="store_true")
    p.add_argument("--criterion", default="evidence", choices=CRITERIA)
    p.add_argument("--lambda-path", type=float, nargs="+", help="lambda grid (d1 = 1 only)")
    p.add_argument("--json", help="write the machine-readable table here")
    p.add_argument("--out", help="write the lambda-path CSV here (default stdout)")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("rates", help="evidence-ratio divergence rate studies")
    p.add_argument("--pair", default="A-vs-C", help="A-vs-D, A-vs-C or D-vs-C")
    p.add_argument("--truth", default="C", choices=TRUTH_ORDER)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n-grid", type=int, nargs="+", default=[100, 316, 1000, 3162, 10000])
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta-inv", type=float, default=2.0)
    p.add_argument(
        "--fixed-sigma",
        help="fixed true covariance, rows separated by ';' (truth A only), "
        "e.g. '1,0.5;0.5,1'",
    )
    p.add_argument("--out", help="write the study CSV here (default stdout)")
    p.add_argument("--json", help="write the study (with slope) as JSON here")
    p.set_defaults(func=_cmd_rates)
    return parser


def _manifest(args, command: str) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": [v for k, v in config.items() if k in ("json", "out") and v],
    }


def _write_text(path: Optional[str], text: str) -> None:
    """Write text and a newline to `path`, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_json(path: Optional[str], doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def _read_json(path: str) -> dict:
    """A JSON object from a file; ConfigError if it cannot be read as one."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    data = load_csv(args.data, has_header=not args.no_header, columns=args.columns)
    if args.center:
        data = center_columns(data)
    stats = suff_stats(data)
    source = args.hyper_source
    if source == "empirical-bayes":
        hypers = empirical_bayes(stats)
    elif source == "mclust":
        hypers = mclust_default(stats)
    elif source.startswith("file:"):
        doc = _read_json(source[5:])
        missing = [structure for structure in "ADC" if structure not in doc]
        if missing:
            raise ConfigError(f"{source[5:]} has no hyperparameters for structure(s) {missing}")
        hypers = HyperTriple(*(hyper_from_jsonable(doc[structure]) for structure in "ADC"))
    else:
        raise ConfigError(f"unknown hyper source {source!r}")
    result = select_structure(stats, hypers, args.criterion)

    print(f"n = {stats.n}, d = {stats.d}, criterion = {args.criterion}")
    print("| rank | structure | log evidence | BIC | pcBIC | KIC | k |")
    print("|---|---|---|---|---|---|---|")
    for i, rep in enumerate(result.ranked, start=1):
        print(
            f"| {i} | {rep.structure} | {rep.log_evidence:.1f} | {_fmt(rep.bic)} "
            f"| {_fmt(rep.pc_bic)} | {_fmt(rep.kic)} | {rep.k} |"
        )
    for structure, msg in result.skipped.items():
        print(f"skipped {structure}: {msg}", file=sys.stderr)
    doc = {
        "manifest": _manifest(args, "select"),
        "n": stats.n,
        "d": stats.d,
        "criterion": args.criterion,
        "ranked": [rep.to_jsonable() for rep in result.ranked],
        "skipped": result.skipped,
    }
    if args.json:
        _write_json(args.json, doc)
    return 0


def _cmd_simulate(args) -> int:
    scheme = {"oracle": "oracle", "eb": "empirical-bayes", "vs-mclust": "vs-mclust"}[args.table]
    criteria = ("bic", "pcbic", "evidence")
    configs = [
        SimConfig(
            d=args.d,
            beta_inverse=beta_inv,
            n_values=tuple(args.n),
            reps=args.reps,
            scheme=scheme,
            criteria=criteria,
            seed=args.seed,
        )
        for beta_inv in args.beta_inv
    ]
    doc_tables = []
    for config in configs:
        for n in config.n_values:
            cells = [run_cell(config, truth, n) for truth in TRUTH_ORDER]
            table = confusion_table(cells)
            print(render_confusion_markdown(table))
            entry = table.to_jsonable()
            if args.records:
                entry["records"] = {cell.truth: cell.selected for cell in cells}
            doc_tables.append(entry)
    if args.json:
        _write_json(args.json, {"manifest": _manifest(args, "simulate"), "tables": doc_tables})
    return 0


def _load_regression_hypers(args, d1: int, d2: int):
    if not args.hyper:
        return standard_hypers(d1, d2)
    doc = _read_json(args.hyper)
    try:
        nu = np.asarray(doc["nu"], dtype=float) if "nu" in doc else None
        lam = np.asarray(doc["lambda"], dtype=float) if "lambda" in doc else None
        alpha, beta = float(doc.get("alpha", 2.0)), float(doc.get("beta", 1.0))
        return standard_hypers(d1, d2, alpha=alpha, beta=beta, nu=nu, lam=lam)
    except (TypeError, ValueError) as exc:  # a non-numeric or non-finite entry
        raise ConfigError(f"malformed --hyper file {args.hyper}: {exc}") from exc


def _cmd_regress(args) -> int:
    full = load_csv(args.data, has_header=not args.no_header)
    y = full.select(args.response)
    cov_source = (
        load_csv(args.covariates_file, has_header=not args.no_header)
        if args.covariates_file
        else full
    )
    names = list(args.covariates)
    if args.covariates:
        x = cov_source.select(args.covariates).rows
    elif args.covariates_file:
        x = cov_source.rows
        names = list(cov_source.columns or range(cov_source.d))
    else:
        x = np.zeros((y.n, 0))
    if args.intercept:
        x = np.column_stack([np.ones(y.n), x]) if x.size else np.ones((y.n, 1))
        names = ["intercept"] + names
    data = RegressionData(y.rows, x)

    if args.lambda_path:
        rows = lambda_path(data, args.lambda_path)
        lines = ["lambda,log_evidence,flexibility,bic_penalty,pcbic_penalty,non_regular"]
        for r in rows:
            lines.append(
                f"{r.lam},{r.log_evidence!r},{r.flexibility!r},{r.bic_penalty!r},"
                f"{r.pcbic_penalty!r},{int(r.non_regular)}"
            )
        _write_text(args.out, "\n".join(lines))
        if args.json:
            _write_json(
                args.json,
                {
                    "manifest": _manifest(args, "regress"),
                    "lambda_path": [r.to_jsonable() for r in rows],
                },
            )
        return 0

    hypers = _load_regression_hypers(args, data.d1, data.d2)
    if args.enumerate_subsets:
        fits = enumerate_covariates(data, hypers, names=names or None, criterion=args.criterion)
    else:
        fits = [fit_regression(data, hypers, subset=tuple(names or range(data.d2)))]
    print("| covariates | structure | log evidence | pcBIC |")
    print("|---|---|---|---|")
    for fit in fits:
        label = ", ".join(str(sname) for sname in fit.subset) or "(none)"
        for structure in SIMPLEST_FIRST:
            rep = fit.reports[structure]
            print(
                f"| {label} | {structure} | {rep.log_evidence:.1f} | {_fmt(rep.pc_bic)} |"
            )
    if args.json:
        _write_json(
            args.json,
            {
                "manifest": _manifest(args, "regress"),
                "fits": [fit.to_jsonable() for fit in fits],
            },
        )
    return 0


def _fixed_theta(text: str) -> FullPrecision:
    """The half-precision (2 Sigma)^{-1} of the --fixed-sigma matrix."""
    try:
        sigma = np.asarray([[float(v) for v in row.split(",")] for row in text.split(";")])
        FullPrecision(sigma)  # square, finite, symmetric and positive definite
    except (ValueError, CovselError) as exc:  # ValueError: non-numeric, ragged or not square
        raise ConfigError(f"--fixed-sigma is not a positive definite matrix: {exc}") from exc
    return FullPrecision(0.5 * np.linalg.inv(sigma))


def _cmd_rates(args) -> int:
    fixed_theta = None
    d = args.d
    if args.fixed_sigma:
        if args.truth != "A":
            raise ConfigError("--fixed-sigma is only meaningful with --truth A")
        fixed_theta = _fixed_theta(args.fixed_sigma)
        d = fixed_theta.dim
    config = RateStudyConfig(
        pair=args.pair,
        truth=args.truth,
        hyper=oracle_hyper(args.truth, d, args.beta_inv),
        n_grid=tuple(args.n_grid),
        reps=args.reps,
        seed=args.seed,
        fixed_theta=fixed_theta,
    )
    result = rate_study(config)
    lines = ["n,scaled_statistic,se,target,pair,truth"]
    for row in result.rows:
        lines.append(
            f"{row.n},{row.scaled_mean!r},{row.se!r},{result.target!r},"
            f"{result.pair},{result.truth}"
        )
    _write_text(args.out, "\n".join(lines))
    if result.slope is not None:
        print(f"slope = {result.slope:.4f} (target {result.target:.4f})", file=sys.stderr)
    if args.json:
        _write_json(
            args.json, {"manifest": _manifest(args, "rates"), "study": result.to_jsonable()}
        )
    return 0


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.1f}"


if __name__ == "__main__":
    sys.exit(main())
