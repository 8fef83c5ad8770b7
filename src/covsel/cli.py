"""Command line interface: select | simulate | regress | rates.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every command that takes --seed produces byte-identical JSON across runs;
wall-clock timing is therefore reported on stderr, not inside the JSON
payload. Each command returns its JSON document; `main` adds the manifest
and writes it to --json.
"""

import argparse
import functools
import json
import operator
import re
import sys
import time
from contextlib import contextmanager
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional

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
    _check_criterion,
    _fit_subsets,
    _in_order,
    _rank_subsets,
    lambda_path,
    standard_hypers,
)
from .structures import (
    CRITERIA,
    SIMPLEST_FIRST,
    _REPORT_FIELDS,
    _REPORT_KEYS,
    select_structure,
)

_CONFIG_ERRORS = (ConfigError, CsvParseError, EmptyDatasetError)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    start = time.monotonic()
    try:
        doc = args.func(args)
        if args.json:
            _write_text(args.json, _document({"manifest": _manifest(args), **doc}))
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CovselError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"[covsel] done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0


@functools.lru_cache(maxsize=8)  # one per command (or mistyped word); parsing never changes it
def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every subcommand's name and help, and only `command`'s arguments: `main`
    passes argv's first word that is not an option, as the root takes no values."""
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Bayesian evidence for Gaussian covariance structure selection",
    )
    parser.add_argument("--version", action="version", version=f"covsel {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("select", help="rank covariance structures for a CSV dataset")
    if command == "select":
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
    if command == "simulate":
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
    if command == "regress":
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
    if command == "rates":
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


def _manifest(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": [v for k, v in config.items() if k in ("json", "out") and v],
    }


@contextmanager
def _path_errors(path: str):
    """A path the CLI cannot open, read, write or decode is a ConfigError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot use {path}: {exc}") from exc


def _write_text(path: Optional[str], pieces: Iterable[str]) -> None:
    """Write text, in pieces, and a newline to `path`, or to stdout when there
    is none."""
    if not path:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return
    with _path_errors(path), open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def _document(doc: dict) -> Iterator[str]:
    """json.dumps(doc, indent=2, sort_keys=True) in pieces, one root field at
    a time; a field whose value is an iterator of text pieces is written as
    they are."""
    sep = "{"
    for key, value in sorted(doc.items()):
        yield f"{sep}{_FIELD_PAD}{json.dumps(key)}: "
        yield from value if isinstance(value, Iterator) else [_json_text(value, _FIELD_PAD)]
        sep = ","
    yield "\n}"


def _json_text(doc, pad: str = "\n") -> str:
    """json.dumps(doc, indent=2, sort_keys=True); another `pad` gives the
    text of doc as a value at that indent (a newline and its indent)."""
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", pad)


# a template's slot is the string `_HOLE + name`, its name a word; `_SLOT`
# reads the names back from the encoded text in the order they were written
_HOLE = "\x00"
_SLOT = re.compile(re.escape(json.dumps(_HOLE)[:-1]) + r'(\w+)"')
# the indent of a command's fields, which `main` writes below the document's root
_FIELD_PAD = "\n  "
_ITEM_PAD = _FIELD_PAD + "  "
# a subset label is a column name or a column index
_LABEL_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__}


def _json_array(chunks: Iterable[List[str]], pad: str) -> Iterator[str]:
    """The text, in pieces, of a nonempty array at `pad` whose items have the
    texts of `chunks`' lists in turn, each at the indent below."""
    inner = pad + "  "
    sep = "["
    for items in chunks:
        yield sep + inner + ("," + inner).join(items)
        sep = ","
    yield pad + "]"


def _item_format(stack) -> Callable[[np.ndarray], List[str]]:
    """The `fits` items of a `regression._Stack`'s subsets at given rows: the
    text of each one's `RegressionFit.to_jsonable()`, from one template whose
    named slots are filled from the stack's columns. Its fits have no errors.
    Where every subset's A MAP is symmetric, bit for bit, a mirrored entry
    reuses the text of its twin above the diagonal."""
    reports, columns = {}, {}
    for structure, fit in stack.fits.items():
        maps = fit.map.reshape(len(fit.map), -1)
        index = np.arange(maps.shape[1]).reshape(fit.map.shape[1:])
        bits = np.ascontiguousarray(fit.map).view(np.int64)
        if index.ndim == 2 and np.array_equal(bits, bits.swapaxes(-1, -2)):
            index = np.minimum(index, index.T)
        columns.update((f"{structure}map{j}", column) for j, column in enumerate(maps.T))
        values = {structure + key: getattr(fit, column) for key, column in _REPORT_FIELDS.items()}
        columns.update((name, v) for name, v in values.items() if v is not None)
        map_ = np.array([f"{_HOLE}{structure}map{j}" for j in index.ravel().tolist()])
        slots = (None if v is None else _HOLE + name for name, v in values.items())
        reports[structure] = dict(
            zip(_REPORT_KEYS, (structure, map_.reshape(index.shape).tolist(), *slots, fit.k))
        )
    size = len(stack.labels[0])  # every subset of a stack has the same size
    item = {"reports": reports, "subset": [_HOLE + f"label{j}" for j in range(size)]}
    text = _json_text(item, _ITEM_PAD)
    template = _SLOT.sub("%s", text.replace("%", "%%"))
    # a row's values are its distinct floats' texts, then its labels' texts
    names = _SLOT.findall(text)
    floats = [name for name in dict.fromkeys(names) if name in columns]
    at = {name: i for i, name in enumerate(floats + [f"label{j}" for j in range(size)])}
    fill = operator.itemgetter(*map(at.__getitem__, names))
    block = np.column_stack([columns[name] for name in floats])
    # json.dumps writes a finite float as repr does, and NaN and the infinities
    float_text = float.__repr__ if np.isfinite(block).all() else json.dumps
    labels = stack.labels
    label_text = {x: _LABEL_TEXT[type(x)](x) for x in set(chain.from_iterable(labels))}

    def items(rows: np.ndarray) -> List[str]:
        texts = map(float_text, block[rows].ravel().tolist())
        subsets = (tuple(map(label_text.__getitem__, labels[i])) for i in rows.tolist())
        values = map(tuple.__add__, zip(*[texts] * len(floats)), subsets)
        return list(map(template.__mod__, map(fill, values)))

    return items


def _table_format(stack) -> Callable[[np.ndarray], List[str]]:
    """The lines of the `regress` table of a stack's subsets at given rows,
    each after a newline, read from the stack's columns."""
    template, columns = "", []
    for structure in SIMPLEST_FIRST:
        fit = stack.fits[structure]
        values = (fit.log_evidence, fit.pc_bic)
        cells = ["-" if v is None else "%.1f" for v in values]  # "%.1f" % v == f"{v:.1f}"
        template += f"\n| %s | {structure} | {cells[0]} | {cells[1]} |"
        columns += [None] + [v for v in values if v is not None]  # None: the label
    labels = stack.labels

    def lines(rows: np.ndarray) -> List[str]:
        names = [", ".join(map(str, labels[i])) or "(none)" for i in rows.tolist()]
        fields = (names if v is None else v[rows].tolist() for v in columns)
        return list(map(template.__mod__, zip(*fields)))

    return lines


def _write_csv(path: Optional[str], rows: List[dict]) -> None:
    """Write dict rows as CSV to `path`, or to stdout when there is none: the
    header is the first row's keys, a cell is `str` of its value (a float's
    repr) and a bool is 0 or 1."""
    lines = [",".join(rows[0])]
    lines += [",".join(str(int(v) if type(v) is bool else v) for v in row.values()) for row in rows]
    _write_text(path, ["\n".join(lines)])


def _read_json(path: str) -> dict:
    """A JSON object from a file; ConfigError if it cannot be read as one."""
    try:
        with _path_errors(path), open(path, encoding="utf-8-sig") as fh:  # drops a byte-order mark
            doc = json.load(fh)
    except ValueError as exc:  # not JSON
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------


def _cmd_select(args) -> dict:
    with _path_errors(args.data):
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
        path = source[5:]
        doc = _read_json(path)
        missing = [structure for structure in "ADC" if structure not in doc]
        if missing:
            raise ConfigError(f"{path} has no hyperparameters for structure(s) {missing}")
        hypers = HyperTriple(*(hyper_from_jsonable(doc[structure]) for structure in "ADC"))
        for structure, h in zip("ADC", hypers):
            if (h.structure, h.dim) != (structure, stats.d):
                raise ConfigError(
                    f"{path}: entry {structure!r} is a structure-{h.structure} prior of "
                    f"dimension {h.dim}; the data need structure {structure}, d = {stats.d}"
                )
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
    return {
        "n": stats.n,
        "d": stats.d,
        "criterion": args.criterion,
        "ranked": [rep.to_jsonable() for rep in result.ranked],
        "skipped": result.skipped,
    }


def _cmd_simulate(args) -> dict:
    scheme = {"oracle": "oracle", "eb": "empirical-bayes", "vs-mclust": "vs-mclust"}[args.table]
    criteria = ("bic", "pcbic", "evidence")
    if len(set(args.beta_inv)) < len(args.beta_inv):
        # a repeated value has the same streams, so its tables would be copies
        raise ConfigError(f"--beta-inv values must be distinct, got {args.beta_inv}")
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
    keys = {}
    for config in configs:
        other = keys.setdefault(config.stream_key, config.beta_inverse)
        if other != config.beta_inverse:
            raise ConfigError(
                f"--beta-inv values {other!r} and {config.beta_inverse!r} share the stream key "
                f"round(beta_inverse * 1e6) = {config.stream_key}, so their tables would be copies"
            )
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
    return {"tables": doc_tables}


def _load_regression_hypers(args, d1: int, d2: int):
    if not args.hyper:
        return standard_hypers(d1, d2)
    doc = _read_json(args.hyper)
    try:
        nu = np.asarray(doc["nu"], dtype=float) if "nu" in doc else None
        lam = np.asarray(doc["lambda"], dtype=float) if "lambda" in doc else None
        alpha, beta = float(doc.get("alpha", 2.0)), float(doc.get("beta", 1.0))
        hypers = standard_hypers(d1, d2, alpha=alpha, beta=beta, nu=nu, lam=lam)
    # TypeError and ValueError: a non-numeric or non-finite entry; CovselError:
    # mismatched shapes, or a value outside the prior's support
    except (TypeError, ValueError, CovselError) as exc:
        raise ConfigError(f"malformed --hyper file {args.hyper}: {exc}") from exc
    if hypers["C"].d2 != d2:
        raise ConfigError(f"--hyper file {args.hyper}: nu and lambda need {d2} covariate columns")
    return hypers


def _cmd_regress(args) -> dict:
    if args.out and not args.lambda_path:
        raise ConfigError("--out writes the --lambda-path CSV; give --lambda-path or drop --out")
    with _path_errors(args.data):
        full = load_csv(args.data, has_header=not args.no_header)
    y = full.select(args.response)
    cov_source = full
    if args.covariates_file:
        with _path_errors(args.covariates_file):
            cov_source = load_csv(args.covariates_file, has_header=not args.no_header)
        if cov_source.n != y.n:
            raise ConfigError(
                f"{args.covariates_file} has {cov_source.n} rows but {args.data} has {y.n}"
            )
    names = list(args.covariates)
    if args.covariates:
        x = cov_source.select(args.covariates).rows
    elif args.covariates_file:
        x = cov_source.rows
        # without a header a column's label is its index, as the command line writes it
        names = [str(c) for c in cov_source.columns or range(cov_source.d)]
    else:
        x = np.zeros((y.n, 0))
    if args.intercept:
        x = np.column_stack([np.ones(y.n), x]) if x.size else np.ones((y.n, 1))
        names = ["intercept"] + names
    data = RegressionData(y.rows, x)

    if args.lambda_path:
        ignored = {"--hyper": args.hyper, "--enumerate": args.enumerate_subsets,
                   "--criterion": args.criterion != "evidence"}
        if any(ignored.values()):
            flags = ", ".join(flag for flag, given in ignored.items() if given)
            raise ConfigError(f"--lambda-path fixes its own prior and criterion; drop {flags}")
        rows = [row.to_jsonable() for row in lambda_path(data, args.lambda_path)]
        _write_csv(args.out, rows)
        return {"lambda_path": rows}

    _check_criterion(args.criterion)  # with --enumerate or not: kic is undefined here
    if args.enumerate_subsets and not data.d2:
        raise ConfigError("--enumerate needs at least one --covariates column")
    hypers = _load_regression_hypers(args, data.d1, data.d2)
    # the table and the fits' JSON are text read from each stack's columns and
    # written in rank order, in chunks: no per-subset objects, no whole text
    if args.enumerate_subsets:
        stacks, order = _rank_subsets(data, hypers, names or None, criterion=args.criterion)
    else:
        stacks = [_fit_subsets(data, hypers, None, [tuple(names or range(data.d2))])]
        order = np.zeros(1, dtype=int)
    head = "| covariates | structure | log evidence | pcBIC |\n|---|---|---|---|"
    tables = _in_order(stacks, order, list(map(_table_format, stacks)))
    _write_text(None, chain([head], map("".join, tables)))
    if not args.json:
        return {}
    items = _in_order(stacks, order, list(map(_item_format, stacks)))
    return {"fits": _json_array(items, _FIELD_PAD)}  # one subset at least


def _fixed_theta(text: str) -> FullPrecision:
    """The half-precision (2 Sigma)^{-1} of the --fixed-sigma matrix."""
    try:
        sigma = np.asarray([[float(v) for v in row.split(",")] for row in text.split(";")])
        FullPrecision(sigma)  # square, finite, symmetric and positive definite
    except (ValueError, CovselError) as exc:  # ValueError: non-numeric, ragged or not square
        raise ConfigError(f"--fixed-sigma is not a positive definite matrix: {exc}") from exc
    return FullPrecision(0.5 * np.linalg.inv(sigma))


def _cmd_rates(args) -> dict:
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
    study = result.to_jsonable()
    _write_csv(args.out, [dict(row, pair=result.pair, truth=result.truth) for row in study["rows"]])
    if result.slope is not None:
        print(f"slope = {result.slope:.4f} (target {result.target:.4f})", file=sys.stderr)
    return {"study": study}


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.1f}"


if __name__ == "__main__":
    sys.exit(main())
