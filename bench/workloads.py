"""The benchmark's workloads: generated inputs, covsel CLI commands and
the correctness check of each command's output.

Every workload is a batch job driven through `covsel.cli.main(argv)`.
Inputs (CLI arguments and, for regress-enum, a CSV) come from the
workload seed only. A check returns the number of the command's items
that failed and, when any did, the reason.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import reference

Check = Callable[[], Tuple[int, Optional[str]]]


@dataclass(frozen=True)
class Command:
    argv: List[str]
    items: int
    outputs: List[Path]  # removed before each run so a stale file cannot pass
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    commands: List[Command]

    @property
    def items(self) -> int:
        return sum(c.items for c in self.commands)


def _load(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _close(got, want, rtol) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rtol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# sim-oracle
# ---------------------------------------------------------------------------

SIM_D, SIM_BETA_INV, SIM_N, SIM_REPS = 5, 2.0, (5, 10), 100
SIM_LABELS = ("bic", "pcbic", "evidence")


def sim_oracle(seed: int, work: Path) -> Workload:
    out = work / "simulate.json"
    argv = [
        "simulate", "--table", "oracle", "--d", str(SIM_D), "--beta-inv", str(SIM_BETA_INV),
        "--n", *map(str, SIM_N), "--reps", str(SIM_REPS), "--seed", str(seed), "--json", str(out),
    ]
    items = len(reference.TRUTHS) * len(SIM_N) * SIM_REPS
    expected = reference.oracle_tables(seed, SIM_D, SIM_BETA_INV, SIM_N, SIM_REPS, SIM_LABELS)

    def check():
        doc = _load(out)
        if doc is None or len(doc.get("tables", [])) != len(expected):
            return items, "simulate JSON missing or incomplete"
        excluded = 0
        for got, want in zip(doc["tables"], expected):
            excluded += got["exclusions"]
            if got["n"] != want["n"] or got["reps"] != want["reps"]:
                return items, f"table n={got['n']} does not match the requested grid"
            for lab, mat in want["matrices"].items():
                if got["matrices"].get(lab, {}).get("counts") != mat["counts"]:
                    return items, f"n={want['n']} {lab}: confusion counts differ from the reference"
            if len(got["comparisons"]) != len(want["comparisons"]):
                return items, f"n={want['n']}: wrong number of McNemar comparisons"
            for g, w in zip(got["comparisons"], want["comparisons"]):
                exact = all(g[k] == w[k] for k in ("first", "second", "scope", "better", "b", "c", "method", "significant"))
                if not (exact and _close(g["statistic"], w["statistic"], 1e-12) and _close(g["p_value"], w["p_value"], 1e-9)):
                    return items, f"n={want['n']} {g['first']} vs {g['second']} ({g['scope']}): McNemar result differs"
        return excluded, (f"{excluded} replicates excluded" if excluded else None)

    return Workload(
        "sim-oracle",
        "the paper's criterion-comparison table; almost all time is in structures.criteria",
        "replicate",
        [Command(argv, items, [out], check)],
    )


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

RATES_GRID = (100, 316, 1000, 3162, 10000)  # the CLI's default n grid
RATES_REPS = 400
# A fixed non-isotropic covariance for the full-true study: its linear rate
# is the per-draw limit the paper states (see README.md, defect a).
RATES_SIGMA = np.array(
    [
        [2.0, 0.6, 0.3, 0.0, 0.0],
        [0.6, 1.5, 0.4, 0.2, 0.0],
        [0.3, 0.4, 1.0, 0.3, 0.1],
        [0.0, 0.2, 0.3, 0.8, 0.2],
        [0.0, 0.0, 0.1, 0.2, 0.5],
    ]
)
# log n slope of log(E_A / E_C) when C is true: -(k - l)/2
RATES_LOG_RATE = -(reference.param_count("A", 5) - reference.param_count("C", 5)) / 2
RATES_Z = 6.0  # standard errors allowed between slope and target
RATES_REL = 0.02  # plus this share of the target, for finite-n bias


def _slope_check(out: Path, items: int, target: float, nested_true: bool) -> Check:
    """The least-squares slope must lie within RATES_Z standard errors
    (propagated from the per-n standard errors) plus RATES_REL of the
    closed-form target. In the full-true case the -(k - l)/2 log n term
    of the log evidence ratio tilts the linear fit by a known amount,
    which is added to the target first."""
    n = np.asarray(RATES_GRID, dtype=float)
    scale = np.log(n) if nested_true else n
    xc = scale - scale.mean()
    weights = xc / (xc @ xc)
    drift = 0.0 if nested_true else RATES_LOG_RATE * float(weights @ np.log(n))

    def check():
        doc = _load(out)
        study = doc.get("study") if doc else None
        if not study or [r["n"] for r in study["rows"]] != list(RATES_GRID):
            return items, f"{out.name}: study missing or on the wrong n grid"
        if not _close(study["target"], target, 1e-9):
            return items, f"{out.name}: target {study['target']!r} != closed form {target!r}"
        se = float(np.sqrt(np.sum((weights * scale * [r["se"] for r in study["rows"]]) ** 2)))
        tol = RATES_Z * se + RATES_REL * abs(target)
        off = study["slope"] - (target + drift)
        if not abs(off) <= tol:
            return items, f"{out.name}: slope {study['slope']:.5f} is {off:+.5f} from {target + drift:.5f} (tolerance {tol:.5f})"
        return 0, None

    return check


def rates(seed: int, work: Path) -> Workload:
    sigma_arg = ";".join(",".join(repr(float(v)) for v in row) for row in RATES_SIGMA)
    per_command = len(RATES_GRID) * RATES_REPS
    commands = []
    for label, extra, target, nested_true in (
        ("nested", ["--truth", "C", "--d", "5"], RATES_LOG_RATE, True),
        ("full", ["--truth", "A", "--fixed-sigma", sigma_arg], reference.amgm_rate(RATES_SIGMA), False),
    ):
        js, csv = work / f"rates-{label}.json", work / f"rates-{label}.csv"
        argv = ["rates", "--pair", "A-vs-C", *extra, "--reps", str(RATES_REPS), "--seed", str(seed),
                "--out", str(csv), "--json", str(js)]
        commands.append(Command(argv, per_command, [js, csv], _slope_check(js, per_command, target, nested_true)))
    return Workload(
        "rates",
        "evidence-ratio divergence rates on n up to 10000; sampling and log_evidence, never criteria",
        "(n, replicate) draw",
        commands,
    )


# ---------------------------------------------------------------------------
# regress-enum
# ---------------------------------------------------------------------------

REG_N, REG_D1, REG_D2, REG_ACTIVE = 2000, 3, 10, 3
REG_RTOL = 1e-9


def regress_enum(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    x = rng.standard_normal((REG_N, REG_D2))
    coef = np.zeros((REG_D1, REG_D2))
    active = rng.choice(REG_D2, size=REG_ACTIVE, replace=False)
    coef[:, active] = rng.normal(0.0, 1.0, size=(REG_D1, REG_ACTIVE))
    noise_scale = np.linalg.cholesky(np.array([[1.0, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.8]]))
    y = x @ coef.T + rng.standard_normal((REG_N, REG_D1)) @ noise_scale.T
    ynames = [f"y{i}" for i in range(REG_D1)]
    xnames = [f"x{i}" for i in range(REG_D2)]
    data = work / "regress.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(",".join(ynames + xnames) + "\n")
        for row in np.hstack([y, x]):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out = work / "regress.json"
    argv = ["regress", str(data), "--response", *ynames, "--covariates", *xnames, "--enumerate", "--json", str(out)]
    items = 2**REG_D2 - 1
    expected = reference.regression_subsets(y, x, xnames)

    def check():
        doc = _load(out)
        fits = doc.get("fits") if doc else None
        if not fits or len(fits) != items or {tuple(f["subset"]) for f in fits} != set(expected):
            return items, "regress JSON missing or not one fit per nonempty subset"
        best = [max(f["reports"][s]["log_evidence"] for s in "CDA") for f in fits]
        if any(a < b for a, b in zip(best, best[1:])):
            return items, "fits are not sorted by best log evidence"
        for f in fits:
            want = expected[tuple(f["subset"])]
            for s, values in want.items():
                for key, v in values.items():
                    if not _close(f["reports"][s][key], v, REG_RTOL):
                        return items, f"subset {f['subset']} structure {s}: {key} {f['reports'][s][key]!r} != {v!r}"
        return 0, None

    return Workload(
        "regress-enum",
        "all 1023 covariate subsets of a 2000-row CSV; fit_regression and its n-row recomputations",
        "covariate subset",
        [Command(argv, items, [out], check)],
    )


WORKLOADS = {"sim-oracle": sim_oracle, "rates": rates, "regress-enum": regress_enum}
