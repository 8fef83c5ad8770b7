"""Simulation studies comparing selection criteria across structures.

The protocol per replicate: draw one half-precision from the true
structure's prior, generate an n-row Gaussian sample from it, score all
three structures under each criterion, and record which structure each
criterion selected. A cell draws all its replicates first and then
scores their stack of scatter matrices at once. Hyperparameters for
scoring come from one of three schemes: the generating ones plus their
matched projections ("oracle"), method-of-moments estimates from the
replicate's own data ("empirical-bayes"), or the mclust default
regularization ("mclust-default"). Criterion differences are tested with McNemar's
procedure on the paired decisions.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import bdtr

from .data import Dataset, SuffStats
from .errors import ConfigError, CovselError, SupportError
from .precision import DiagPrecision, FullPrecision, HalfPrecision
from .priors import (
    GammaHyper,
    GammaVecHyper,
    Hyper,
    WishartHyper,
    empirical_bayes,
    matched_family,
    mclust_default,
    sample_half_precision,
    shape_for_sample_size,
    stack_hypers,
)
from .specialfn import chi_square_sf, cholesky_pd
from .structures import best_structures, fit_stack

__all__ = [
    "SimConfig",
    "CellDecisions",
    "ConfusionMatrix",
    "ConfusionTable",
    "McNemarResult",
    "TRUTH_ORDER",
    "gaussian_rows",
    "oracle_hyper",
    "generate_instance",
    "draw_scatters",
    "run_cell",
    "mcnemar",
    "confusion_table",
]

TRUTH_ORDER = ("A", "D", "C")

SCHEMES = ("oracle", "empirical-bayes", "mclust-default", "vs-mclust")

# labels used for the combined empirical-Bayes vs mclust comparison, each
# with the hyperparameter scheme and the criterion it ranks by
_VS_MCLUST_PLAN = {
    "mc-bic": ("mclust-default", "bic"),
    "mc-pcbic": ("mclust-default", "pcbic"),
    "mc-evidence": ("mclust-default", "evidence"),
    "evidence": ("empirical-bayes", "evidence"),
}


def gaussian_rows(theta: HalfPrecision, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from N(0, (2 theta)^{-1}) as rows."""
    d = theta.dim
    z = rng.standard_normal((n, d))
    if isinstance(theta, FullPrecision):
        c = cholesky_pd(2 * theta.matrix)
        # Sigma = (C C^T)^{-1}; rows are C^{-T} z_i
        return np.linalg.solve(c.T, z.T).T
    if isinstance(theta, DiagPrecision):
        return z / np.sqrt(2 * theta.diag)
    return z / np.sqrt(2 * theta.value)


def oracle_hyper(truth: str, d: int, beta_inverse: float, m: float = 2.0) -> Hyper:
    """The generating hyperparameters of the simulation protocol.

    Shapes correspond to a common prior sample size m across structures;
    rates are beta * I (A), beta per axis (D) and d * beta (C) with
    beta = 1 / beta_inverse, so the three hyperparameterizations project
    onto one another under the matching maps.
    """
    if beta_inverse <= 0 or d < 1:
        raise ConfigError(f"need beta_inverse > 0 and d >= 1, got {beta_inverse} and d={d}")
    beta = 1.0 / beta_inverse
    alpha = shape_for_sample_size(truth, m, d)
    if truth == "A":
        return WishartHyper(alpha, beta * np.eye(d))
    if truth == "D":
        return GammaVecHyper(alpha, np.full(d, beta))
    if truth == "C":
        return GammaHyper(alpha, d * beta, d)
    raise ConfigError(f"unknown truth {truth!r}")


def generate_instance(h: Hyper, n: int, rng: np.random.Generator) -> Dataset:
    """Draw a half-precision from the prior, then n Gaussian rows from it."""
    theta = sample_half_precision(h, rng)
    return Dataset(gaussian_rows(theta, n, rng))


def draw_scatters(h: Hyper, n: int, rngs: Sequence) -> Tuple[np.ndarray, Dict[int, CovselError]]:
    """(r, d, d) symmetric scatters x^T x of n rows, one per generator in
    `rngs`: each draws a half-precision theta from the prior `h`, then the
    rows x from N(0, (2 theta)^{-1}).

    A stream whose draw fails gets a NaN scatter and an entry in the
    returned errors, so it fails alone, not the stack. A draw fails where
    the prior's draw is too close to singular to be a half-precision, or so
    close to zero that the scatter of its rows overflows.
    """
    s = np.full((len(rngs), h.dim, h.dim), np.nan)
    errors: Dict[int, CovselError] = {}
    # an overflowing scatter (inf, or NaN from inf - inf) becomes an error below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rng in enumerate(rngs):
            try:
                x = gaussian_rows(sample_half_precision(h, rng), n, rng)
            except CovselError as exc:
                errors[i] = exc
                continue
            s[i] = x.T @ x
        s = (s + s.swapaxes(-1, -2)) / 2
    for i in np.flatnonzero(~np.isfinite(s).all(axis=(-2, -1))):
        errors.setdefault(int(i), SupportError("the scatter of a drawn half-precision overflows"))
        s[i] = np.nan
    return s, errors


@dataclass(frozen=True)
class SimConfig:
    """Settings of a simulation sweep."""

    d: int = 5
    beta_inverse: float = 2.0
    n_values: Tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    reps: int = 1000
    scheme: str = "oracle"
    criteria: Tuple[str, ...] = ("evidence", "pcbic")
    seed: int = 0
    prior_sample_size: float = 2.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.reps < 1 or self.d < 1:
            raise ConfigError("reps and d must be >= 1")
        if self.beta_inverse <= 0:
            raise ConfigError("beta_inverse must be positive")
        if any(n < 1 for n in self.n_values):
            raise ConfigError("n values must be >= 1")
        if self.scheme in ("empirical-bayes", "vs-mclust") and min(self.n_values) < self.d:
            raise ConfigError(
                "empirical-Bayes schemes need n >= d for a positive definite scatter"
            )

    @property
    def plan(self) -> Dict[str, Tuple[str, str]]:
        """label -> (hyperparameter scheme, criterion)."""
        if self.scheme == "vs-mclust":
            return dict(_VS_MCLUST_PLAN)
        return {lab: (self.scheme, lab) for lab in self.criteria}


@dataclass(frozen=True)
class CellDecisions:
    """Per-replicate selections of every criterion label in one cell."""

    truth: str
    n: int
    beta_inverse: float
    scheme: str
    reps: int
    selected: Dict[str, List[Optional[str]]]
    failures: int


def _rep_rng(config: SimConfig, truth: str, n: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        (config.seed, TRUTH_ORDER.index(truth), int(n), int(round(config.beta_inverse * 1e6)), rep)
    )
    return np.random.default_rng(ss)


def run_cell(config: SimConfig, truth: str, n: int) -> CellDecisions:
    """Run all replicates of one (truth, n) cell. Deterministic given the
    seed; generation consumes the same RNG draws in every scheme, so cells
    run under different schemes with equal seeds are paired.

    Every replicate is drawn first. Each hyperparameter scheme then fits
    the whole stack of scatters once, and every criterion label is ranked
    from those shared fits. A replicate that cannot be drawn, whose
    hyperparameters cannot be built, or for which some label has no
    structure left, counts as a failure; only CovselError counts, anything
    else propagates.
    """
    gen = oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size)
    rngs = [_rep_rng(config, truth, n, rep) for rep in range(config.reps)]
    scatters, undrawn = draw_scatters(gen, n, rngs)

    plan = config.plan
    schemes = {scheme for scheme, _ in plan.values()}
    builders = {
        "empirical-bayes": lambda stats: empirical_bayes(stats, config.prior_sample_size),
        "mclust-default": mclust_default,
    }
    per_rep = {scheme: [] for scheme in schemes - {"oracle"}}  # triples of the `ok` replicates
    ok = []
    for rep in range(config.reps):
        if rep in undrawn:
            continue
        try:
            stats = SuffStats(n=n, d=config.d, s=scatters[rep]) if per_rep else None
            triples = {scheme: builders[scheme](stats) for scheme in per_rep}
        except CovselError:
            continue
        ok.append(rep)
        for scheme, triple in triples.items():
            per_rep[scheme].append(triple)

    selected: Dict[str, List[Optional[str]]] = {lab: [None] * config.reps for lab in plan}
    failures = config.reps - len(ok)
    if ok:
        hypers = {scheme: stack_hypers(triples) for scheme, triples in per_rep.items()}
        if "oracle" in schemes:
            hypers["oracle"] = matched_family(gen)
        fits = {scheme: fit_stack(scatters[ok], n, hypers[scheme]) for scheme in schemes}
        choices = [best_structures(fits[scheme], crit) for scheme, crit in plan.values()]
        for rep, picks in zip(ok, zip(*choices)):
            if None in picks:
                failures += 1
                continue
            for lab, choice in zip(plan, picks):
                selected[lab][rep] = choice
    return CellDecisions(
        truth=truth,
        n=n,
        beta_inverse=config.beta_inverse,
        scheme=config.scheme,
        reps=config.reps,
        selected=selected,
        failures=failures,
    )


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    statistic: float
    p_value: float
    method: str


def mcnemar(b: int, c: int, method: str = "auto") -> McNemarResult:
    """Two-sided McNemar test from the discordant counts b and c.

    Exact binomial when b + c < 25 (or when forced), else the
    continuity-corrected chi-square with one degree of freedom; the
    corrected statistic (|b-c|-1)^2/(b+c) is clamped to 0 when
    |b - c| <= 1. b = c = 0 gives p = 1.
    """
    if b < 0 or c < 0:
        raise ConfigError("discordant counts must be nonnegative")
    total = b + c
    if total == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0, method="exact")
    statistic = max(abs(b - c) - 1, 0) ** 2 / total
    if method == "auto":
        method = "exact" if total < 25 else "chi2"
    if method == "exact":
        p = min(1.0, 2.0 * float(bdtr(min(b, c), total, 0.5)))
        return McNemarResult(b=b, c=c, statistic=float(statistic), p_value=p, method="exact")
    if method == "chi2":
        p = chi_square_sf(statistic, 1)
        return McNemarResult(
            b=b, c=c, statistic=float(statistic), p_value=p, method="continuity-corrected"
        )
    raise ConfigError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ConfusionMatrix:
    label: str
    counts: np.ndarray  # 3x3, rows and columns in TRUTH_ORDER

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "order": list(TRUTH_ORDER),
            "counts": self.counts.astype(int).tolist(),
            "trace": self.trace,
        }


@dataclass(frozen=True)
class PairedComparison:
    first: str
    second: str
    scope: str  # "A", "D", "C" (diagonal cells) or "trace"
    better: Optional[str]  # label with the larger count, None on a tie
    test: McNemarResult

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    @property
    def p_value(self) -> float:
        return self.test.p_value


@dataclass(frozen=True)
class ConfusionTable:
    n: int
    beta_inverse: float
    scheme: str
    reps: int
    matrices: Dict[str, ConfusionMatrix]
    comparisons: List[PairedComparison]
    exclusions: int

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "beta_inverse": self.beta_inverse,
            "scheme": self.scheme,
            "reps": self.reps,
            "exclusions": self.exclusions,
            "matrices": {lab: m.to_jsonable() for lab, m in self.matrices.items()},
            "comparisons": [
                {
                    "first": c.first,
                    "second": c.second,
                    "scope": c.scope,
                    "better": c.better,
                    "b": c.test.b,
                    "c": c.test.c,
                    "statistic": c.test.statistic,
                    "p_value": c.test.p_value,
                    "method": c.test.method,
                    "significant": c.significant,
                }
                for c in self.comparisons
            ],
        }


def confusion_table(cells: Sequence[CellDecisions]) -> ConfusionTable:
    """Assemble the 3x3 confusion matrices of one complete truth sweep.

    `cells` must hold exactly one CellDecisions per truth at a common
    (n, scheme, beta). Pairwise criterion differences in per-truth
    diagonal counts and in the trace are tested with McNemar's procedure
    at the 5% level on the paired replicate decisions.
    """
    by_truth = {cell.truth: cell for cell in cells}
    if sorted(by_truth) != sorted(TRUTH_ORDER):
        raise ConfigError(f"need one cell per truth {TRUTH_ORDER}, got {sorted(by_truth)}")
    ref = cells[0]
    for cell in cells:
        if (cell.n, cell.beta_inverse, cell.scheme, cell.reps) != (
            ref.n,
            ref.beta_inverse,
            ref.scheme,
            ref.reps,
        ):
            raise ConfigError("cells of one table must share n, beta, scheme and reps")
    labels = list(ref.selected)
    matrices = {}
    for lab in labels:
        counts = np.zeros((3, 3), dtype=int)
        for i, truth in enumerate(TRUTH_ORDER):
            for choice in by_truth[truth].selected[lab]:
                if choice is not None:
                    counts[i, TRUTH_ORDER.index(choice)] += 1
        matrices[lab] = ConfusionMatrix(label=lab, counts=counts)

    comparisons = []
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            for scope in (*TRUTH_ORDER, "trace"):
                truths = TRUTH_ORDER if scope == "trace" else (scope,)
                b = c = 0
                for truth in truths:
                    cell = by_truth[truth]
                    for s1, s2 in zip(cell.selected[first], cell.selected[second]):
                        if s1 is None or s2 is None:
                            continue
                        ok1, ok2 = s1 == truth, s2 == truth
                        if ok1 and not ok2:
                            b += 1
                        elif ok2 and not ok1:
                            c += 1
                better = first if b > c else (second if c > b else None)
                comparisons.append(
                    PairedComparison(
                        first=first, second=second, scope=scope, better=better, test=mcnemar(b, c)
                    )
                )
    exclusions = sum(cell.failures for cell in cells)
    return ConfusionTable(
        n=ref.n,
        beta_inverse=ref.beta_inverse,
        scheme=ref.scheme,
        reps=ref.reps,
        matrices=matrices,
        comparisons=comparisons,
        exclusions=exclusions,
    )


def render_confusion_markdown(table: ConfusionTable) -> str:
    """Markdown rendering of one confusion table block."""
    lines = [
        f"### n = {table.n}, beta^-1 = {table.beta_inverse:g}, scheme = {table.scheme}, "
        f"reps = {table.reps}"
        + (f" (excluded {table.exclusions})" if table.exclusions else ""),
        "",
    ]
    for lab, mat in table.matrices.items():
        lines.append(f"**{lab}** (rows: truth, columns: selected)")
        lines.append("")
        lines.append("| truth \\ selected | " + " | ".join(TRUTH_ORDER) + " |")
        lines.append("|---|" + "---|" * len(TRUTH_ORDER))
        for i, truth in enumerate(TRUTH_ORDER):
            cells = " | ".join(str(int(v)) for v in mat.counts[i])
            lines.append(f"| {truth} | {cells} |")
        lines.append(f"| trace |  |  | {mat.trace} |")
        lines.append("")
    sig = [c for c in table.comparisons if c.significant and c.better]
    if sig:
        lines.append("Significant differences (McNemar, 5% level):")
        for c in sig:
            lines.append(
                f"- {c.scope}: {c.better} > "
                f"{c.second if c.better == c.first else c.first} (p = {c.p_value:.4g})"
            )
        lines.append("")
    return "\n".join(lines)
