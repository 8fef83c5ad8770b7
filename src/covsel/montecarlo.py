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

import math
from dataclasses import asdict, dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import Dict, List, Optional, Tuple

import numpy as np

from .data import Dataset
from .errors import ConfigError, CovselError, SupportError
from .precision import DiagPrecision, FullPrecision, HalfPrecision
from .priors import (
    Hyper,
    _check_one_rate,
    _hyper,
    _prior_transform,
    _standard_prior,
    matched_family,
    moment_hypers,
    sample_half_precision,
    shape_for_sample_size,
)
from .specialfn import cholesky_pd, cholesky_stack
from .structures import CRITERIA, SIMPLEST_FIRST, criterion_matrix, fit_stack, simplest_best

__all__ = [
    "SimConfig",
    "CellDecisions",
    "ConfusionMatrix",
    "ConfusionTable",
    "McNemarResult",
    "PairedComparison",
    "TRUTH_ORDER",
    "gaussian_rows",
    "oracle_hyper",
    "generate_instance",
    "scatters_from",
    "draw_scatters",
    "run_cell",
    "mcnemar",
    "confusion_table",
    "render_confusion_markdown",
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
    if truth not in TRUTH_ORDER:
        raise ConfigError(f"unknown truth {truth!r}")
    if not 0 < beta_inverse < math.inf or d < 1:
        raise ConfigError(f"need a finite beta_inverse > 0 and d >= 1, got {beta_inverse}, d={d}")
    beta = 1.0 / beta_inverse
    if not math.isfinite(max(2, d) * beta):
        raise ConfigError(f"beta_inverse {beta_inverse} is out of range: its rates overflow")
    rate = {"A": beta * np.eye(d), "D": np.full(d, beta), "C": d * beta}[truth]
    return _hyper(truth, shape_for_sample_size(truth, m, d), rate, d)


def generate_instance(h: Hyper, n: int, rng: np.random.Generator) -> Dataset:
    """Draw a half-precision from the prior, then n Gaussian rows from it."""
    theta = sample_half_precision(h, rng)
    return Dataset(gaussian_rows(theta, n, rng))


def scatters_from(
    structure: str, draws: np.ndarray, w: np.ndarray, factor=None
) -> Tuple[np.ndarray, Dict[int, CovselError]]:
    """(r, d, d) scatters x^T x of rows x from N(0, (2 theta)^{-1}), given
    a stack of half-precisions `draws` in `structure`'s array form and a
    standard-Wishart stack W, the law of z^T z for the rows' normals z.

    The scatter is C^{-T} W C^{-1} for 2 theta = C C^T; for D and C this
    scales W elementwise by 1/sqrt(2 eta_i * 2 eta_j). A replicate fails
    alone, with a NaN scatter and an entry in the returned errors, where
    its draw is not a finite half-precision or its scatter overflows. A
    stack of one draw broadcasts over the stack W. `factor` is the draws'
    `_scatter_factor`, where the caller has already formed it.
    """
    c, errors = factor or _scatter_factor(structure, draws)
    # an overflowing scatter (inf, or NaN from inf - inf) becomes an error below
    with np.errstate(over="ignore", invalid="ignore"):
        if structure == "A":
            s = c.swapaxes(-1, -2) @ w @ c
            s = (s + s.swapaxes(-1, -2)) / 2
        else:
            s = w * c
    errors = dict(errors)
    for i in np.flatnonzero(~np.isfinite(s).all(axis=(-2, -1))):
        errors.setdefault(int(i), SupportError("the scatter of a drawn half-precision overflows"))
    s[list(errors)] = np.nan
    return s, errors


def _scatter_factor(structure: str, draws: np.ndarray) -> Tuple[np.ndarray, Dict[int, CovselError]]:
    """The draws' factor in `scatters_from` and their errors: C^{-1} for A, and
    for D and C r_i r_j, formed before W's entry so the scatter stays exactly
    symmetric. A draw that is not finite (nor, for D and C, positive) fails
    before it is factored: LAPACK would factor an inf matrix."""
    x = draws[:, None] if structure == "C" else draws
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ok = np.isfinite(x) if structure == "A" else np.isfinite(x) & (x > 0)
        bad = ~ok.reshape(len(x), -1).all(axis=1)
        msg = "a drawn half-precision must be positive and finite"
        errors = {int(i): SupportError(msg) for i in np.flatnonzero(bad)}
        if structure != "A":
            r = 1 / np.sqrt(2 * x)
            return r[:, :, None] * r[:, None, :], errors
        m = np.where(bad[:, None, None], np.eye(x.shape[-1]), 2 * x)
        chol, chol_errors = cholesky_stack(m, "a drawn half-precision")
        return np.linalg.inv(chol), {**errors, **chol_errors}


# the standard normals a block of a cell's replicates holds at most (1 MB),
# so that a block's memory is bounded whatever n is
_BLOCK_NORMALS = 2**17


def _blocks(h: Hyper, n: int, rngs: Iterable) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The replicates of `rngs` in blocks of at most _BLOCK_NORMALS normals:
    per block, the stack of its replicates' standard variates of the prior
    `h` and the stack W of their z^T z, one batched product over the block's
    (n, d) normal arrays z. Each generator draws its variates (one
    `_standard_prior` draw), then z, before the next is asked for."""
    z = np.empty((max(1, _BLOCK_NORMALS // max(n * h.dim, 1)), n, h.dim))
    x = []
    for rng in rngs:
        x.append(_standard_prior(h, None, rng))
        rng.standard_normal(out=z[len(x) - 1])
        if len(x) == len(z):
            yield np.array(x), z.swapaxes(-1, -2) @ z
            x = []
    if x:
        z = z[: len(x)]
        yield np.array(x), z.swapaxes(-1, -2) @ z


def draw_scatters(h: Hyper, n: int, rngs: Iterable) -> Tuple[np.ndarray, Dict[int, CovselError]]:
    """`scatters_from` with one stream per replicate. Each generator in
    `rngs` draws only its replicate's standard variates of the prior `h`
    (those of `sample_prior(h, 1, rng)`, in its order), then n rows z of
    standard normals (those of `gaussian_rows`). `rngs` may be any
    iterable, and each generator's draws are done before the next is asked
    for, so one generator re-seeded per item serves (`_cell_rngs`). Per
    block of replicates (`_blocks`), `_prior_transform` then places the
    variates as half-precisions, and `scatters_from` turns them and the
    block's W = z^T z into scatters; no generator gives an empty stack."""
    _check_one_rate(h)
    s, errors = [np.empty((0, h.dim, h.dim))], {}
    for x, w in _blocks(h, n, rngs):
        start = sum(map(len, s))
        block, block_errors = scatters_from(h.structure, _prior_transform(h, x), w)
        errors.update((start + i, exc) for i, exc in block_errors.items())
        s.append(block)
    return np.concatenate(s), errors


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
        if not set(self.criteria) <= set(CRITERIA):
            raise ConfigError(f"criteria must be among {CRITERIA}, got {self.criteria!r}")
        sizes = (self.d, self.reps, self.seed, *self.n_values)
        if not all(isinstance(v, (int, np.integer)) for v in sizes):
            raise ConfigError("d, reps, seed and the n values must be integers")
        if self.reps < 1 or self.d < 1 or self.seed < 0:
            raise ConfigError("reps and d must be >= 1, and the seed >= 0")
        oracle_hyper("C", self.d, self.beta_inverse)  # checks beta_inverse and its rates
        if not math.isfinite(self.beta_inverse * 1e6):
            raise ConfigError(f"beta_inverse {self.beta_inverse} is out of range: its key overflows")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("need at least one n value, and n values must be >= 1")
        if len(set(self.n_values)) < len(self.n_values):
            # a repeated n has the same streams, so its table would be a copy
            raise ConfigError(f"n values must be distinct, got {list(map(int, self.n_values))}")
        if self.scheme in ("empirical-bayes", "vs-mclust") and min(self.n_values) < self.d:
            raise ConfigError(
                "empirical-Bayes schemes need n >= d for a positive definite scatter"
            )
        if not math.isfinite(self.prior_sample_size):
            raise ConfigError("the prior sample size m must be finite")
        if self.scheme in ("empirical-bayes", "vs-mclust") and self.prior_sample_size <= 0:
            raise ConfigError("empirical-Bayes schemes need a prior sample size m > 0")

    @property
    def stream_key(self) -> int:
        """beta_inverse as its replicates' streams key it: round(beta_inverse 1e6)."""
        return round(self.beta_inverse * 1e6)

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


# numpy's SeedSequence hash constants (NEP 19) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _pcg64_seeds(rows: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for each row of a (r, k)
    uint32 array, the seed numpy's PCG64 takes: SeedSequence's hash of a pool
    of 4 words, run on the rows' columns at once. The hash constants stay
    masked Python ints, so every product wraps as a uint32 array."""
    mult = _INIT_A

    def hashmix(v):
        nonlocal mult
        v = v ^ mult
        mult = (mult * _MULT_A) & _MASK32
        v = v * mult
        return v ^ (v >> 16)

    def mix(x, y):
        v = x * _MIX_MULT_L - y * _MIX_MULT_R
        return v ^ (v >> 16)

    cols = list(rows.T)
    zero = np.zeros(len(rows), dtype=np.uint32)  # a pool word past the entropy hashes 0
    pool = [hashmix(cols[i] if i < len(cols) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for col in cols[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(col))
    mult, out = _INIT_B, []
    for i in range(8):  # 8 words from the cycled pool, then little-endian pairs
        v = pool[i % 4] ^ mult
        mult = (mult * _MULT_B) & _MASK32
        v = v * mult
        out.append((v ^ (v >> 16)).astype(np.uint64))
    return np.stack([lo | (hi << 32) for lo, hi in zip(out[::2], out[1::2])], axis=1)


def _streams(rows: np.ndarray) -> Iterator[np.random.Generator]:
    """The streams default_rng(SeedSequence(row)) of the rows of a (r, k)
    uint32 array, in order, through one shared generator: it is set to each
    row's stream from its start and yielded. Use each before asking for the
    next. PCG64 takes its seed (s, t) as inc = 2 t + 1 and state =
    (inc + s) M + inc, modulo 2^128."""
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    # has_uint32 = 0: no half of an earlier replicate's 64-bit draw is left buffered
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, t_hi, t_lo in _pcg64_seeds(rows).tolist():
        inc = ((t_hi << 64 | t_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        pcg["inc"] = inc
        gen.bit_generator.state = state
        yield gen


def _cell_rngs(config: SimConfig, truth: str, n: int) -> Iterator[np.random.Generator]:
    """The replicates' streams of a (truth, n) cell, each that of
    SeedSequence((seed, truth index, n, stream_key, rep)).
    The cell's four ints are coded once, as SeedSequence codes an int:
    32-bit words, low word first, 0 as one zero word; each row adds its rep.
    One generator serves every replicate in turn (see `_streams`)."""
    key = map(int, (config.seed, TRUTH_ORDER.index(truth), n, config.stream_key))
    words = [(v >> s) & _MASK32 for v in key for s in range(0, v.bit_length() or 1, 32)]
    rows = np.empty((config.reps, len(words) + 1), dtype=np.uint32)
    rows[:, :-1], rows[:, -1] = words, np.arange(config.reps)
    return _streams(rows)


def run_cell(config: SimConfig, truth: str, n: int) -> CellDecisions:
    """Run all replicates of one (truth, n) cell. Deterministic given the
    seed; generation consumes the same RNG draws in every scheme, so cells
    run under different schemes with equal seeds are paired.

    Every replicate is drawn first. Each hyperparameter scheme then builds
    its hyperparameters for the whole stack of scatters at once and fits
    the stack once, and every criterion label picks by `simplest_best` on
    the `criterion_matrix` of those shared fits. A replicate that cannot be drawn, whose hyperparameters cannot
    be built, or for which some label has no structure left, counts as a
    failure; only CovselError counts, anything else propagates.
    """
    gen = oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size)
    s, failed = draw_scatters(gen, n, _cell_rngs(config, truth, n))
    s[list(failed)] = np.eye(config.d)  # finite stand-ins, which the final mask drops

    plan = config.plan
    schemes = {scheme for scheme, _ in plan.values()}
    hypers = {"oracle": matched_family(gen)} if "oracle" in schemes else {}
    for scheme in schemes - {"oracle"}:
        hypers[scheme], errors = moment_hypers(scheme, s, n, config.prior_sample_size)
        failed.update(errors)
    fits = {scheme: fit_stack(s, n, hypers[scheme]) for scheme in schemes}
    picks = np.full((len(plan), config.reps), -1)  # a row per label of SIMPLEST_FIRST indices
    for row, (scheme, crit) in zip(picks, plan.values()):
        row[:] = simplest_best(criterion_matrix(fits[scheme], crit, config.reps))
    excluded = (picks < 0).any(axis=0)
    excluded[list(failed)] = True
    picks[:, excluded] = -1
    pick_labels = np.array([*SIMPLEST_FIRST, None], dtype=object)  # the pick -1 is None
    return CellDecisions(
        truth=truth,
        n=n,
        beta_inverse=config.beta_inverse,
        scheme=config.scheme,
        reps=config.reps,
        selected=dict(zip(plan, pick_labels[picks].tolist())),
        failures=int(excluded.sum()),
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
        # the binomial(t, 1/2) tail in Python integers (numpy's would wrap),
        # by C(t, i) = C(t, i - 1) (t - i + 1) / i
        t = int(total)
        term = tail = 1
        for i in range(1, int(min(b, c)) + 1):
            term = term * (t - i + 1) // i
            tail += term
        p = min(1.0, 2 * tail / 2**t)
        return McNemarResult(b=b, c=c, statistic=float(statistic), p_value=p, method="exact")
    if method == "chi2":
        # the upper tail of a chi-square with one degree of freedom
        p = math.erfc(math.sqrt(statistic / 2))
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
                    **asdict(c.test),
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
    if len({(cell.n, cell.beta_inverse, cell.scheme, cell.reps) for cell in cells}) > 1:
        raise ConfigError("cells of one table must share n, beta, scheme and reps")
    ref = cells[0]
    labels = list(ref.selected)
    truths = np.arange(3)[:, None]
    picks, matrices = {}, {}
    for lab in labels:
        # the label's picks as TRUTH_ORDER indices, one row per truth; -1 for None
        sel = np.array([by_truth[truth].selected[lab] for truth in TRUTH_ORDER], dtype=object)
        picks[lab] = p = np.select([sel == truth for truth in TRUTH_ORDER], range(3), -1)
        counts = np.bincount((3 * truths + p)[p >= 0], minlength=9).reshape(3, 3)
        matrices[lab] = ConfusionMatrix(label=lab, counts=counts)

    comparisons = []
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            both = (picks[first] >= 0) & (picks[second] >= 0)
            ok1, ok2 = picks[first] == truths, picks[second] == truths
            # McNemar's b and c per truth, then over the sweep (the trace)
            bs = (both & ok1 & ~ok2).sum(axis=1).tolist()
            cs = (both & ok2 & ~ok1).sum(axis=1).tolist()
            for scope, b, c in zip((*TRUTH_ORDER, "trace"), bs + [sum(bs)], cs + [sum(cs)]):
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
