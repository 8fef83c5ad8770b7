"""Simulation studies comparing selection criteria across structures.

The protocol per replicate: draw one half-precision from the true
structure's prior, generate an n-row Gaussian sample from it, score all
three structures under each criterion, and record which structure each
criterion selected. A sweep runs a row (the truths' cells at one n) at a
time, each round of their blocks of scatters scored as one stack as it
is drawn. Hyperparameters for scoring come from one of three schemes:
the generating ones plus their matched projections ("oracle"),
method-of-moments estimates from the replicate's own data
("empirical-bayes"), or the mclust default regularization
("mclust-default"). Criterion differences are tested with McNemar's
procedure on the paired decisions.
"""

import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice, tee
from operator import methodcaller
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
    "run_row",
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


# the standard normals a chunk of a cell's replicates holds at most (1 MB),
# so that its memory is bounded whatever n is, and the replicates a block
# of scatters holds at least, so that a large n still scores in batches
_BLOCK_NORMALS = 2**17
_BLOCK_REPS = 1024


def draw_scatters(
    h: Hyper, n: int, rngs: Iterable, lockstep: int = 1
) -> Iterator[Tuple[np.ndarray, Dict[int, CovselError]]]:
    """`scatters_from` with one stream per replicate, yielded a block of at
    least _BLOCK_REPS / lockstep replicates (the last block, what is left) at
    a time: the block's scatters and the errors of its failed replicates,
    indexed within it. Each generator in `rngs`, any iterable, draws only its
    replicate's standard variates of `h` (those of `sample_prior(h, 1, rng)`,
    in its order), then n rows z of standard normals (those of
    `gaussian_rows`), before the next is asked for, so one generator re-seeded
    per item serves (`_row_rngs`). The normals are drawn a chunk of at most
    _BLOCK_NORMALS / lockstep at a time, and W = z^T z is one batched product
    per chunk; per block, `_prior_transform` places the variates. `run_row`
    draws `lockstep` generators side by side, which share the budgets."""
    _check_one_rate(h)
    rngs, z = iter(rngs), np.empty((max(1, _BLOCK_NORMALS // lockstep // max(n * h.dim, 1)), n, h.dim))
    while True:
        x, w = [], []
        while len(x) < max(1, _BLOCK_REPS // lockstep):
            drawn = len(x)
            for i, rng in enumerate(islice(rngs, len(z))):
                x.append(_standard_prior(h, None, rng))
                rng.standard_normal(out=z[i])
            if len(x) == drawn:  # the streams have ended
                break
            w.append(z[: len(x) - drawn].swapaxes(-1, -2) @ z[: len(x) - drawn])
        if not x:
            return
        yield scatters_from(h.structure, _prior_transform(h, np.array(x)), np.concatenate(w))


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


@dataclass(frozen=True, eq=False)
class CellDecisions:
    """Per-replicate selections of every criterion label in one cell: `picks`
    holds a row per label of each replicate's selected structure as an int8
    index into TRUTH_ORDER, and -1 for a failed replicate."""

    truth: str
    n: int
    beta_inverse: float
    scheme: str
    reps: int
    labels: Tuple[str, ...]
    picks: np.ndarray
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


def _seeded(seeds: Iterable[np.ndarray]) -> Iterator[np.random.Generator]:
    """The streams default_rng(SeedSequence(row)) of rows whose `_pcg64_seeds`
    come in chunks, in order, through one shared generator: it is set to each
    row's stream from its start and yielded. Use each before asking for the
    next. PCG64 takes its seed (s, t) as inc = 2 t + 1 and state =
    (inc + s) M + inc, modulo 2^128, one chunk's Python ints at a time."""
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    # has_uint32 = 0: no half of an earlier replicate's 64-bit draw is left buffered
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for chunk in seeds:
        for s_hi, s_lo, t_hi, t_lo in chunk.tolist():
            inc = ((t_hi << 64 | t_lo) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            pcg["inc"] = inc
            gen.bit_generator.state = state
            yield gen


def _row_rngs(config: SimConfig, n: int, truths: Sequence[str]) -> List[Iterator[np.random.Generator]]:
    """The replicates' streams of each (truth, n) cell of a row, each that of
    SeedSequence((seed, truth index, n, stream_key, rep)). A cell's four ints
    are coded once, as SeedSequence codes an int: 32-bit words, low word first,
    0 as one zero word; each row adds its rep. The rows are built and hashed
    4096 at a time, in one `_pcg64_seeds` pass for all truths' replicates, and
    each truth pops its part, so no chunk's seeds outlive their last taker."""
    keys = [map(int, (config.seed, TRUTH_ORDER.index(t), n, config.stream_key)) for t in truths]
    words = [[(v >> s) & _MASK32 for v in k for s in range(0, v.bit_length() or 1, 32)] for k in keys]

    def seeds():
        for start in range(0, config.reps, step := 4096 // len(words)):
            reps = np.arange(start, min(start + step, config.reps))
            rows = np.empty((len(words), len(reps), len(words[0]) + 1), dtype=np.uint32)
            rows[..., :-1], rows[..., -1] = np.expand_dims(words, 1), reps
            yield _pcg64_seeds(rows.reshape(-1, rows.shape[-1])).reshape(len(words), len(reps), 4)

    parts = tee((dict(enumerate(chunk)) for chunk in seeds()), len(words))
    return [_seeded(map(methodcaller("pop", j), part)) for j, part in enumerate(parts)]


def _cell_rngs(config: SimConfig, truth: str, n: int) -> Iterator[np.random.Generator]:
    """The replicates' streams of one (truth, n) cell: a row of one truth."""
    return _row_rngs(config, n, (truth,))[0]


def run_cell(config: SimConfig, truth: str, n: int) -> CellDecisions:
    """Run all replicates of one (truth, n) cell: a row of one truth."""
    return run_row(config, n, (truth,))[0]


def run_row(config: SimConfig, n: int, truths: Sequence[str] = TRUTH_ORDER) -> List[CellDecisions]:
    """Run all replicates of the (truth, n) cells of a row, one CellDecisions
    per truth. Deterministic given the seed; generation consumes the same RNG
    draws in every scheme, so cells run under different schemes with equal
    seeds are paired.

    Each round of the truths' `draw_scatters` blocks is joined into one stack
    and scored as it is drawn: each hyperparameter scheme builds its
    hyperparameters for it at once and fits it once (the oracle, once per
    matched family, compared bit for bit; a fit does not depend on its
    stack-mates), and every criterion label picks by `simplest_best` on the
    `criterion_matrix` of those fits. A replicate that cannot be drawn, whose
    hyperparameters cannot be built, or for which some label has no structure
    left, fails; only CovselError counts, anything else propagates."""
    plan = config.plan
    schemes = {scheme for scheme, _ in plan.values()}
    gens = [oracle_hyper(t, config.d, config.beta_inverse, config.prior_sample_size) for t in truths]
    families = {}  # the oracle's matched families by their bits, and which truths have each
    for j, family in enumerate(map(matched_family, gens) if "oracle" in schemes else ()):
        key = tuple((h.alpha, np.asarray(h.rate).tobytes()) for h in family)
        families.setdefault(key, (family, np.zeros(len(truths), dtype=bool)))[1][j] = True
    to_truth = np.array([*map(TRUTH_ORDER.index, SIMPLEST_FIRST), -1], dtype=np.int8)  # -1 stays -1
    draws = [draw_scatters(g, n, r, len(truths)) for g, r in zip(gens, _row_rngs(config, n, truths))]
    blocks = []
    for drawn in zip(*draws, strict=True):
        s = np.concatenate([s for s, _ in drawn])
        b = len(s) // len(truths)  # each truth's block, of one size (see `draw_scatters`)
        failed = {j * b + i: exc for j, (_, errors) in enumerate(drawn) for i, exc in errors.items()}
        s[list(failed)] = np.eye(config.d)  # finite stand-ins, which the final mask drops
        picks = np.empty((len(plan), len(s)), dtype=np.int8)
        for scheme in schemes:
            if scheme == "oracle":  # a stack of each family's truths' rows
                stacks = [(slice(None) if m.all() else np.repeat(m, b), h) for h, m in families.values()]
            else:
                hypers, errors = moment_hypers(scheme, s, n, config.prior_sample_size)
                failed.update(errors)
                stacks = [(slice(None), hypers)]
            for rows, hypers in stacks:
                fits = fit_stack(stack := s[rows], n, hypers)
                for row, (sch, c) in zip(picks, plan.values()):
                    if sch == scheme:
                        row[rows] = to_truth[simplest_best(criterion_matrix(fits, c, len(stack)))]
        picks[:, list(failed)] = -1
        blocks.append(picks.reshape(len(plan), len(truths), b))
    picks = np.concatenate(blocks, axis=2)
    excluded = (picks < 0).any(axis=0)
    picks[:, excluded] = -1
    shared = dict(n=n, beta_inverse=config.beta_inverse, scheme=config.scheme, reps=config.reps)
    cells = zip(truths, picks.swapaxes(0, 1), excluded.sum(axis=1).tolist())
    return [CellDecisions(truth=t, labels=tuple(plan), picks=p, failures=f, **shared) for t, p, f in cells]


@dataclass(frozen=True)
class McNemarResult:
    """McNemar's test on discordant counts b and c: its statistic, p-value and method."""

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
    """One label's counts of selected structure (columns) per true structure (rows)."""

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
    """McNemar's test of two labels' correct selections over one scope of a table."""

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
    """Every label's confusion matrix at one n, with their paired comparisons."""

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
                    **vars(c.test),
                    "significant": c.significant,
                }
                for c in self.comparisons
            ],
        }


def confusion_table(cells: Sequence[CellDecisions]) -> ConfusionTable:
    """Assemble the 3x3 confusion matrices of one complete truth sweep.

    `cells` must hold exactly one CellDecisions per truth at a common
    (n, scheme, beta, reps) and labels. Pairwise criterion
    differences in per-truth diagonal counts and in the trace are tested
    with McNemar's procedure at the 5% level on the paired picks.
    """
    by_truth = {cell.truth: cell for cell in cells}
    if sorted(by_truth) != sorted(TRUTH_ORDER):
        raise ConfigError(f"need one cell per truth {TRUTH_ORDER}, got {sorted(by_truth)}")
    if len({(c.n, c.beta_inverse, c.scheme, c.reps, c.labels) for c in cells}) > 1:
        raise ConfigError("cells of one table must share n, beta, scheme and reps, and their labels")
    ref = cells[0]
    labels = ref.labels
    truths = np.arange(3)[:, None]
    # each label's picks, one row per truth
    picks = dict(zip(labels, np.stack([by_truth[truth].picks for truth in TRUTH_ORDER], axis=1)))
    matrices = {}
    for lab, p in picks.items():
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
