"""Limit constants for evidence ratios of nested structures, with
empirical convergence studies.

When the nested structure is true, the log evidence ratio
log(E_full / E_nested) drifts to -infinity like -(k - l)/2 * log n, where
k and l are the structures' parameter counts. When the full structure is
true it grows linearly in n, with slope 1/2 log(|P_nested V| / |P_full V|)
in the limiting second moment V of the data (`linear_rate_constant`).
Both regimes are verified here by simulation: `rate_study` reports the
pointwise scaled statistic and a least-squares slope of the mean log
ratio against the appropriate regressor (the slope converges faster
because the O_p(1) intercept is absorbed).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, SupportError
from .precision import HalfPrecision, as_array
from .priors import (
    Hyper,
    WishartHyper,
    _bartlett_factor,
    _standard_prior,
    log_prior_density,
    matched_family,
    prior_sample_size,
    rate_matrix,
    sample_prior,
)
from .montecarlo import _scatter_factor, scatters_from
from .specialfn import chol_log_det
from .structures import _defined_evidence, fit_structure, log_partition_hessian_logdet, param_count

__all__ = [
    "PAIRS",
    "log_rate_constant",
    "linear_rate_constant",
    "second_moment_matrix",
    "flexibility_bic_gap",
    "RateStudyConfig",
    "RateStudyRow",
    "RateStudyResult",
    "rate_study",
    "GapStudyRow",
    "flexibility_gap_study",
]

PAIRS = ("A-vs-D", "A-vs-C", "D-vs-C")


def _split_pair(pair: str) -> Tuple[str, str]:
    if pair not in PAIRS:
        raise ConfigError(f"pair must be one of {PAIRS}, got {pair!r}")
    full, nested = pair.split("-vs-")
    return full, nested


def log_rate_constant(pair: str, d: int) -> float:
    """-(k - l)/2: the log n slope of the evidence ratio when the nested
    structure is true."""
    full, nested = _split_pair(pair)
    return -(param_count(full, d) - param_count(nested, d)) / 2


def linear_rate_constant(pair: str, v: np.ndarray):
    """The n-slope 1/2 (log|P_nested(v)| - log|P_full(v)|) of the evidence
    ratio when the full structure is true.

    `v` is the limiting second moment E[X X^T] of an observation (D-vs-C
    also takes its diagonal as a vector), and P_S(v) is v, its diagonal or
    (tr v / d) I: Hadamard's ratio for A-vs-D, AM/GM ratios for the C pairs.
    The constant is scale-invariant in v, nonnegative, and zero exactly
    when v already satisfies the nested structure. A stack (..., d, d)
    gives one constant per matrix.
    """
    full, nested = _split_pair(pair)
    v = np.asarray(v, dtype=float)
    if v.ndim == 1 and full == "D":
        v = np.diag(v)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ConfigError(f"{pair} needs square second-moment matrices, got shape {v.shape}")
    log_full = _log_det_part(full, v)
    rate = 0.5 * (_log_det_part(nested, v) - log_full)
    return float(rate) if np.ndim(rate) == 0 else rate


def _log_det_part(structure: str, v: np.ndarray):
    """log|P_S(v)|: log|v|, sum_j log v_jj, or d log(tr v / d)."""
    if structure == "A":
        return chol_log_det(v)
    diag = np.diagonal(v, axis1=-2, axis2=-1)
    if np.any(diag <= 0):
        raise ConfigError("per-axis second moments must be positive")
    if structure == "D":
        return np.log(diag).sum(axis=-1)
    return diag.shape[-1] * np.log(diag.mean(axis=-1))


def second_moment_matrix(h: Hyper) -> np.ndarray:
    """Closed-form marginal second moment E[X X^T] under h's prior.

    X | H ~ N(0, (2H)^{-1}) gives E[X X^T] = E[(2H)^{-1}] = rate_matrix(h) / m,
    finite iff the prior sample size m is positive (B / (2 alpha - (d+1))
    for A). Only its shape enters the rate constants; they are scale-invariant.
    """
    m = prior_sample_size(h).m
    if m <= 0:
        raise ConfigError(f"second moment requires a positive prior sample size, got m = {m}")
    return rate_matrix(h) / m


def flexibility_bic_gap(h: Hyper, theta0: HalfPrecision) -> float:
    """The limiting value of flexibility(MAP) - (k/2) log n.

    Equals -log prior(theta0) + (1/2) log |Hess A(theta0) / (2 pi)| where
    A is the per-observation log-partition. Requires a regular prior.
    """
    if prior_sample_size(h).non_regular:
        raise ConfigError("gap constant requires a regular prior (m > 0)")
    k = param_count(theta0.structure, theta0.dim)
    return float(
        -log_prior_density(h, theta0)
        + 0.5 * (log_partition_hessian_logdet(theta0) - k * np.log(2 * np.pi))
    )


@dataclass(frozen=True)
class RateStudyConfig:
    """One divergence-rate experiment.

    `truth` names the data-generating structure and must be one side of
    `pair`; its hyperparameters are `hyper` and the other side's are
    derived by matching. With `fixed_theta` the data are drawn from a
    fixed half-precision instead of from the prior (one less layer of
    Monte Carlo noise; the generating prior is then irrelevant).
    """

    pair: str
    truth: str
    hyper: Hyper
    n_grid: Tuple[int, ...]
    reps: int
    seed: int
    fixed_theta: Optional[HalfPrecision] = None

    def __post_init__(self):
        full, nested = _split_pair(self.pair)
        if self.truth not in (full, nested):
            raise ConfigError(f"truth {self.truth!r} is not part of pair {self.pair!r}")
        if self.truth != self.hyper.structure:
            raise ConfigError("hyper structure must match the truth structure")
        _check_design(self.n_grid, self.reps, self.seed, self.hyper.dim, self.truth == nested)
        if self.fixed_theta is not None:
            if self.fixed_theta.dim != self.hyper.dim:
                raise ConfigError("fixed_theta dimension does not match hyper")
            try:
                as_array(self.fixed_theta, self.truth)
            except SupportError as exc:
                raise ConfigError(f"fixed_theta is not of the truth's structure: {exc}") from exc


def _check_design(n_grid: Tuple[int, ...], reps: int, seed: int, d: int, log_scaled=False) -> None:
    """A study's reps, seed and n grid: integers, the grid strictly increasing
    (the slope needs a spread of n), with n >= d (the scatters are drawn as
    Wishart stacks, see `_draw`) and n >= 2 when scaled by log n."""
    if not all(isinstance(v, (int, np.integer)) for v in (reps, seed, *n_grid)):
        raise ConfigError("reps, seed and the n grid must be integers")
    if reps < 1 or seed < 0:
        raise ConfigError("reps must be >= 1 and the seed >= 0")
    if len(n_grid) == 0 or any(n < 1 for n in n_grid):
        raise ConfigError("n_grid must be nonempty positive integers")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly increasing")
    if log_scaled and n_grid[0] < 2:
        raise ConfigError("a nested-true study scales by log n and needs n >= 2")
    if n_grid[0] < d:
        raise ConfigError(
            f"a study draws Wishart scatters, which need n >= d = {d}; got n = {n_grid[0]}"
        )


@dataclass(frozen=True)
class RateStudyRow:
    n: int
    scaled_mean: float
    se: float


@dataclass(frozen=True)
class RateStudyResult:
    pair: str
    truth: str
    regressor: str  # "log_n" when nested is true, "n" when full is true
    target: float
    rows: List[RateStudyRow]
    slope: Optional[float]  # least squares on mean raw log ratio; None for a single n

    def to_jsonable(self) -> dict:
        return {
            "pair": self.pair,
            "truth": self.truth,
            "regressor": self.regressor,
            "target": self.target,
            "slope": self.slope,
            "rows": [
                {"n": r.n, "scaled_statistic": r.scaled_mean, "se": r.se, "target": self.target}
                for r in self.rows
            ],
        }


def rate_study(config: RateStudyConfig) -> RateStudyResult:
    """Estimate the divergence rate of log(E_full / E_nested) by simulation.

    Deterministic given the seed: each n draws its replicates from its own
    derived RNG stream (see `_draw`), so a row does not depend on the rest
    of the grid. The replicates of each n are scored as one stack, by the
    kernel's evidence step alone: the study computes no modes.

    The target is -(k - l)/2 when the nested structure is true. When the
    full one is, each drawn theta has its own rate, `linear_rate_constant`
    at V = (2 theta)^{-1}, and the slope of the mean log ratio estimates
    their mean, so the target is the mean over every theta the study drew
    (a fixed theta is every draw). V is the scatter theta makes of W = I, by
    the factor of its scatters; a fixed theta's factor and rate are formed once.
    """
    full, nested = _split_pair(config.pair)
    triple = matched_family(config.hyper)
    h_full, h_nested = (triple.for_structure(s) for s in (full, nested))
    nested_true = config.truth == nested
    theta = None if config.fixed_theta is None else _fixed(config.truth, config.fixed_theta)

    means = []
    rows = []
    draw_rates = []
    for n in config.n_grid:
        s, draws, factor = _draw(config.hyper, n, config.reps, config.seed, theta)
        if not nested_true:
            if theta is None or not draw_rates:
                # each theta's second moment (2 theta)^{-1} is the scatter it makes of W = I
                v, errors = scatters_from(config.truth, draws, np.eye(config.hyper.dim), factor)
                if errors:
                    raise errors[min(errors)]
                rate = linear_rate_constant(config.pair, v)
            draw_rates.append(rate)
        vals = _defined_evidence(h_full, s, n) - _defined_evidence(h_nested, s, n)
        scale = np.log(n) if nested_true else float(n)
        scaled = vals / scale
        rows.append(
            RateStudyRow(
                n=int(n),
                scaled_mean=float(scaled.mean()),
                se=float(scaled.std(ddof=1) / np.sqrt(config.reps)) if config.reps > 1 else 0.0,
            )
        )
        means.append(float(vals.mean()))

    slope = None
    if len(config.n_grid) > 1:
        grid = np.asarray(config.n_grid, dtype=float)
        xreg = np.log(grid) if nested_true else grid
        xc = xreg - xreg.mean()
        slope = float(xc @ (np.asarray(means) - np.mean(means)) / (xc @ xc))
    if nested_true:
        target = log_rate_constant(config.pair, config.hyper.dim)
    else:
        target = float(np.concatenate(draw_rates).mean())
    return RateStudyResult(
        pair=config.pair,
        truth=config.truth,
        regressor="log_n" if nested_true else "n",
        target=target,
        rows=rows,
        slope=slope,
    )


def _fixed(structure: str, theta: HalfPrecision):
    """A fixed theta in `_draw`'s form: a stack of one and its `_scatter_factor`."""
    draws = np.asarray(as_array(theta, structure))[None]
    return draws, _scatter_factor(structure, draws)


def _draw(h: Hyper, n: int, reps: int, seed: int, theta):
    """(reps, d, d) scatters x^T x of n rows x from N(0, (2 theta)^{-1}),
    with theta drawn from the prior `h` per replicate unless it is fixed (a
    half-precision or its `_fixed` form); the stack of those thetas in `h`'s
    array form, (reps, ...), or a stack of one fixed theta, which broadcasts
    over the replicates; and the stack's `_scatter_factor`.

    The rows are never drawn. Given theta, their scatter is Wishart with
    n degrees of freedom, so one stream per (seed, n) draws the theta
    stack, then a standard Wishart stack W = a a^T by its Bartlett factor a
    (the rate I / 2 is not checked again, only n >= d, and no scale F = I is
    applied), and `scatters_from` turns W into the scatters. A study averages
    every replicate, so the lowest-index replicate that cannot be drawn fails
    the study with its error.
    """
    d, structure = h.dim, h.structure
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    if theta is None:
        draws = sample_prior(h, reps, rng)
        theta = draws, _scatter_factor(structure, draws)
    draws, factor = theta if isinstance(theta, tuple) else _fixed(structure, theta)
    standard = WishartHyper(n / 2, np.eye(d) / 2, checked_log_det=-d * np.log(2))
    a = _bartlett_factor(_standard_prior(standard, reps, rng), d)
    s, errors = scatters_from(structure, draws, a @ a.swapaxes(-1, -2), factor)
    if errors:
        raise errors[min(errors)]
    return s, draws, factor


@dataclass(frozen=True)
class GapStudyRow:
    n: int
    mean_gap_error: float  # mean |flexibility - (k/2) log n - gap|
    mean_flex_minus_bic_penalty: float
    mean_abs_flex_minus_kic_penalty: float  # mean |F - kappa| = mean |KIC - log E|


def flexibility_gap_study(
    h: Hyper,
    theta0: HalfPrecision,
    n_grid: Tuple[int, ...],
    reps: int,
    seed: int,
) -> List[GapStudyRow]:
    """Empirical convergence of flexibility(MAP) - (k/2) log n to its limit.

    Also tracks |flexibility - kappa| where kappa is the penalty whose
    subtraction from the log-likelihood gives the Kashyap criterion; the
    two converge together.
    """
    if theta0.structure != h.structure or theta0.dim != h.dim:
        raise ConfigError(
            f"theta0 must be a structure-{h.structure} half-precision of dimension {h.dim}, "
            f"got structure {theta0.structure} of dimension {theta0.dim}"
        )
    _check_design(n_grid, reps, seed, h.dim)
    gap = flexibility_bic_gap(h, theta0)
    k = param_count(theta0.structure, theta0.dim)
    rows, fixed = [], _fixed(h.structure, theta0)
    for n in n_grid:
        fit = fit_structure(h, _draw(h, n, reps, seed, fixed)[0], n)
        flex_term = fit.defined("flexibility") - k / 2 * np.log(n)
        kic_err = np.abs(fit.kic - fit.log_evidence)
        rows.append(
            GapStudyRow(
                n=int(n),
                mean_gap_error=float(np.abs(flex_term - gap).mean()),
                mean_flex_minus_bic_penalty=float(flex_term.mean()),
                mean_abs_flex_minus_kic_penalty=float(kic_err.mean()),
            )
        )
    return rows
