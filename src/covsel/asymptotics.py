"""Limit constants for evidence ratios of nested structures, with
empirical convergence studies.

When the nested structure is true, the log evidence ratio
log(E_full / E_nested) drifts to -infinity like -(k - l)/2 * log n, where
k and l are the structures' parameter counts. When the full structure is
true it grows linearly in n, with a slope given by a Hadamard or AM/GM
log-ratio of the limiting second moment of the data. Both regimes are
verified here by simulation: `rate_study` reports the pointwise scaled
statistic and a least-squares slope of the mean log ratio against the
appropriate regressor (the slope converges faster because the O_p(1)
intercept is absorbed).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, SupportError
from .precision import HalfPrecision, as_array
from .priors import (
    GammaVecHyper,
    Hyper,
    WishartHyper,
    log_prior_density,
    matched_family,
    prior_sample_size,
    sample_prior,
    sample_wishart_batch,
)
from .specialfn import amgm_half_log_ratio, cholesky_stack, hadamard_half_log_ratio
from .structures import fit_structure, log_partition_hessian_logdet, param_count

__all__ = [
    "PAIRS",
    "log_rate_constant",
    "linear_rate_constant",
    "second_moment_matrix",
    "second_moment_diag",
    "flexibility_bic_gap",
    "RateStudyConfig",
    "RateStudyRow",
    "RateStudyResult",
    "rate_study",
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


def linear_rate_constant(pair: str, v: np.ndarray) -> float:
    """The n-slope of the evidence ratio when the full structure is true.

    `v` is the limiting second moment E[X X^T] of an observation: a matrix
    for the A pairs, a positive vector of per-axis second moments for
    D-vs-C. The constant is scale-invariant in v, nonnegative, and zero
    exactly when v already satisfies the nested structure.
    """
    full, nested = _split_pair(pair)
    v = np.asarray(v, dtype=float)
    if full == "A":
        if v.ndim != 2:
            raise ConfigError("A pairs need the full second-moment matrix")
        return hadamard_half_log_ratio(v) if nested == "D" else amgm_half_log_ratio(v)
    # D-vs-C: AM/GM ratio of the per-axis second moments
    v = np.ravel(v)
    if np.any(v <= 0):
        raise ConfigError("per-axis second moments must be positive")
    d = v.size
    return float(d / 2 * (np.log(v.mean()) - np.log(v).mean()))


def second_moment_matrix(h: WishartHyper) -> np.ndarray:
    """Closed-form marginal second moment E[X X^T] under a structure-A prior.

    X | H ~ N(0, (2H)^{-1}) with H Wishart(shape alpha, rate B) gives
    E[X X^T] = E[(2H)^{-1}] = B / (2 alpha - (d+1)), finite iff the prior
    sample size 2 alpha - (d+1) is positive. (Only the shape of this
    matrix enters the rate constants; they are scale-invariant.)
    """
    m = prior_sample_size(h).m
    if m <= 0:
        raise ConfigError("second moment requires prior sample size 2a-(d+1) > 0")
    return h.rate / m


def second_moment_diag(h: GammaVecHyper) -> np.ndarray:
    """Per-axis marginal second moments under a structure-D prior:
    E[X_j^2] = E[1/(2 eta_j)] = beta_j / (2 alpha - 2)."""
    m = prior_sample_size(h).m
    if m <= 0:
        raise ConfigError("second moment requires prior sample size 2a-2 > 0")
    return h.rate / m


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
        _check_design(self.n_grid, self.reps, self.hyper.dim, log_scaled=self.truth == nested)
        if self.fixed_theta is not None:
            if self.fixed_theta.dim != self.hyper.dim:
                raise ConfigError("fixed_theta dimension does not match hyper")
            try:
                as_array(self.fixed_theta, self.truth)
            except SupportError as exc:
                raise ConfigError(f"fixed_theta is not of the truth's structure: {exc}") from exc


def _check_design(n_grid: Tuple[int, ...], reps: int, d: int, log_scaled: bool = False) -> None:
    """The replicate count and n grid of a study: n >= d, because the
    scatters are drawn as Wishart stacks (see `_draw`), and n >= 2 when the
    statistic is scaled by log n."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    if len(n_grid) == 0 or any(n < 1 for n in n_grid):
        raise ConfigError("n_grid must be nonempty positive integers")
    if list(n_grid) != sorted(n_grid):
        raise ConfigError("n_grid must be increasing")
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
    of the grid. The replicates of each n are scored as one stack.
    """
    full, nested = _split_pair(config.pair)
    family = matched_family(config.hyper)
    h_full = family.for_structure(full)
    h_nested = family.for_structure(nested)
    nested_true = config.truth == nested
    target = _study_target(config, nested)

    means = []
    rows = []
    for n in config.n_grid:
        s = _draw(config.hyper, n, config.reps, config.seed, config.fixed_theta)
        full_fit, nested_fit = (fit_structure(h, s, n) for h in (h_full, h_nested))
        vals = full_fit.defined("log_evidence") - nested_fit.defined("log_evidence")
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
    return RateStudyResult(
        pair=config.pair,
        truth=config.truth,
        regressor="log_n" if nested_true else "n",
        target=target,
        rows=rows,
        slope=slope,
    )


def _study_target(config: RateStudyConfig, nested: str) -> float:
    if config.truth == nested:
        return log_rate_constant(config.pair, config.hyper.dim)
    if config.fixed_theta is not None:
        sigma = np.linalg.inv(2 * config.fixed_theta.as_matrix())
        v = np.diag(sigma) if config.pair == "D-vs-C" else sigma
        return linear_rate_constant(config.pair, v)
    if isinstance(config.hyper, WishartHyper):
        v = second_moment_matrix(config.hyper)
        return linear_rate_constant(config.pair, v)
    if isinstance(config.hyper, GammaVecHyper):
        vdiag = second_moment_diag(config.hyper)
        if config.pair == "D-vs-C":
            return linear_rate_constant(config.pair, vdiag)
        return linear_rate_constant(config.pair, np.diag(vdiag))
    raise ConfigError("full-true study with an isotropic truth has a zero rate by construction")


def _draw(h: Hyper, n: int, reps: int, seed: int, theta: Optional[HalfPrecision]) -> np.ndarray:
    """(reps, d, d) scatters x^T x of n rows x from N(0, (2 theta)^{-1}),
    with theta drawn from the prior `h` per replicate unless it is fixed.

    The rows are never drawn. Given theta, their scatter is Wishart with
    n degrees of freedom and scale (2 theta)^{-1}, that is C^{-T} W C^{-1}
    for 2 theta = C C^T and a standard Wishart W (Bartlett, so n >= d);
    for D and C this scales W elementwise by 1/sqrt(2 eta_i * 2 eta_j).
    One stream per (seed, n) draws the theta stack first, then W.

    A study averages every replicate, so the lowest-index replicate that
    cannot be drawn fails the study with its error: a prior draw that is
    not a half-precision, or one whose scatter overflows.
    """
    d, structure = h.dim, h.structure
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    if theta is None:
        draws = sample_prior(h, reps, rng)
    else:
        value = as_array(theta, structure)
        draws = np.broadcast_to(value, (reps, *np.shape(value)))
    w = sample_wishart_batch(WishartHyper(n / 2, np.eye(d) / 2), reps, rng)
    # an overflowing scatter (inf, or NaN from inf - inf) becomes an error below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if structure == "A":
            chol, errors = cholesky_stack(2 * draws, "a drawn half-precision")
            inv = np.linalg.inv(chol)
            s = inv.swapaxes(-1, -2) @ w @ inv
            s = (s + s.swapaxes(-1, -2)) / 2
        else:
            eta = draws if structure == "D" else draws[:, None]
            bad = np.flatnonzero(~(np.isfinite(eta) & (eta > 0)).all(axis=-1))
            errors = {
                int(i): SupportError("a drawn half-precision must be positive and finite")
                for i in bad
            }
            r = 1 / np.sqrt(2 * eta)
            s = w * r[:, :, None] * r[:, None, :]
    for i in np.flatnonzero(~np.isfinite(s).all(axis=(-2, -1))):
        errors.setdefault(int(i), SupportError("the scatter of a drawn half-precision overflows"))
    if errors:
        raise errors[min(errors)]
    return s


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
    _check_design(n_grid, reps, h.dim)
    gap = flexibility_bic_gap(h, theta0)
    k = param_count(theta0.structure, theta0.dim)
    rows = []
    for n in n_grid:
        fit = fit_structure(h, _draw(h, n, reps, seed, theta0), n)
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
