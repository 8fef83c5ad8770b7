"""Conjugate gamma/Wishart priors on the half-precision.

One prior family per covariance structure:

* structure A: Wishart with shape alpha and positive definite rate B,
  density |B|^a / Gamma_d(a) * |x|^(a-(d+1)/2) * exp(-tr(Bx)).
  This is a *rate* (not scale) parameterization; it equals the standard
  Wishart with df = 2*alpha and scale (2B)^{-1}.
* structure D: product of d independent gamma(alpha, beta_j) priors.
* structure C: a single gamma(alpha, beta) prior on the common precision.

All three are exponential-family conjugate priors; the shared "prior
sample size" m below makes their information content comparable across
structures and drives the matching maps between them.

A hyperparameterization may also carry a stack of rates, one per
replicate along a leading axis (see `stack_hypers`); the batched scoring
kernel in `structures` broadcasts such rates against its scatters.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammaln

from .data import SuffStats
from .errors import (
    ConfigError,
    CovselError,
    DegenerateScatterError,
    DimensionMismatchError,
    EmptyDatasetError,
    SupportError,
)
from .precision import HalfPrecision, as_array, from_array
from .specialfn import chol_log_det, cholesky_pd, log_mv_gamma, symmetrize

__all__ = [
    "WishartHyper",
    "GammaVecHyper",
    "GammaHyper",
    "Hyper",
    "HyperTriple",
    "PriorSampleSize",
    "prior_sample_size",
    "shape_for_sample_size",
    "log_normalizer",
    "log_normalizer_at",
    "conjugate_update",
    "match_down",
    "match_up",
    "matched_family",
    "kl_objective",
    "empirical_bayes",
    "mclust_default",
    "stack_hypers",
    "sample_prior",
    "sample_half_precision",
    "log_prior_density",
    "hyper_to_jsonable",
    "hyper_from_jsonable",
]


@dataclass(frozen=True)
class WishartHyper:
    """Shape alpha and d x d positive definite rate matrix (structure A).

    The rate may be a stack (r, d, d) of per-replicate rates.
    """

    alpha: float
    rate: np.ndarray
    # log|B|, from the Cholesky factor that checks B is positive definite
    log_det_rate: Union[float, np.ndarray] = field(init=False, repr=False, compare=False)

    structure = "A"

    def __post_init__(self):
        rate = symmetrize(self.rate)
        object.__setattr__(self, "log_det_rate", chol_log_det(rate))
        d = rate.shape[-1]
        if self.alpha <= (d - 1) / 2:
            raise SupportError(
                f"Wishart shape must exceed (d-1)/2 = {(d - 1) / 2}, got {self.alpha}"
            )
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.rate.shape[-1]


@dataclass(frozen=True)
class GammaVecHyper:
    """Common shape alpha with per-axis rates beta_j (structure D).

    The rate may be a stack (r, d) of per-replicate rate vectors.
    """

    alpha: float
    rate: np.ndarray

    structure = "D"

    def __post_init__(self):
        rate = np.atleast_1d(np.asarray(self.rate, dtype=float))
        if rate.ndim > 2 or rate.size == 0:
            raise ValueError("rate must be a nonempty vector")
        if self.alpha <= 0 or np.any(rate <= 0) or not np.all(np.isfinite(rate)):
            raise SupportError("gamma shapes and rates must be positive and finite")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.rate.shape[-1]


@dataclass(frozen=True)
class GammaHyper:
    """Shape alpha and rate beta for the common precision (structure C).

    Carries its dimension explicitly: the gamma prior itself is
    one-dimensional but the Gaussian model it regularizes is not. The
    rate may be a vector (r,) of per-replicate rates.
    """

    alpha: float
    rate: float
    dim: int = 1

    structure = "C"

    def __post_init__(self):
        if isinstance(self.rate, np.ndarray) and self.rate.ndim:
            rate = np.asarray(self.rate, dtype=float)
            bad_rate = np.any(rate <= 0) or not np.all(np.isfinite(rate))
        else:
            rate = float(self.rate)
            bad_rate = rate <= 0 or not np.isfinite(rate)
        if self.alpha <= 0 or bad_rate:
            raise SupportError("gamma shape and rate must be positive and finite")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "rate", rate)


Hyper = Union[WishartHyper, GammaVecHyper, GammaHyper]


class HyperTriple(NamedTuple):
    """One hyperparameterization per structure, in the order (A, D, C)."""

    a: WishartHyper
    d: GammaVecHyper
    c: GammaHyper

    def for_structure(self, structure: str) -> Hyper:
        return {"A": self.a, "D": self.d, "C": self.c}[structure]


class PriorSampleSize(NamedTuple):
    m: float
    non_regular: bool


def prior_sample_size(h: Hyper, d: Optional[int] = None) -> PriorSampleSize:
    """Prior sample size m of a hyperparameterization.

    A: m = 2*alpha - (d+1);  D: m = 2*alpha - 2;  C: m = (2*alpha - 2)/d.
    Flagged non-regular when m <= 0 (posterior mode may not exist for
    small n).
    """
    if d is not None and d != h.dim:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != requested d={d}")
    if isinstance(h, WishartHyper):
        m = 2 * h.alpha - (h.dim + 1)
    elif isinstance(h, GammaVecHyper):
        m = 2 * h.alpha - 2
    else:
        m = (2 * h.alpha - 2) / h.dim
    return PriorSampleSize(m=float(m), non_regular=m <= 0)


def shape_for_sample_size(structure: str, m: float, d: int) -> float:
    """Inverse of prior_sample_size: the shape alpha giving sample size m."""
    if structure == "A":
        return (m + d + 1) / 2
    if structure == "D":
        return (m + 2) / 2
    if structure == "C":
        return (m * d + 2) / 2
    raise ValueError(f"unknown structure {structure!r}")


def log_normalizer(h: Hyper):
    """log of the prior's normalizing constant H(tau, m).

    A: alpha*log|B| - log Gamma_d(alpha)
    D: alpha*sum_j log beta_j - d*log Gamma(alpha)
    C: alpha*log beta - log Gamma(alpha)

    Evidences are ratios of these constants, so everything downstream
    works purely off this function and the conjugate update. Stacked
    rates give one value per replicate.
    """
    if isinstance(h, WishartHyper):
        log_rate = h.log_det_rate
    elif isinstance(h, GammaVecHyper):
        log_rate = np.log(h.rate).sum(axis=-1)
    else:
        log_rate = np.log(h.rate)
    return log_normalizer_at(h.structure, h.alpha, log_rate, h.dim)


def log_normalizer_at(structure: str, alpha: float, log_rate, d: int):
    """`log_normalizer` from the shape and the log-determinant of the rate
    (log|B|, sum_j log beta_j or log beta); `log_rate` may be an array."""
    if structure == "A":
        value = alpha * log_rate - log_mv_gamma(d, alpha)
    elif structure == "D":
        value = alpha * log_rate - d * gammaln(alpha)
    else:
        value = alpha * log_rate - gammaln(alpha)
    return value if isinstance(value, np.ndarray) else float(value)


def conjugate_update(h: Hyper, stats: SuffStats) -> Hyper:
    """Posterior hyperparameters after observing `stats`.

    A: (alpha + n/2, B + s);  D: (alpha + n/2, beta_j + s_jj);
    C: (alpha + n*d/2, beta + tr s).
    """
    if h.dim != stats.d:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != data dimension {stats.d}")
    if isinstance(h, WishartHyper):
        return WishartHyper(h.alpha + stats.n / 2, h.rate + stats.s)
    if isinstance(h, GammaVecHyper):
        return GammaVecHyper(h.alpha + stats.n / 2, h.rate + stats.s_diag)
    return GammaHyper(h.alpha + stats.n * stats.d / 2, h.rate + stats.s_total, h.dim)


# ---------------------------------------------------------------------------
# Hyperparameter matching between nested structures.
#
# Nesting order is C < D < A. Projecting down applies the nesting map to the
# prior's sufficient-statistic estimate (diag / trace aggregation); embedding
# up applies its pseudo-inverse. Both directions preserve the prior sample
# size m, which pins the target shape via shape_for_sample_size.
# ---------------------------------------------------------------------------

_ORDER = {"C": 0, "D": 1, "A": 2}


def match_down(h: Hyper, target: str) -> Hyper:
    """Project a hyperparameterization onto a strictly simpler structure."""
    if target not in _ORDER:
        raise ValueError(f"unknown structure {target!r}")
    if _ORDER[target] >= _ORDER[h.structure]:
        raise ConfigError(f"{target} is not strictly simpler than {h.structure}")
    d = h.dim
    m = prior_sample_size(h).m
    alpha = shape_for_sample_size(target, m, d)
    if isinstance(h, WishartHyper):
        if target == "D":
            return GammaVecHyper(alpha, np.diag(h.rate).copy())
        return GammaHyper(alpha, float(np.trace(h.rate)), d)
    # D -> C
    return GammaHyper(alpha, float(h.rate.sum()), d)


def match_up(h: Hyper, target: str = "A") -> Hyper:
    """Embed a hyperparameterization into a strictly richer structure."""
    if target not in _ORDER:
        raise ValueError(f"unknown structure {target!r}")
    if _ORDER[target] <= _ORDER[h.structure]:
        raise ConfigError(f"{target} is not strictly richer than {h.structure}")
    d = h.dim
    m = prior_sample_size(h).m
    alpha = shape_for_sample_size(target, m, d)
    if isinstance(h, GammaVecHyper):
        return WishartHyper(alpha, np.diag(h.rate))
    if target == "A":
        return WishartHyper(alpha, (h.rate / d) * np.eye(d))
    # C -> D
    return GammaVecHyper(alpha, np.full(d, h.rate / d))


def matched_family(h: Hyper) -> HyperTriple:
    """The full (A, D, C) family matched to h, h included."""
    if isinstance(h, WishartHyper):
        return HyperTriple(h, match_down(h, "D"), match_down(h, "C"))
    if isinstance(h, GammaVecHyper):
        return HyperTriple(match_up(h, "A"), h, match_down(h, "C"))
    return HyperTriple(match_up(h, "A"), match_up(h, "D"), h)


def kl_objective(
    full: Hyper,
    nested: Hyper,
    n_samples: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Monte Carlo estimate of -E_nested[log rho_full(embed(eta)) / rho_nested(eta)].

    Samples eta from the *nested* prior and averages
    log rho_nested(eta) - log rho_full(embed(eta)). Returns (estimate,
    standard error). Minimized over the nested hyperparameters exactly at
    the matched ones, where the value is
    log_normalizer(match_down(full, nested.structure)) - log_normalizer(full).
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if _ORDER[nested.structure] >= _ORDER[full.structure]:
        raise ConfigError(
            f"nested structure {nested.structure} must be strictly below {full.structure}"
        )
    d = full.dim
    if nested.dim != d:
        raise DimensionMismatchError("full and nested hypers have different dimensions")

    eta = sample_prior(nested, n_samples, rng)
    if isinstance(nested, GammaHyper):
        log_n = (
            log_normalizer(nested)
            + (nested.alpha - 1) * np.log(eta)
            - nested.rate * eta
        )
        if isinstance(full, GammaVecHyper):
            log_f = (
                log_normalizer(full)
                + d * (full.alpha - 1) * np.log(eta)
                - full.rate.sum() * eta
            )
        else:
            log_f = (
                log_normalizer(full)
                + (full.alpha - (d + 1) / 2) * d * np.log(eta)
                - np.trace(full.rate) * eta
            )
    else:  # nested D inside full A
        log_eta = np.log(eta)
        log_n = (
            log_normalizer(nested)
            + (nested.alpha - 1) * log_eta.sum(axis=1)
            - eta @ nested.rate
        )
        log_f = (
            log_normalizer(full)
            + (full.alpha - (d + 1) / 2) * log_eta.sum(axis=1)
            - eta @ np.diag(full.rate)
        )
    diffs = log_n - log_f
    est = float(diffs.mean())
    se = float(diffs.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else float("inf")
    return est, se


def empirical_bayes(stats: SuffStats, m: float = 2.0) -> HyperTriple:
    """Method-of-moments rates with the prior sample size m treated as known.

    Shapes are fixed by m per structure; rates solve the marginal
    second-moment equations:

        B_hat   = (2*alpha_A - d - 1) * s / n      (= m * s / n)
        beta_j  = (2*alpha_D - 2) * s_jj / n
        beta_C  = (2*alpha_C - 2) * tr(s) / (n d)

    Requires n >= 1 and a positive definite scatter for the Wishart rate.
    """
    if stats.n < 1:
        raise EmptyDatasetError("empirical Bayes requires at least one observation")
    d = stats.d
    alpha_a = shape_for_sample_size("A", m, d)
    alpha_d = shape_for_sample_size("D", m, d)
    alpha_c = shape_for_sample_size("C", m, d)
    b = (2 * alpha_a - d - 1) * stats.s / stats.n
    try:
        wish = WishartHyper(alpha_a, b)
    except CovselError as exc:
        raise DegenerateScatterError(
            f"scatter matrix is singular at n={stats.n}, d={d}: {exc}"
        ) from exc
    if np.any(stats.s_diag <= 0) or stats.s_total <= 0:
        raise DegenerateScatterError("scatter diagonal must be strictly positive")
    gvec = GammaVecHyper(alpha_d, (2 * alpha_d - 2) * stats.s_diag / stats.n)
    gam = GammaHyper(alpha_c, (2 * alpha_c - 2) * stats.s_total / (stats.n * d), d)
    return HyperTriple(wish, gvec, gam)


def mclust_default(stats: SuffStats) -> HyperTriple:
    """The default regularization of the mclust R package, translated.

    All shapes are (d+2)/2; the Wishart rate is 2s/n and the gamma rates
    are the common 2*tr(s)/(n*d) for every axis. Note the structure-D
    shape corresponds to prior sample size m = d here, not m = 1.
    """
    if stats.n < 1:
        raise EmptyDatasetError("mclust default requires at least one observation")
    d = stats.d
    alpha = (d + 2) / 2
    try:
        wish = WishartHyper(alpha, 2 * stats.s / stats.n)
    except CovselError as exc:
        raise DegenerateScatterError(
            f"scatter matrix is singular at n={stats.n}, d={d}: {exc}"
        ) from exc
    if stats.s_total <= 0:
        raise DegenerateScatterError("scatter trace must be strictly positive")
    rate = 2 * stats.s_total / (stats.n * d)
    return HyperTriple(wish, GammaVecHyper(alpha, np.full(d, rate)), GammaHyper(alpha, rate, d))


def stack_hypers(triples: Sequence[HyperTriple]) -> HyperTriple:
    """One triple whose rates stack those of `triples` along a leading
    replicate axis. The triples must share their shapes alpha, as the
    empirical-Bayes and mclust triples of one (n, d) do."""
    first = triples[0]
    for triple in triples:
        if any(h.alpha != h0.alpha for h, h0 in zip(triple, first)):
            raise ConfigError("stacked hyperparameters must share their shapes")
    return HyperTriple(
        WishartHyper(first.a.alpha, np.stack([t.a.rate for t in triples])),
        GammaVecHyper(first.d.alpha, np.stack([t.d.rate for t in triples])),
        GammaHyper(first.c.alpha, np.array([t.c.rate for t in triples]), first.c.dim),
    )


def sample_prior(h: Hyper, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` half-precisions from the prior: (size, d, d) for A, (size, d)
    for D and (size,) for C. A is Bartlett (`sample_wishart_batch`), D and
    C are gamma draws. The rate must be one rate, not a stack of them."""
    if np.ndim(h.rate) != {"A": 2, "D": 1, "C": 0}[h.structure]:
        raise DimensionMismatchError(f"cannot sample a stacked rate of shape {np.shape(h.rate)}")
    if isinstance(h, WishartHyper):
        return sample_wishart_batch(h, size, rng)
    if isinstance(h, GammaVecHyper):
        return rng.gamma(h.alpha, 1.0, size=(size, h.dim)) / h.rate
    return rng.gamma(h.alpha, 1.0 / h.rate, size=size)


def sample_half_precision(h: Hyper, rng: np.random.Generator) -> HalfPrecision:
    """Draw one half-precision from the prior: a batch of one of `sample_prior`."""
    return from_array(h.structure, sample_prior(h, 1, rng)[0], h.dim)


def sample_wishart_batch(h: WishartHyper, size: int, rng: np.random.Generator) -> np.ndarray:
    """Bartlett sampler of the standard Wishart with df = 2*alpha and scale
    F F^T = (2B)^{-1}; returns (size, d, d). Column j draws its chi-square,
    then the normals below its diagonal, so a batch of one consumes the
    stream as a scalar loop over the lower triangle, column by column."""
    d, nu = h.dim, 2 * h.alpha
    if nu <= d - 1:
        raise SupportError(f"Wishart sampling needs 2*alpha > d-1, got 2*alpha = {nu}")
    a = np.zeros((size, d, d))
    for j in range(d):
        a[:, j, j] = np.sqrt(rng.chisquare(nu - j, size=size))
        a[:, j + 1 :, j] = rng.standard_normal(size=(size, d - 1 - j))
    fa = np.linalg.inv(cholesky_pd(2 * h.rate)).T @ a  # F @ a
    return fa @ fa.swapaxes(-1, -2)


def log_prior_density(h: Hyper, theta: HalfPrecision) -> float:
    """Exact log-density of the prior at theta.

    The Wishart prior accepts any half-precision shape (Diag and Iso embed
    into its support); the D and C priors require theta to actually lie in
    their support.
    """
    if h.dim != theta.dim:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != parameter dimension {theta.dim}")
    if isinstance(h, WishartHyper):
        d = h.dim
        return float(
            log_normalizer(h)
            + (h.alpha - (d + 1) / 2) * theta.log_det()
            - theta.scatter_product(h.rate)
        )
    if isinstance(h, GammaVecHyper):
        eta = as_array(theta, "D")
        return float(
            log_normalizer(h) + (h.alpha - 1) * np.log(eta).sum() - h.rate @ eta
        )
    eta = as_array(theta, "C")
    return float(log_normalizer(h) + (h.alpha - 1) * np.log(eta) - h.rate * eta)


def hyper_to_jsonable(h: Hyper) -> dict:
    """JSON-ready dict: structure tag, shape, rate (matrix rows / vector / scalar)."""
    if isinstance(h, WishartHyper):
        return {"structure": "A", "alpha": h.alpha, "rate": h.rate.tolist()}
    if isinstance(h, GammaVecHyper):
        return {"structure": "D", "alpha": h.alpha, "rate": h.rate.tolist()}
    return {"structure": "C", "alpha": h.alpha, "rate": h.rate, "dim": h.dim}


def hyper_from_jsonable(doc: dict) -> Hyper:
    """Inverse of `hyper_to_jsonable`; ConfigError for a malformed document,
    including one whose values lie outside the prior's support."""
    try:
        structure = doc["structure"]
        alpha = float(doc["alpha"])
        rate = doc["rate"]
        if structure == "A":
            return WishartHyper(alpha, np.asarray(rate, dtype=float))
        if structure == "D":
            return GammaVecHyper(alpha, np.asarray(rate, dtype=float))
        if structure == "C":
            return GammaHyper(alpha, float(rate), int(doc.get("dim", 1)))
    except (KeyError, TypeError, ValueError, CovselError) as exc:
        raise ConfigError(f"malformed hyperparameter document: {exc}") from exc
    raise ConfigError(f"unknown structure {structure!r}")
