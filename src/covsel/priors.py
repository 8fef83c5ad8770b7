"""Conjugate gamma/Wishart priors on the half-precision.

One prior family per covariance structure:

* structure A: Wishart with shape alpha and positive definite rate B,
  density |B|^a / Gamma_d(a) * |x|^(a-(d+1)/2) * exp(-tr(Bx)).
  This is a *rate* (not scale) parameterization; it equals the standard
  Wishart with df = 2*alpha and scale (2B)^{-1}.
* structure D: product of d independent gamma(alpha, beta_j) priors.
* structure C: a single gamma(alpha, beta) prior on the common precision.

All three are exponential-family conjugate priors, each described by
`family`; the shared "prior sample size" m below makes their information
content comparable across structures and drives the matching maps.

A hyperparameterization may also carry a stack of rates, one per
replicate along a leading axis (see `moment_hypers`); the batched scoring
kernel in `structures` broadcasts such rates against its scatters.
"""

import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

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
from .specialfn import (
    chol_log_det,
    cholesky_pd,
    cholesky_stack,
    factor_log_det,
    log_mv_gamma,
    symmetrize,
)

__all__ = [
    "WishartHyper",
    "GammaVecHyper",
    "GammaHyper",
    "Hyper",
    "HyperTriple",
    "Family",
    "family",
    "PriorSampleSize",
    "prior_sample_size",
    "shape_for_sample_size",
    "log_normalizer",
    "log_normalizer_at",
    "conjugate_update",
    "match_down",
    "match_up",
    "matched_family",
    "rate_matrix",
    "kl_objective",
    "empirical_bayes",
    "mclust_default",
    "moment_hypers",
    "sample_prior",
    "sample_half_precision",
    "log_prior_density",
    "hyper_to_jsonable",
    "hyper_from_jsonable",
]


@dataclass(frozen=True)
class WishartHyper:
    """Shape alpha and d x d positive definite rate matrix (structure A).

    The rate may be a stack (r, d, d) of per-replicate rates. A caller that
    has already factored an exactly symmetric rate by Cholesky, and so
    checked it, hands in its log|B| as `checked_log_det`; the rate is then
    neither symmetrized nor factored again.
    """

    alpha: float
    rate: np.ndarray
    checked_log_det: InitVar[Union[float, np.ndarray, None]] = None
    # log|B|, from the Cholesky factor that checks B is positive definite
    log_det_rate: Union[float, np.ndarray] = field(init=False, repr=False, compare=False)

    structure = "A"

    def __post_init__(self, checked_log_det):
        if checked_log_det is None:
            object.__setattr__(self, "rate", symmetrize(self.rate))
            checked_log_det = chol_log_det(self.rate)
        object.__setattr__(self, "log_det_rate", checked_log_det)
        d = self.rate.shape[-1]
        if not (d - 1) / 2 < self.alpha < math.inf:
            raise SupportError(
                f"Wishart shape must be finite and above (d-1)/2 = {(d - 1) / 2}, got {self.alpha}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.rate.shape[-1]

    @cached_property
    def _bartlett_scale(self) -> np.ndarray:
        """F = L^{-T}, L the Cholesky factor of 2B, so F F^T = (2B)^{-1}:
        factored once per hyper, on its first `sample_prior`."""
        return np.linalg.inv(cholesky_pd(2 * self.rate)).T


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
        if not 0 < self.alpha < math.inf or not np.all(np.isfinite(rate) & (rate > 0)):
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
        else:
            rate = float(self.rate)
        if not 0 < self.alpha < math.inf or not np.all(np.isfinite(rate) & (rate > 0)):
            raise SupportError("gamma shape and rate must be positive and finite")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
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


class Family(NamedTuple):
    """The facts a structure's conjugate-family formulas follow from.

    `statistic` maps a stack of scatters s to s (A), its diagonal (D) or
    its trace (C), whose product with the array form x of H, summed over
    `axes`, is tr(H s). The density is proportional to
    |x|^(alpha - power) exp(-<rate, x>), where |x| is the determinant for A
    and D and x itself for C; each observation adds `per_obs` to the shape.
    The structure has `k` free parameters, and its log normalizer is
    alpha log|rate| - `log_gamma`(alpha). The precision's log-determinant is
    log|H| = `det_scale` log|x|, and the log-partition's Hessian in the
    structure's own coordinates has log-determinant c - b log|H| for
    `hessian` = (c, b) (see `structures.log_partition_hessian_logdet`).
    """

    statistic: Callable[[np.ndarray], np.ndarray]
    axes: Tuple[int, ...]
    power: float
    per_obs: float
    k: int
    log_gamma: Callable[[float], float]
    det_scale: int
    hessian: Tuple[float, float]


@lru_cache
def family(structure: str, d: int) -> Family:
    """The conjugate family of `structure` in dimension d; one shared object
    per (structure, d), as the kernel reads it on every call."""
    if structure == "A":
        k = d * (d + 1) // 2
        return Family(
            lambda s: s, (-2, -1), (d + 1) / 2, 0.5, k, lambda a: log_mv_gamma(d, a),
            1, (-d * math.log(2), d + 1),
        )
    if structure == "D":
        return Family(
            lambda s: np.diagonal(s, axis1=-2, axis2=-1), (-1,), 1.0, 0.5, d,
            lambda a: d * math.lgamma(a), 1, (-d * math.log(2), 2),
        )
    if structure == "C":
        return Family(
            lambda s: np.trace(s, axis1=-2, axis2=-1), (), 1.0, d / 2, 1, math.lgamma,
            d, (math.log(d / 2), 2 / d),
        )
    raise ValueError(f"unknown structure {structure!r}")


class PriorSampleSize(NamedTuple):
    m: float
    non_regular: bool


def prior_sample_size(h: Hyper) -> PriorSampleSize:
    """Prior sample size m = (alpha - power) / per_obs (see `family`).

    A: m = 2*alpha - (d+1);  D: m = 2*alpha - 2;  C: m = (2*alpha - 2)/d.
    Flagged non-regular when m <= 0 (posterior mode may not exist for
    small n).
    """
    fam = family(h.structure, h.dim)
    m = (h.alpha - fam.power) / fam.per_obs
    return PriorSampleSize(m=float(m), non_regular=m <= 0)


def shape_for_sample_size(structure: str, m: float, d: int) -> float:
    """Inverse of prior_sample_size: alpha = power + m * per_obs."""
    fam = family(structure, d)
    return fam.power + m * fam.per_obs


def log_normalizer(h: Hyper):
    """log of the prior's normalizing constant H(tau, m).

    A: alpha*log|B| - log Gamma_d(alpha)
    D: alpha*sum_j log beta_j - d*log Gamma(alpha)
    C: alpha*log beta - log Gamma(alpha)

    Evidences are ratios of these constants, so everything downstream
    works purely off this function and the conjugate update. Stacked
    rates give one value per replicate.
    """
    log_rate = h.log_det_rate if h.structure == "A" else _log_det(h.structure, h.rate)
    return log_normalizer_at(h.structure, h.alpha, log_rate, h.dim)


def log_normalizer_at(structure: str, alpha: float, log_rate, d: int):
    """`log_normalizer` from the shape and the log-determinant of the rate
    (log|B|, sum_j log beta_j or log beta); `log_rate` may be an array."""
    value = alpha * log_rate - family(structure, d).log_gamma(alpha)
    return value if isinstance(value, np.ndarray) else float(value)


def conjugate_update(h: Hyper, stats: SuffStats) -> Hyper:
    """Posterior hyperparameters after observing `stats`.

    A: (alpha + n/2, B + s);  D: (alpha + n/2, beta_j + s_jj);
    C: (alpha + n*d/2, beta + tr s).
    """
    if h.dim != stats.d:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != data dimension {stats.d}")
    fam = family(h.structure, h.dim)
    return replace(h, alpha=h.alpha + stats.n * fam.per_obs, rate=h.rate + fam.statistic(stats.s))


# ---------------------------------------------------------------------------
# Hyperparameter matching between nested structures.
#
# Nesting order is C < D < A (SIMPLEST_FIRST). One rule serves both
# directions: write the rate as a d x d matrix (`rate_matrix`: B, diag
# beta, or (beta/d) I) and take the target's statistic of it (the matrix,
# its diagonal, or its trace). Down, that is the nesting map's aggregation;
# up, its pseudo-inverse. The prior sample size m is preserved, which pins
# the target shape via shape_for_sample_size.
# ---------------------------------------------------------------------------

# the nesting order, simplest first; also the tie order of structure selection
SIMPLEST_FIRST = ("C", "D", "A")


def _hyper(structure: str, alpha: float, rate, d: int) -> Hyper:
    """The prior of `structure` with shape alpha and a rate in its array form."""
    if structure == "A":
        return WishartHyper(alpha, rate)
    if structure == "D":
        return GammaVecHyper(alpha, np.array(rate, dtype=float))  # not a view of another rate
    return GammaHyper(alpha, rate, d)


def _as_matrices(structure: str, x, d: int) -> np.ndarray:
    """A stack of `structure`'s array forms as matrices: x, diag(x) or x I."""
    if structure == "A":
        return x
    if structure == "D":
        return x[..., None] * np.eye(d)
    return np.multiply.outer(x, np.eye(d))


def rate_matrix(h: Hyper) -> np.ndarray:
    """h's rate written as a d x d matrix: B, diag(beta), or (beta/d) I, the
    isotropic matrix whose trace is beta. A stacked rate gives a stack."""
    return _as_matrices(h.structure, h.rate / h.dim if h.structure == "C" else h.rate, h.dim)


def _match(h: Hyper, target: str) -> Hyper:
    """The matching rule (see above) from h to `target`."""
    d = h.dim
    alpha = shape_for_sample_size(target, prior_sample_size(h).m, d)
    return _hyper(target, alpha, family(target, d).statistic(rate_matrix(h)), d)


def match_down(h: Hyper, target: str) -> Hyper:
    """Project a hyperparameterization onto a strictly simpler structure."""
    if target not in SIMPLEST_FIRST:
        raise ValueError(f"unknown structure {target!r}")
    if SIMPLEST_FIRST.index(target) >= SIMPLEST_FIRST.index(h.structure):
        raise ConfigError(f"{target} is not strictly simpler than {h.structure}")
    return _match(h, target)


def match_up(h: Hyper, target: str = "A") -> Hyper:
    """Embed a hyperparameterization into a strictly richer structure."""
    if target not in SIMPLEST_FIRST:
        raise ValueError(f"unknown structure {target!r}")
    if SIMPLEST_FIRST.index(target) <= SIMPLEST_FIRST.index(h.structure):
        raise ConfigError(f"{target} is not strictly richer than {h.structure}")
    return _match(h, target)


def matched_family(h: Hyper) -> HyperTriple:
    """The full (A, D, C) family matched to h, h included."""
    return HyperTriple(*(h if s == h.structure else _match(h, s) for s in "ADC"))


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
    if SIMPLEST_FIRST.index(nested.structure) >= SIMPLEST_FIRST.index(full.structure):
        raise ConfigError(
            f"nested structure {nested.structure} must be strictly below {full.structure}"
        )
    d = full.dim
    if nested.dim != d:
        raise DimensionMismatchError("full and nested hypers have different dimensions")

    eta = sample_prior(nested, n_samples, rng)
    # the draws embedded into the full structure's array form
    embedded = family(full.structure, d).statistic(_as_matrices(nested.structure, eta, d))
    diffs = _log_density(nested, eta) - _log_density(full, embedded)
    est = float(diffs.mean())
    se = float(diffs.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else float("inf")
    return est, se


def moment_hypers(
    scheme: str, s: np.ndarray, n: int, m: float = 2.0
) -> Tuple[HyperTriple, Dict[int, DegenerateScatterError]]:
    """Hyperparameters from the moments of each scatter of an (r, d, d)
    stack, as one triple whose rates stack along the leading axis.

    'empirical-bayes' treats the prior sample size m as known: the shapes
    are fixed by m per structure, and the rates solve the marginal
    second-moment equations

        B_hat   = (2*alpha_A - d - 1) * s / n      (= m * s / n)
        beta_j  = (2*alpha_D - 2) * s_jj / n
        beta_C  = (2*alpha_C - 2) * tr(s) / (n d)

    'mclust-default' is the default regularization of the mclust R
    package, translated: all shapes are (d+2)/2, the Wishart rate is 2s/n
    and the gamma rates are the common 2*tr(s)/(n*d) for every axis (m is
    not used). Its structure-D shape is prior sample size m = d, not 1.

    A replicate whose Wishart rate is not positive definite, whose gamma
    rates are not positive, or whose rates overflow, gets unit rates and a
    DegenerateScatterError in the returned errors, so it fails alone.
    """
    if scheme not in ("empirical-bayes", "mclust-default"):
        raise ConfigError(f"unknown hyperparameter scheme {scheme!r}")
    name = {"empirical-bayes": "empirical Bayes", "mclust-default": "mclust default"}[scheme]
    if n < 1:
        raise EmptyDatasetError(f"{name} requires at least one observation")
    if scheme == "empirical-bayes" and m <= 0:
        raise ConfigError(f"empirical Bayes needs a prior sample size m > 0, got {m}")
    s = symmetrize(s)
    d = s.shape[-1]
    s_diag = np.diagonal(s, axis1=-2, axis2=-1)
    with np.errstate(over="ignore"):  # an overflowing rate fails its replicate below
        s_total = s_diag.sum(axis=-1)
        if scheme == "empirical-bayes":
            alpha_a, alpha_d, alpha_c = (shape_for_sample_size(x, m, d) for x in "ADC")
            b = (2 * alpha_a - d - 1) * s / n
            rate_d = (2 * alpha_d - 2) * s_diag / n
            rate_c = (2 * alpha_c - 2) * s_total / (n * d)
            gamma_error = "scatter diagonal must be strictly positive"
        else:
            alpha_a = alpha_d = alpha_c = (d + 2) / 2
            b = 2 * s / n
            rate_c = 2 * s_total / (n * d)
            rate_d = np.repeat(rate_c[:, None], d, axis=1)
            gamma_error = "scatter trace must be strictly positive"
    chol, chol_errors = cholesky_stack(b)
    log_det_b = factor_log_det(chol)
    errors = {
        i: DegenerateScatterError(f"scatter matrix is singular at n={n}, d={d}: {exc}")
        for i, exc in chol_errors.items()
    }
    for i in np.flatnonzero(~((rate_d > 0).all(axis=-1) & (rate_c > 0))):
        errors.setdefault(int(i), DegenerateScatterError(gamma_error))
    # LAPACK factors an inf rate, so an overflow shows as a log-determinant that is not finite
    finite = np.isfinite(rate_d).all(axis=-1) & np.isfinite(rate_c) & np.isfinite(log_det_b)
    for i in np.flatnonzero(~finite):
        errors.setdefault(int(i), DegenerateScatterError(f"the {name} rates overflow"))
    failed = list(errors)
    b[failed], rate_d[failed], rate_c[failed], log_det_b[failed] = np.eye(d), 1.0, 1.0, 0.0
    # b is exactly symmetric (a multiple of the symmetrized s), and log|I| = 0
    a = WishartHyper(alpha_a, b, checked_log_det=log_det_b)
    return HyperTriple(a, GammaVecHyper(alpha_d, rate_d), GammaHyper(alpha_c, rate_c, d)), errors


def _batch_of_one(scheme: str, stats: SuffStats, m: float = 2.0) -> HyperTriple:
    triple, errors = moment_hypers(scheme, stats.s[None], stats.n, m)
    if errors:
        raise errors[0]
    return HyperTriple(*(_hyper(h.structure, h.alpha, h.rate[0], h.dim) for h in triple))


def empirical_bayes(stats: SuffStats, m: float = 2.0) -> HyperTriple:
    """Method-of-moments rates with the prior sample size m > 0 treated as
    known: a batch of one of `moment_hypers`, raising its error."""
    return _batch_of_one("empirical-bayes", stats, m)


def mclust_default(stats: SuffStats) -> HyperTriple:
    """The default regularization of the mclust R package: a batch of one
    of `moment_hypers`, raising its error."""
    return _batch_of_one("mclust-default", stats)


def sample_prior(h: Hyper, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` half-precisions from the prior: (size, d, d) for A, (size, d)
    for D and (size,) for C. A is Bartlett (a Wishart with df = 2 alpha and
    scale (2B)^{-1}), D and C are gamma draws. The stream gives all `size`
    draws of each variate in turn (see `_standard_prior`); `_prior_transform`
    then places and scales them. The rate must be one rate, not a stack."""
    _check_one_rate(h)
    return _prior_transform(h, _standard_prior(h, size, rng))


def _standard_prior(h: Hyper, size: Optional[int], rng: np.random.Generator) -> np.ndarray:
    """The half of `sample_prior` that consumes the stream: `size` draws of
    the prior's standard variates or, where `size` is None, one draw in
    numpy's scalar form without the leading axis (the per-replicate draw of
    `montecarlo.draw_scatters`). For D and C these are standard gamma
    draws, (size, d) and (size,). For A they are the Bartlett variates in
    stream order, flat, (size, d(d+1)/2): for each column j of the factor,
    its chi-square with 2 alpha - j degrees of freedom, then its d - 1 - j
    normals below the diagonal. Each of those is one generator call for
    the whole stack, so one draw consumes the stream as a scalar loop over
    the lower triangle, column by column. (2 alpha > d - 1 holds by
    `WishartHyper`.)"""
    shape = () if size is None else (size,)
    if h.structure != "A":
        return rng.standard_gamma(h.alpha, size=(*shape, h.dim) if h.structure == "D" else size)
    d, nu = h.dim, 2 * h.alpha
    x, p = np.empty((d * (d + 1) // 2, *shape)), 0  # a row per variate, filled by one call
    for j in range(d):
        x[p] = rng.chisquare(nu - j, size=size)
        if j < d - 1:  # the last column has no normals
            x[p + 1 : p + d - j] = rng.standard_normal((*shape, d - 1 - j)).T
        p += d - j
    return x.T


@lru_cache
def _bartlett_places(d: int) -> np.ndarray:
    """Where each of `_standard_prior`'s A variates goes in the row-major
    d x d factor: down column j from its diagonal, for j = 0, ..., d - 1."""
    return np.array([i * d + j for j in range(d) for i in range(j, d)])


def _bartlett_factor(x: np.ndarray, d: int) -> np.ndarray:
    """The placement half of `_prior_transform`'s A branch: each row's variates
    placed (at `_bartlett_places`) in a lower triangular factor a, the diagonal's
    chi-squares then their square roots. a a^T is a Wishart draw of scale I."""
    a = np.zeros((d * d, len(x)))  # entry-major, so each variate fills a row
    a[_bartlett_places(d)] = x.T
    diagonal = a[:: d + 1]
    np.sqrt(diagonal, out=diagonal)
    # a C-ordered stack: the products' rounding must not depend on the layout
    return np.ascontiguousarray(a.T).reshape(-1, d, d)


def _prior_transform(h: Hyper, x: np.ndarray) -> np.ndarray:
    """The half of `sample_prior` that draws nothing: the half-precisions of a
    stack x of `_standard_prior` draws. For A the scale half F a a^T F^T of
    a = `_bartlett_factor`(x) and F = `_bartlett_scale`; for D x / beta; for C
    x (1 / beta), as numpy's gamma applies its scale. A draw that overflows
    is inf or NaN, without a warning; `montecarlo.scatters_from` rejects it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if h.structure == "A":
            fa = h._bartlett_scale @ _bartlett_factor(x, h.dim)
            return fa @ fa.swapaxes(-1, -2)
        return x / h.rate if h.structure == "D" else x * (1.0 / h.rate)


def _check_one_rate(h: Hyper) -> None:
    """DimensionMismatchError where h carries a stack of per-replicate rates."""
    if np.ndim(h.rate) != len(family(h.structure, h.dim).axes):
        shape = np.shape(h.rate)
        raise DimensionMismatchError(f"need one rate, not a stacked rate of shape {shape}")


def sample_half_precision(h: Hyper, rng: np.random.Generator) -> HalfPrecision:
    """Draw one half-precision from the prior: a batch of one of `sample_prior`."""
    return from_array(h.structure, sample_prior(h, 1, rng)[0], h.dim)


def log_prior_density(h: Hyper, theta: HalfPrecision) -> float:
    """Exact log-density of the prior at theta.

    The Wishart prior accepts any half-precision shape (Diag and Iso embed
    into its support); the D and C priors require theta to actually lie in
    their support. The rate must be one rate, not a stack of them.
    """
    if h.dim != theta.dim:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != parameter dimension {theta.dim}")
    _check_one_rate(h)
    return float(_log_density(h, np.asarray(as_array(theta, h.structure))[None])[0])


def _log_det(structure: str, x):
    """log|x| of a stack x in `structure`'s array form, a half-precision or
    a rate: the log-determinant for A and D, log x itself for C (see `family`)."""
    if structure == "A":
        return np.linalg.slogdet(x)[1]
    return np.log(x).sum(axis=family(structure, 1).axes)  # the axes do not depend on d


def _dot(axes: Tuple[int, ...], x, a):
    """<a, x> over a family's `axes`: tr(H s) for H's array form x and s's statistic a."""
    return (x * a).sum(axis=axes)


def _log_density_at(fam: Family, lz, alpha, rate, x, log_x):
    """The log density lz + (alpha - power) log|x| - <rate, x> of a prior with log
    normalizer lz, at a stack x of half-precisions in array form; log_x = `_log_det`(x)."""
    return lz + (alpha - fam.power) * log_x - _dot(fam.axes, x, rate)


def _log_density(h: Hyper, x: np.ndarray) -> np.ndarray:
    """Log density of the prior h at a stack x of half-precisions in h's array form."""
    fam = family(h.structure, h.dim)
    return _log_density_at(fam, log_normalizer(h), h.alpha, h.rate, x, _log_det(h.structure, x))


def hyper_to_jsonable(h: Hyper) -> dict:
    """JSON-ready dict: structure tag, shape, rate (matrix rows / vector /
    scalar) and, for C, the dimension."""
    doc = {"structure": h.structure, "alpha": h.alpha, "rate": np.asarray(h.rate).tolist()}
    if h.structure == "C":
        doc["dim"] = h.dim
    return doc


def hyper_from_jsonable(doc: dict) -> Hyper:
    """Inverse of `hyper_to_jsonable`; ConfigError for a malformed document,
    including one whose values lie outside the prior's support, whose rate
    is a stack of rates or whose dimension is not an integer."""
    try:
        structure = doc["structure"]
        alpha = float(doc["alpha"])
        rate = np.asarray(doc["rate"], dtype=float)
        ndim = len(family(structure, 1).axes)  # the axes do not depend on d
        if rate.ndim != ndim:
            raise ValueError(f"a structure-{structure} rate needs ndim {ndim}, not {rate.shape}")
        d = doc.get("dim", 1) if structure == "C" else rate.shape[-1]
        return _hyper(structure, alpha, rate, d)
    except (KeyError, TypeError, ValueError, CovselError) as exc:
        raise ConfigError(f"malformed hyperparameter document: {exc}") from exc
