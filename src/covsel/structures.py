"""Closed-form inference per covariance structure.

For each structure the log-likelihood, posterior mode, log-evidence,
flexibility and the BIC-family criteria are available in closed form.
The central identity, which holds at *every* parameter value theta and
anchors the whole test suite, is

    log_evidence == log_likelihood(theta) - flexibility(theta),

with flexibility defined as the log posterior-to-prior density ratio.
Evidence is computed from prior/posterior normalizing constants, never
from the expanded per-structure formulas, so the identity holds to
floating-point accuracy by construction.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .data import SuffStats
from .errors import (
    ConfigError,
    CovselError,
    DimensionMismatchError,
    NonRegularPriorError,
    NotPositiveDefiniteError,
    SupportError,
)
from .precision import HalfPrecision, as_array, from_array
from .priors import (
    Hyper,
    HyperTriple,
    SIMPLEST_FIRST,
    _dot,
    _log_density_at,
    _log_det,
    conjugate_update,
    family,
    log_normalizer,
    log_normalizer_at,
    log_prior_density,
    shape_for_sample_size,
)
from .specialfn import LOG_PI, chol_log_det, cholesky_stack, factor_log_det

__all__ = [
    "FitReport",
    "StackFit",
    "SelectionResult",
    "param_count",
    "log_likelihood",
    "map_estimate",
    "log_evidence",
    "log_evidence_flat",
    "flexibility",
    "log_partition_hessian_logdet",
    "fit_stack",
    "fit_structure",
    "criteria",
    "criterion_matrix",
    "simplest_best",
    "select_structure",
    "CRITERIA",
]

CRITERIA = ("evidence", "bic", "pcbic", "kic")

# the field of FitReport and StackFit that holds each criterion's value
_CRITERION_FIELD = {"evidence": "log_evidence", "bic": "bic", "pcbic": "pc_bic", "kic": "kic"}

# relative tolerance under which two criterion values count as tied;
# ties go to the simpler structure (C before D before A)
_TIE_RTOL = 1e-9


def param_count(structure: str, d: int) -> int:
    """Free parameters: A has d(d+1)/2, D has d, C has 1 (`priors.family`'s k)."""
    return family(structure, d).k


def log_likelihood(theta: HalfPrecision, stats: SuffStats) -> float:
    """(n/2) log|H| - (nd/2) log(pi) - tr(H s), a batch of one of the kernel's `_log_lik`."""
    if theta.dim != stats.d:
        raise DimensionMismatchError(
            f"parameter dimension {theta.dim} != data dimension {stats.d}"
        )
    fam = family(theta.structure, stats.d)
    x, log_det_h = _stack_of_one(theta)
    return float(_log_lik(fam.axes, stats.n, stats.d, log_det_h, x, fam.statistic(stats.s))[0])


def _log_lik(axes, n: int, d: int, log_det_h, x, stat):
    """(n/2) log|H| - (nd/2) log(pi) - tr(H s) of n observations in dimension d, 0 at
    n = 0, at a stack x of half-precisions in array form, from log|H| and s's statistic."""
    if not n:
        return np.zeros(np.shape(log_det_h))
    return n / 2 * log_det_h - n * d / 2 * LOG_PI - _dot(axes, x, stat)


def _stack_of_one(theta: HalfPrecision):
    """theta as a stack of one in its own array form, and its log|H|."""
    x = np.asarray(as_array(theta, theta.structure))[None]
    return x, family(theta.structure, theta.dim).det_scale * _log_det(theta.structure, x)


def map_estimate(h: Hyper, stats: SuffStats) -> HalfPrecision:
    """Posterior mode of the half-precision.

    A: (n/2 + alpha - (d+1)/2) (s + B)^{-1}
    D: eta_j = (n + 2 alpha - 2) / (2 (s_jj + beta_j))
    C: eta   = (n d + 2 alpha - 2) / (2 (tr s + beta))

    Raises NonRegularPriorError when the mode multiplier is non-positive
    (non-regular prior and too little data).
    """
    return criteria(h, stats).map


def log_evidence(h: Hyper, stats: SuffStats) -> float:
    """Exact log marginal likelihood, also where the posterior has no mode.

    A batch of one through the kernel's evidence step, which computes no
    mode; raises the reason where the evidence is undefined.
    """
    return float(_defined_evidence(h, stats.s[None], stats.n)[0])


def log_evidence_flat(structure: str, stats: SuffStats) -> float:
    """Log evidence under the improper flat prior on the half-precision.

    Scale-arbitrary (the flat prior has no normalization), so this is
    excluded from structure selection and exposed separately. The flat
    prior is the conjugate family with zero rate, so the evidence is the
    data's base term minus the log normalizer of the would-be posterior,
    whose prior sample size is n. Structures C and D need n >= 1 and a
    positive statistic; structure A additionally needs n > d so that the
    normalizer is finite.
    """
    n, d = stats.n, stats.d
    if n < 1:
        raise ConfigError("flat-prior evidence requires n >= 1")
    alpha = shape_for_sample_size(structure, n, d)
    if structure == "A":
        if n <= d:
            raise ConfigError(f"flat-prior evidence for structure A requires n > d = {d}")
        log_stat = chol_log_det(stats.s)
    else:
        stat = family(structure, d).statistic(stats.s)
        if np.any(stat <= 0):
            what = f"structure-{structure} statistic of s"
            raise NotPositiveDefiniteError(f"flat-prior evidence needs a positive {what}")
        log_stat = _log_det(structure, stat)
    return float(-n * d / 2 * LOG_PI - log_normalizer_at(structure, alpha, log_stat, d))


def flexibility(h: Hyper, stats: SuffStats, theta: HalfPrecision) -> float:
    """log posterior density minus log prior density at theta.

    This is the exact penalty for which
    log_evidence == log_likelihood(theta) - flexibility(theta) holds for
    every theta in the support, not only at the posterior mode.
    """
    post = conjugate_update(h, stats)
    return log_prior_density(post, theta) - log_prior_density(h, theta)


def log_partition_hessian_logdet(theta: HalfPrecision) -> float:
    """log |d^2 A / d theta^2| of the per-observation log-partition at theta.

    A(H) = -(1/2) log|H| in each structure's own coordinates, and the
    log-determinant of its Hessian depends on H only through log|H|:

    * C (coordinate eta): log(d / (2 eta^2)) = log(d/2) - (2/d) log|H|;
    * D (coordinates eta_j): -sum_j log(2 eta_j^2) = -d log 2 - 2 log|H|;
    * A (coordinates: the diagonal and the upper triangle of H, each
      symmetric pair moving together): the Hessian is
      (1/2) D^T (X kron X) D with X = H^{-1} and D the duplication matrix.
      With |D^T (X kron X) D| = 2^{d(d-1)/2} |X|^{d+1} (Magnus and
      Neudecker, Matrix Differential Calculus) and the factor 1/2 on each
      of the d(d+1)/2 coordinates, log|Hess| = -d log 2 - (d+1) log|H|.

    Each is c - b log|H| for `priors.family`'s `hessian` = (c, b).
    """
    c, b = family(theta.structure, theta.dim).hessian
    return float((c - b * _stack_of_one(theta)[1])[0])


# each value field of FitReport and the StackFit column it is read from
_REPORT_FIELDS = {
    "log_lik_at_map": "log_lik",
    "log_evidence": "log_evidence",
    "flexibility_at_map": "flexibility",
    "bic": "bic",
    "pc_bic": "pc_bic",
    "kic": "kic",
}
_REPORT_KEYS = ("structure", "map", *_REPORT_FIELDS, "k")


@dataclass(frozen=True)
class FitReport:
    """Everything a single structure's fit produces. The MAP is kept in
    the structure's array form, as the kernel formed it (see `StackFit`)."""

    structure: str
    map_array: np.ndarray
    dim: int
    log_lik_at_map: float
    log_evidence: float
    flexibility_at_map: float
    bic: Optional[float]
    pc_bic: Optional[float]
    kic: Optional[float]
    k: int

    @property
    def map(self) -> HalfPrecision:
        """The MAP as a half-precision, built on request."""
        return from_array(self.structure, self.map_array, self.dim)

    def to_jsonable(self) -> dict:
        values = [getattr(self, name) for name in _REPORT_FIELDS]
        map_ = np.asarray(self.map_array).tolist()
        return dict(zip(_REPORT_KEYS, (self.structure, map_, *values, self.k)))


@dataclass(frozen=True)
class StackFit:
    """One structure's closed-form fit of every replicate in a stack.

    Arrays have a leading replicate axis of length r; `map` is (r, d, d)
    for A, (r, d) for D and (r,) for C, and `k` an int, or (r,) with a
    regression's coefficient block. BIC, pcBIC and KIC are None at n = 0,
    where log n is undefined. A replicate that could not be fit has False
    in `valid`, the reason in `errors`, and NaN entries, except in
    `log_evidence`: the evidence is defined without a mode, so it is
    filled wherever the posterior is proper, even for a non-regular prior.
    `report` and `defined` are where a failure surfaces, as its error.
    """

    structure: str
    dim: int
    k: int | np.ndarray
    map: np.ndarray
    log_lik: np.ndarray
    log_evidence: np.ndarray
    flexibility: np.ndarray
    log_prior: np.ndarray
    bic: Optional[np.ndarray]
    pc_bic: Optional[np.ndarray]
    kic: Optional[np.ndarray]
    valid: np.ndarray
    errors: Dict[int, CovselError]

    def values(self, criterion: str) -> Optional[np.ndarray]:
        return getattr(self, _CRITERION_FIELD[criterion])

    def defined(self, field: str) -> np.ndarray:
        """A field with one value per replicate, such as `log_evidence`;
        raises the error of the first replicate where it is NaN."""
        values = getattr(self, field)
        undefined = np.flatnonzero(np.isnan(values))
        if undefined.size:
            raise self.errors[int(undefined[0])]
        return values

    def report(self, i: int) -> FitReport:
        """Replicate i as a FitReport; raises the reason it could not be fit."""
        if i in self.errors:
            raise self.errors[i]
        values = {name: getattr(self, column) for name, column in _REPORT_FIELDS.items()}
        return FitReport(
            structure=self.structure,
            map_array=self.map[i],
            dim=self.dim,
            k=int(self.k[i]) if np.ndim(self.k) else self.k,
            **{name: None if v is None else float(v[i]) for name, v in values.items()},
        )


def fit_stack(s: np.ndarray, n: int, hypers: HyperTriple) -> Dict[str, StackFit]:
    """Fit all three structures to a stack of scatter matrices at once.

    `s` is (r, d, d), each a symmetric scatter of n observations. The
    rates of `hypers` are either shared by every replicate or stacked
    along a leading axis of length r (see `priors.moment_hypers`).
    Returns one StackFit per structure, in SIMPLEST_FIRST order.
    """
    return {
        structure: fit_structure(hypers.for_structure(structure), s, n)
        for structure in SIMPLEST_FIRST
    }


def fit_structure(h: Hyper, s: np.ndarray, n: int, coef=None) -> StackFit:
    """Fit one structure to a stack of scatters: the kernel behind `fit_stack`,
    `criteria` and the regression scorer. Its first step, `_evidence`, is the only
    place that forms the evidence; `log_evidence` and `rate_study` call it alone.
    Its one criteria step is the only place that forms BIC, pcBIC and KIC.

    `coef` is a regression's coefficient block, the `regression.EffectiveStats`
    of the stack, whose subsets' sizes d2 are `coef.cols`; `s` is then its
    effective scatters R. The d x d2 coefficients, profiled out of the joint
    mode, tilt the posterior of H by |H|^{d2/2}, as d2 observations with zero
    scatter would. The block adds tr(H shrink) to the log-likelihood (at the
    raw residuals R - shrink), the coefficients' matrix-normal terms to the log
    prior and flexibility, the covariate factor (d/2) log(|Lambda| / |X^T X + Lambda|)
    to the evidence and d d2 to k (one per subset); KIC is None.

    A replicate that cannot be fit gets its reason in `errors`: an improper
    posterior, a non-regular prior (every replicate, or each subset of too few
    columns) or an overflowing mode, in that precedence; its outputs come from
    finite stand-ins and are blanked in one final mask. A hyper of another
    dimension raises DimensionMismatchError.
    """
    r, d, structure = s.shape[0], s.shape[-1], h.structure
    log_evidence, errors, post = _evidence(h, s, n)
    fam, stat, alpha_post, rate_post, chol, log_rate_post, lz_prior, lz_post = post
    axes, power = fam.axes, fam.power
    cols = 0 if coef is None else coef.cols
    mult = alpha_post + cols * fam.per_obs - power  # one per subset with a coefficient block
    low = (range(r) if mult <= 0 else ()) if coef is None else np.flatnonzero(mult <= 0).tolist()
    if low:
        shape, bound = ("shape", "(d+1)/2") if structure == "A" else ("gamma shape", "1")
        alphas = np.broadcast_to(mult + power, r).tolist()  # each replicate's mode shape
        reasons = {a: NonRegularPriorError(f"posterior mode undefined: {shape} {a} <= {bound}")
                   for a in set(alphas)}
        errors = {**{i: reasons[alphas[i]] for i in low}, **errors}
        mult = np.where(mult > 0, mult, 1.0)  # a finite stand-in, masked below
    # the mode; it overflows where the posterior rate is too close to singular
    per_row = mult if coef is None else mult.reshape((-1,) + (1,) * len(axes))
    with np.errstate(over="ignore", invalid="ignore"):
        if structure == "A":
            inv = np.linalg.inv(chol)
            theta = per_row * np.einsum("rki,rkj->rij", inv, inv)
        else:
            theta = per_row / rate_post
    for i in np.flatnonzero(~np.isfinite(theta).all(axis=axes)):
        reason = "posterior mode is not finite: the posterior rate is too close to singular"
        errors.setdefault(int(i), SupportError(reason))
        theta[i] = 1.0  # a finite stand-in, masked below
    # log|theta| as the densities read it (log eta for C); A's from the Cholesky factor
    if structure == "A" and coef is None:
        log_x = d * math.log(mult) - log_rate_post
    elif structure == "A":  # math.log of each distinct multiplier: np.log may move a last bit
        distinct, at = np.unique(mult, return_inverse=True)
        log_x = d * np.array([math.log(v) for v in distinct.tolist()])[at] - log_rate_post
    else:
        log_x = _log_det(structure, theta)
    log_det_h = fam.det_scale * log_x
    # a stand-in mode may overflow against a huge rate or statistic; it is masked below
    with np.errstate(over="ignore", invalid="ignore"):
        log_prior = _log_density_at(fam, lz_prior, h.alpha, h.rate, theta, log_x)
        log_post = _log_density_at(fam, lz_post, alpha_post, rate_post, theta, log_x)
        log_lik = _log_lik(axes, n, d, log_det_h, theta, stat)
        flex = log_post - log_prior
    k = fam.k + d * cols
    if coef is not None:
        # the coefficients' matrix-normal densities at gamma_hat, under the prior
        # (mean nu) and the posterior (mean gamma_hat); their normalizers differ
        # by the covariate factor
        quad = _dot(axes, theta, fam.statistic(coef.shrink))
        lam_factor = d / 2 * (coef.log_det_lam - coef.log_det_post_lam)
        if n:  # the log-likelihood at R; at the raw residuals R - shrink it gains tr(H shrink)
            log_lik = log_lik + quad
        # not `_log_lik` of d2 rows: its terms add in another order (pcBIC's last bits)
        coef_prior = d / 2 * coef.log_det_lam + cols / 2 * log_det_h - quad
        log_prior = log_prior - d * cols / 2 * LOG_PI + coef_prior
        log_evidence = log_evidence + lam_factor
        flex = flex - lam_factor + quad
    out = {
        "map": theta,
        "log_lik": log_lik,
        "log_evidence": log_evidence,
        "flexibility": flex,
        "log_prior": log_prior,
    }
    if n >= 1:
        # Kashyap criterion: the Laplace approximation to the log evidence,
        # log L + log prior - (1/2) log |n * Hess A / (2 pi)| at the MAP.
        # Its penalty equals the flexibility in the large-n limit.
        penalty = k / 2 * math.log(n)
        c, b = fam.hessian
        out["bic"] = log_lik - penalty
        out["pc_bic"] = log_lik + log_prior - penalty
        out["kic"] = None
        if coef is None:
            out["kic"] = out["pc_bic"] - 0.5 * (c - b * log_det_h) + k / 2 * math.log(2 * math.pi)
    else:
        out["bic"] = out["pc_bic"] = out["kic"] = None
    # the one masking step: a failed replicate keeps only its evidence,
    # which is defined without a mode wherever the posterior is proper
    valid = np.ones(r, dtype=bool)
    valid[list(errors)] = False
    for key, v in out.items():
        if v is not None and key != "log_evidence":
            v[~valid] = np.nan
    return StackFit(structure=structure, dim=d, k=k, valid=valid, errors=errors, **out)


def _evidence(h: Hyper, s: np.ndarray, n: int):
    """The kernel's evidence step: each scatter's log evidence (NaN where the
    posterior is improper: its rate overflows, and gets a finite stand-in, or
    is not positive definite), those replicates' errors, and the posterior that
    `fit_structure` reads the mode from (family, statistic, shape, rate, A's
    Cholesky factor of the rate or None, log|rate|, both log normalizers)."""
    d, structure = s.shape[-1], h.structure
    if h.dim != d:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != data dimension {d}")
    # the conjugate update, on the structure's own statistic of s
    fam = family(structure, d)
    with np.errstate(over="ignore"):  # an overflowing rate fails its replicate below
        stat = fam.statistic(s)
        rate_post = h.rate + stat
    alpha_post = h.alpha + n * fam.per_obs
    # the evidence needs a proper posterior (a finite, positive definite rate), not
    # a mode; LAPACK would factor an inf rate, so that fails first. The whole stack
    # is checked at once, as the per-replicate check costs more.
    chol, errors = None, {}
    if not np.isfinite(rate_post).all():
        overflow = np.flatnonzero(~np.isfinite(rate_post).all(axis=fam.axes))
        errors = {int(i): SupportError("the posterior rate overflows") for i in overflow}
        rate_post[overflow] = fam.statistic(np.eye(d))  # a finite stand-in, masked in the kernel
    if structure == "A":
        chol, chol_errors = cholesky_stack(rate_post, "s + B")
        errors.update(chol_errors)
        log_rate_post = factor_log_det(chol)
    else:
        log_rate_post = _log_det(structure, rate_post)
    lz_prior = log_normalizer(h)
    lz_post = log_normalizer_at(structure, alpha_post, log_rate_post, d)
    log_evidence = -n * d / 2 * LOG_PI + lz_prior - lz_post
    log_evidence[list(errors)] = np.nan
    post = (fam, stat, alpha_post, rate_post, chol, log_rate_post, lz_prior, lz_post)
    return log_evidence, errors, post


def _defined_evidence(h: Hyper, s: np.ndarray, n: int) -> np.ndarray:
    """The evidence step's log evidence of each scatter of the stack; raises
    the error of the lowest replicate whose posterior is improper."""
    log_evidence, errors, _ = _evidence(h, s, n)
    if errors:
        raise errors[min(errors)]
    return log_evidence


def criteria(h: Hyper, stats: SuffStats) -> FitReport:
    """Fit one structure: MAP, evidence, flexibility and all criteria.

    BIC, prior-corrected BIC and the Kashyap criterion are undefined at
    n = 0 (log 0) and reported as missing; at n = 1 the log n term is 0.
    A batch of one through the kernel behind `fit_stack`.
    """
    return fit_structure(h, stats.s[None], stats.n).report(0)


def simplest_best(values: np.ndarray) -> np.ndarray:
    """Each row's choice among structures in SIMPLEST_FIRST column order.

    Among the structures whose value is at least the row's best minus
    the tie tolerance (relative 1e-9), the simplest wins. NaN marks a
    structure that is not in the running; a row with none gets -1.
    """
    masked = np.where(np.isnan(values), -np.inf, values)
    best = masked.max(axis=1, keepdims=True)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(best))
    pick = np.argmax(masked >= best - tol, axis=1)
    pick[np.isneginf(best[:, 0])] = -1
    return pick


def criterion_matrix(fits: Dict[str, StackFit], criterion: str, r: int) -> np.ndarray:
    """The (r, 3) values of `criterion` in SIMPLEST_FIRST columns: NaN where a
    structure is absent, a replicate failed or the criterion is undefined."""
    cols = []
    for structure in SIMPLEST_FIRST:
        fit = fits.get(structure)
        values = None if fit is None else fit.values(criterion)
        cols.append(np.full(r, np.nan) if values is None else np.where(fit.valid, values, np.nan))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class SelectionResult:
    """The structures ranked best first under one criterion, and those skipped, with why."""

    criterion: str
    ranked: List[FitReport]
    skipped: Dict[str, str]

    @property
    def best(self) -> FitReport:
        return self.ranked[0]


def select_structure(
    stats: SuffStats, hypers: HyperTriple, criterion: str = "evidence"
) -> SelectionResult:
    """Fit all three structures once and rank them by the chosen criterion.

    Ranking takes `simplest_best` of the `criterion_matrix` row, then of
    what remains: ties (within relative 1e-9 of the best remaining value)
    go to the simpler structure, C before D before A. Structures that
    cannot be fit, or whose criterion is undefined, are excluded and
    reported in `skipped` with the reason; a hyper of another dimension
    than the data's raises DimensionMismatchError.
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    fits = fit_stack(stats.s[None], stats.n, hypers)
    skipped: Dict[str, str] = {}
    for structure, fit in fits.items():
        if fit.errors:
            skipped[structure] = f"{type(fit.errors[0]).__name__}: {fit.errors[0]}"
        elif fit.values(criterion) is None:
            skipped[structure] = f"criterion {criterion} undefined at n={stats.n}"
    values = criterion_matrix(fits, criterion, 1)
    ranked = []
    while (j := simplest_best(values)[0]) >= 0:
        ranked.append(fits[SIMPLEST_FIRST[j]].report(0))
        values[0, j] = np.nan
    if not ranked:
        raise ConfigError(f"no structure could be fit: {skipped}")
    return SelectionResult(criterion=criterion, ranked=ranked, skipped=skipped)
