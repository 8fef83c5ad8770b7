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
from typing import Dict, List, Optional, Tuple

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
from .precision import HalfPrecision, from_array
from .priors import (
    GammaVecHyper,
    Hyper,
    HyperTriple,
    WishartHyper,
    conjugate_update,
    log_normalizer,
    log_normalizer_at,
    log_prior_density,
    sample_prior,
    shape_for_sample_size,
)
from .specialfn import LOG_PI, chol_log_det, cholesky_stack

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
    "simplest_best",
    "best_structures",
    "evidence_oracle",
    "select_structure",
    "CRITERIA",
]

CRITERIA = ("evidence", "bic", "pcbic", "kic")

# the field of FitReport and StackFit that holds each criterion's value
_CRITERION_FIELD = {"evidence": "log_evidence", "bic": "bic", "pcbic": "pc_bic", "kic": "kic"}

# each structure's statistic of a stack of scatters s (s for A, its diagonal for D,
# its trace for C) and the axes over which its product with H sums to tr(H s)
_STATISTIC = {
    "A": (lambda s: s, (-2, -1)),
    "D": (lambda s: np.diagonal(s, axis1=-2, axis2=-1), (-1,)),
    "C": (lambda s: np.trace(s, axis1=-2, axis2=-1), ()),
}

# tie order of structure selection: the simplest structure first
SIMPLEST_FIRST = ("C", "D", "A")

# relative tolerance under which two criterion values count as tied;
# ties go to the simpler structure (C before D before A)
_TIE_RTOL = 1e-9


def param_count(structure: str, d: int) -> int:
    """Free parameters: A has d(d+1)/2, D has d, C has 1."""
    if structure == "A":
        return d * (d + 1) // 2
    if structure == "D":
        return d
    if structure == "C":
        return 1
    raise ValueError(f"unknown structure {structure!r}")


def log_likelihood(theta: HalfPrecision, stats: SuffStats) -> float:
    """(n/2) log|H| - (nd/2) log(pi) - tr(H s), specialized per structure."""
    if theta.dim != stats.d:
        raise DimensionMismatchError(
            f"parameter dimension {theta.dim} != data dimension {stats.d}"
        )
    n, d = stats.n, stats.d
    if n == 0:
        return 0.0
    return float(
        n / 2 * theta.log_det() - n * d / 2 * LOG_PI - theta.scatter_product(stats.s)
    )


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

    A batch of one through `fit_structure`; raises the reason where the
    evidence is undefined.
    """
    return float(fit_structure(h, stats.s[None], stats.n).defined("log_evidence")[0])


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
        stat = stats.s_diag if structure == "D" else stats.s_total
        if np.any(stat <= 0):
            what = "s_jj" if structure == "D" else "tr s"
            raise NotPositiveDefiniteError(f"flat-prior evidence needs positive {what}")
        log_stat = np.log(stat).sum()
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
    """
    return float(_hessian_logdet(theta.structure, theta.dim, theta.log_det()))


def _hessian_logdet(structure: str, d: int, log_det_h):
    """`log_partition_hessian_logdet` from log|H|; works on arrays."""
    if structure == "C":
        return math.log(d / 2) - 2 / d * log_det_h
    if structure == "D":
        return -d * math.log(2) - 2 * log_det_h
    return -d * math.log(2) - (d + 1) * log_det_h


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

    def criterion_value(self, criterion: str) -> Optional[float]:
        return getattr(self, _CRITERION_FIELD[criterion])

    def to_jsonable(self) -> dict:
        return {
            "structure": self.structure,
            "map": np.asarray(self.map_array).tolist(),
            "log_lik_at_map": self.log_lik_at_map,
            "log_evidence": self.log_evidence,
            "flexibility_at_map": self.flexibility_at_map,
            "bic": self.bic,
            "pc_bic": self.pc_bic,
            "kic": self.kic,
            "k": self.k,
        }


@dataclass(frozen=True)
class StackFit:
    """One structure's closed-form fit of every replicate in a stack.

    Arrays have a leading replicate axis of length r; `map` is (r, d, d)
    for A, (r, d) for D and (r,) for C. BIC, pcBIC and KIC are None at
    n = 0, where log n is undefined. A replicate that could not be fit
    has False in `valid`, the reason in `errors`, and NaN entries, except
    in `log_evidence`: the evidence is defined without a mode, so it is
    filled wherever the posterior is proper, even for a non-regular prior.
    `report` and `defined` are where a failure surfaces, as its error.
    """

    structure: str
    dim: int
    k: int
    map: np.ndarray
    log_det_map: np.ndarray  # log|H| at the MAP
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

    def scatter_product(self, s: np.ndarray) -> np.ndarray:
        """tr(H s) at each replicate's MAP, for a stack s of r scatters."""
        statistic, axes = _STATISTIC[self.structure]
        return (self.map * statistic(s)).sum(axis=axes)

    def report(self, i: int) -> FitReport:
        """Replicate i as a FitReport; raises the reason it could not be fit."""
        if i in self.errors:
            raise self.errors[i]

        def at(values):
            return None if values is None else float(values[i])

        return FitReport(
            structure=self.structure,
            map_array=self.map[i],
            dim=self.dim,
            log_lik_at_map=at(self.log_lik),
            log_evidence=at(self.log_evidence),
            flexibility_at_map=at(self.flexibility),
            bic=at(self.bic),
            pc_bic=at(self.pc_bic),
            kic=at(self.kic),
            k=self.k,
        )


def fit_stack(s: np.ndarray, n: int, hypers: HyperTriple) -> Dict[str, StackFit]:
    """Fit all three structures to a stack of scatter matrices at once.

    `s` is (r, d, d), each a symmetric scatter of n observations. The
    rates of `hypers` are either shared by every replicate or stacked
    along a leading axis of length r (see `priors.stack_hypers`).
    Returns one StackFit per structure, in SIMPLEST_FIRST order.
    """
    return {
        structure: fit_structure(hypers.for_structure(structure), s, n)
        for structure in SIMPLEST_FIRST
    }


def fit_structure(h: Hyper, s: np.ndarray, n: int, coef_cols: int = 0) -> StackFit:
    """Fit one structure to a stack of scatters: the kernel behind
    `fit_stack`, `criteria` and `log_evidence`.

    `coef_cols` is the number of covariate columns of a regression model
    whose coefficients are profiled out of the joint posterior mode (see
    `regression.joint_map`): they tilt the posterior of H by
    |H|^{coef_cols/2}, which moves the mode as coef_cols observations
    with zero scatter would. The mode is the only output it changes.

    A replicate that cannot be fit gets its reason in `errors`: an improper
    posterior, a non-regular prior (every replicate) or an overflowing mode,
    in that precedence; its outputs come from finite stand-ins and are blanked
    in one final mask. A hyper of another dimension raises DimensionMismatchError.
    """
    r, d = s.shape[0], s.shape[-1]
    structure = h.structure
    if h.dim != d:
        raise DimensionMismatchError(f"hyper dimension {h.dim} != data dimension {d}")
    # the conjugate update, on the structure's own statistic of s
    statistic, axes = _STATISTIC[structure]
    stat = statistic(s)
    power = (d + 1) / 2 if structure == "A" else 1.0
    per_obs = (d if structure == "C" else 1) / 2
    alpha_post = h.alpha + n * per_obs
    rate_post = h.rate + stat
    mult = alpha_post + coef_cols * per_obs - power
    # the evidence needs a proper posterior (a positive definite rate), not a mode
    errors: Dict[int, CovselError] = {}
    if structure == "A":
        chol, errors = cholesky_stack(rate_post, "s + B")
        log_rate_post = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    else:
        log_rate_post = np.log(rate_post).sum(axis=axes)
    improper = list(errors)
    base = -n * d / 2 * LOG_PI
    lz_prior = log_normalizer(h)
    lz_post = log_normalizer_at(structure, alpha_post, log_rate_post, d)
    log_evidence = base + lz_prior - lz_post
    if mult <= 0:
        shape = "shape" if structure == "A" else "gamma shape"
        bound = "(d+1)/2" if structure == "A" else "1"
        error = NonRegularPriorError(f"posterior mode undefined: {shape} {mult + power} <= {bound}")
        errors = {i: errors.get(i, error) for i in range(r)}
        mult = 1.0  # a finite stand-in, masked below
    # the mode; it overflows where the posterior rate is too close to singular
    with np.errstate(over="ignore", invalid="ignore"):
        if structure == "A":
            inv = np.linalg.inv(chol)
            theta = mult * np.einsum("rki,rkj->rij", inv, inv)
        else:
            theta = mult / rate_post
    for i in np.flatnonzero(~np.isfinite(theta).all(axis=axes)):
        reason = "posterior mode is not finite: the posterior rate is too close to singular"
        errors.setdefault(int(i), SupportError(reason))
        theta[i] = 1.0  # a finite stand-in, masked below
    # log_base: log|H| for A and D, log eta for C (the log of what the
    # densities raise to alpha - power)
    if structure == "A":
        log_base = d * math.log(mult) - log_rate_post
    else:
        log_base = np.log(theta).sum(axis=axes)
    log_det_h = d * log_base if structure == "C" else log_base

    def dot(rate):
        return (theta * rate).sum(axis=axes)

    log_prior = lz_prior + (h.alpha - power) * log_base - dot(h.rate)
    log_post = lz_post + (alpha_post - power) * log_base - dot(rate_post)
    log_lik = n / 2 * log_det_h + base - dot(stat) if n else np.zeros(r)
    k = param_count(structure, d)
    out = {
        "map": theta,
        "log_det_map": log_det_h,
        "log_lik": log_lik,
        "log_evidence": log_evidence,
        "flexibility": log_post - log_prior,
        "log_prior": log_prior,
    }
    if n >= 1:
        # Kashyap criterion: the Laplace approximation to the log evidence,
        # log L + log prior - (1/2) log |n * Hess A / (2 pi)| at the MAP.
        # Its penalty equals the flexibility in the large-n limit.
        penalty = k / 2 * math.log(n)
        out["bic"] = log_lik - penalty
        out["pc_bic"] = log_lik + log_prior - penalty
        out["kic"] = (
            out["pc_bic"]
            - 0.5 * _hessian_logdet(structure, d, log_det_h)
            + k / 2 * math.log(2 * math.pi)
        )
    else:
        out["bic"] = out["pc_bic"] = out["kic"] = None
    # the one masking step: a failed replicate keeps only its evidence,
    # which is defined without a mode wherever the posterior is proper
    valid = np.ones(r, dtype=bool)
    valid[list(errors)] = False
    log_evidence[improper] = np.nan
    for key, v in out.items():
        if v is not None and key != "log_evidence":
            v[~valid] = np.nan
    return StackFit(structure=structure, dim=d, k=k, valid=valid, errors=errors, **out)


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


def best_structures(fits: Dict[str, StackFit], criterion: str) -> List[Optional[str]]:
    """Each replicate's selected structure under `criterion`; None where no
    structure could be fit or the criterion is undefined."""
    picks = simplest_best(criterion_matrix(fits, criterion, len(fits["C"].valid)))
    return [SIMPLEST_FIRST[j] if j >= 0 else None for j in picks]


# ---------------------------------------------------------------------------
# Independent evidence oracles: adaptive quadrature of the likelihood times
# the prior for parameter dimension <= 2, and plain prior Monte Carlo for
# d <= 4. Used by the test suite to validate the closed forms; they share no
# code path with log_evidence.
# ---------------------------------------------------------------------------


def evidence_oracle(
    h: Hyper,
    stats: SuffStats,
    method: str = "quadrature",
    budget: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Numerically estimate log evidence; returns (estimate, error_bound).

    `quadrature` integrates exp(log L + log prior) on a log-transformed
    grid (error bound from the integrator); `prior-mc` averages the
    likelihood over `budget` prior draws (error bound is one standard
    error of the log estimate).
    """
    if stats.n == 0:
        return 0.0, 0.0
    if method == "quadrature":
        return _evidence_quadrature(h, stats)
    if method == "prior-mc":
        if rng is None:
            raise ConfigError("prior-mc oracle needs an rng")
        if stats.d > 4:
            raise ConfigError("prior-mc oracle supports d <= 4")
        return _evidence_prior_mc(h, stats, budget, rng)
    raise ConfigError(f"unknown oracle method {method!r}")


def _evidence_quadrature(h: Hyper, stats: SuffStats) -> Tuple[float, float]:
    from scipy import integrate  # the package needs scipy.integrate only here

    p = param_count(h.structure, h.dim)
    if p > 2:
        raise ConfigError(f"quadrature oracle supports parameter dimension <= 2, got {p}")
    n, d = stats.n, stats.d
    post = conjugate_update(h, stats)

    if p == 1:
        # structures A and D at d = 1 are gamma priors in disguise, with the
        # same (shape, rate, likelihood-exponent) ingredients as structure C
        a = h.alpha
        b, b_post = (float(np.ravel(prior.rate)[0]) for prior in (h, post))
        center = post.alpha / b_post
        lik = lambda eta: n * d / 2 * np.log(eta) - eta * stats.s_total

        def log_g(t):
            eta = np.exp(t)
            # + t from the Jacobian of eta = exp(t)
            return (
                lik(eta)
                + a * np.log(b)
                - math.lgamma(a)
                + (a - 1) * np.log(eta)
                - b * eta
                - n * d / 2 * LOG_PI
                + t
            )

        shift = log_g(np.log(center))
        val, err = integrate.quad(
            lambda t: np.exp(log_g(t) - shift), -60, 60, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        return float(shift + np.log(val)), float(err / max(val, 1e-300))

    # p == 2: diagonal structure at d = 2
    assert isinstance(h, GammaVecHyper) and h.dim == 2
    a = h.alpha
    b1, b2 = map(float, h.rate)
    s1, s2 = map(float, stats.s_diag)
    c1 = float(post.alpha / post.rate[0])
    c2 = float(post.alpha / post.rate[1])

    def log_g(t1, t2):
        e1, e2 = np.exp(t1), np.exp(t2)
        return (
            n / 2 * (np.log(e1) + np.log(e2))
            - e1 * s1
            - e2 * s2
            - n * d / 2 * LOG_PI
            + a * (np.log(b1) + np.log(b2))
            - 2 * math.lgamma(a)
            + (a - 1) * (np.log(e1) + np.log(e2))
            - b1 * e1
            - b2 * e2
            + t1
            + t2
        )

    shift = log_g(np.log(c1), np.log(c2))
    val, err = integrate.dblquad(
        lambda t2, t1: np.exp(log_g(t1, t2) - shift),
        -40,
        40,
        -40,
        40,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    return float(shift + np.log(val)), float(err / max(val, 1e-300))


def _evidence_prior_mc(
    h: Hyper, stats: SuffStats, budget: int, rng: np.random.Generator
) -> Tuple[float, float]:
    n, d = stats.n, stats.d
    base = -n * d / 2 * LOG_PI
    lls = np.empty(budget)
    chunk = 200_000
    done = 0
    while done < budget:
        m = min(chunk, budget - done)
        eta = sample_prior(h, m, rng)
        if isinstance(h, WishartHyper):
            sign, logdet = np.linalg.slogdet(eta)
            lls[done : done + m] = (
                n / 2 * logdet + base - np.einsum("nij,ij->n", eta, stats.s)
            )
        elif isinstance(h, GammaVecHyper):
            lls[done : done + m] = (
                n / 2 * np.log(eta).sum(axis=1) + base - eta @ stats.s_diag
            )
        else:
            lls[done : done + m] = n * d / 2 * np.log(eta) + base - eta * stats.s_total
        done += m
    top = lls.max()
    w = np.exp(lls - top)
    mean = w.mean()
    se = w.std(ddof=1) / np.sqrt(budget)
    return float(top + np.log(mean)), float(se / mean)


@dataclass(frozen=True)
class SelectionResult:
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

    Ranking repeats the rule of `simplest_best`: ties (within relative
    1e-9 of the best remaining value) go to the simpler structure, C
    before D before A. Structures that cannot be fit are excluded and
    reported in `skipped` with the reason; a hyper of another dimension
    than the data's raises DimensionMismatchError.
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    reports: Dict[str, FitReport] = {}
    skipped: Dict[str, str] = {}
    for structure, fit in fit_stack(stats.s[None], stats.n, hypers).items():
        try:
            rep = fit.report(0)
        except CovselError as exc:
            skipped[structure] = f"{type(exc).__name__}: {exc}"
            continue
        if rep.criterion_value(criterion) is None:
            skipped[structure] = f"criterion {criterion} undefined at n={stats.n}"
            continue
        reports[structure] = rep
    if not reports:
        raise ConfigError(f"no structure could be fit: {skipped}")
    values = np.array(
        [[reports[s].criterion_value(criterion) if s in reports else np.nan for s in SIMPLEST_FIRST]]
    )
    ranked = []
    while (j := simplest_best(values)[0]) >= 0:
        ranked.append(reports[SIMPLEST_FIRST[j]])
        values[0, j] = np.nan
    return SelectionResult(criterion=criterion, ranked=ranked, skipped=skipped)
