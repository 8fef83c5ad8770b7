"""Multivariate Gaussian linear regression with conjugate priors.

Model: y_i = gamma x_i + eps_i with eps_i ~ N(0, Sigma) and gamma a
d1 x d2 coefficient matrix acting on a known covariate vector x_i. The
prior couples a matrix-normal for gamma given the residual half-precision
H (mean nu, column precision Lambda, row covariance (2H)^{-1}) with one of
the three structure priors on H.

All structure evidences share the covariate factor
(|Lambda| / |X^T X + Lambda|)^{d1/2} and then reduce to the plain
structure evidence evaluated at the effective scatter

    R = sum_i eps_hat_i eps_hat_i^T + (gamma_hat - nu) Lambda (gamma_hat - nu)^T,

so covariate selection and variance-structure selection run off the same
closed forms as the no-covariate case.

In Gram form, with G = [X Y]^T [X Y] and A = X^T X + Lambda,

    R = Y^T Y + nu Lambda nu^T - gamma_hat A gamma_hat^T.

Everything here is computed from G, formed once per dataset; a covariate
subset slices it, so scoring a subset costs nothing that grows with n.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .data import SuffStats
from .errors import ConfigError, DimensionMismatchError, EmptyDatasetError
from .precision import HalfPrecision
from .priors import (
    GammaHyper,
    GammaVecHyper,
    Hyper,
    WishartHyper,
    conjugate_update,
    log_prior_density,
)
from .specialfn import LOG_PI, chol_log_det, cholesky_pd, symmetrize
from .structures import (
    SIMPLEST_FIRST,
    FitReport,
    fit_structure,
    log_evidence,
    log_likelihood,
    param_count,
    simplest_best,
)

__all__ = [
    "RegressionData",
    "GramStats",
    "RegressionHyper",
    "RegressionFit",
    "EffectiveStats",
    "fit_coefficients",
    "residual_stats",
    "effective_stats",
    "log_evidence_regression",
    "log_likelihood_regression",
    "log_joint_prior",
    "joint_flexibility",
    "joint_map",
    "fit_regression",
    "enumerate_covariates",
    "lambda_path",
    "LambdaPathRow",
]

# the criteria defined for the regression model; the Kashyap criterion is not
REGRESSION_CRITERIA = ("evidence", "bic", "pcbic")


@dataclass(frozen=True)
class GramStats:
    """Sufficient statistics of regression data: the row count n and the
    Gram matrix [X Y]^T [X Y], the d2 covariate columns first."""

    n: int
    d2: int
    gram: np.ndarray

    @property
    def d1(self) -> int:
        return self.gram.shape[0] - self.d2

    def subset(self, idx: Sequence[int]) -> "GramStats":
        """The statistics of covariate columns `idx`, in that order, and every response."""
        keep = [*idx, *range(self.d2, self.gram.shape[0])]
        return GramStats(self.n, len(idx), self.gram[np.ix_(keep, keep)])


@dataclass(frozen=True)
class RegressionData(GramStats):
    """Paired response matrix y (n x d1) and covariate matrix x (n x d2).

    Its Gram statistics are formed on construction, so the data serves
    wherever the statistics do."""

    n: int = field(init=False)
    d2: int = field(init=False)
    gram: np.ndarray = field(init=False, repr=False)
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            # a bare vector is one covariate column; an empty list is none
            x = x[:, None] if x.size else x.reshape(y.shape[0], 0)
        if y.shape[0] != x.shape[0]:
            raise DimensionMismatchError(
                f"response rows {y.shape[0]} != covariate rows {x.shape[0]}"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("regression data must be finite")
        z = np.hstack([x, y])
        gram = z.T @ z
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", y.shape[0])
        object.__setattr__(self, "d2", x.shape[1])
        object.__setattr__(self, "gram", (gram + gram.T) / 2)


@dataclass(frozen=True)
class RegressionHyper:
    """Coefficient prior mean nu (d1 x d2), column precision Lambda
    (d2 x d2, positive definite) and a structure prior on the residual
    half-precision."""

    nu: np.ndarray
    lam: np.ndarray
    cov: Hyper

    def __post_init__(self):
        nu = np.atleast_2d(np.asarray(self.nu, dtype=float))
        lam = np.asarray(self.lam, dtype=float)
        if lam.size == 0:
            lam = lam.reshape(0, 0)
        if nu.size == 0:
            nu = nu.reshape(self.cov.dim, 0)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise DimensionMismatchError("Lambda must be a square matrix")
        if nu.shape[1] != lam.shape[0]:
            raise DimensionMismatchError("nu column count must match Lambda")
        if nu.shape[0] != self.cov.dim:
            raise DimensionMismatchError("nu row count must match the residual prior dimension")
        if lam.shape[0] > 0:
            lam = symmetrize(lam)
            cholesky_pd(lam)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "lam", lam)

    @property
    def d1(self) -> int:
        return self.nu.shape[0]

    @property
    def d2(self) -> int:
        return self.nu.shape[1]

    def subset(self, idx: Sequence[int]) -> "RegressionHyper":
        """The prior of covariate columns `idx`, in that order. A principal
        submatrix of a positive definite Lambda is positive definite, so
        the slice skips the constructor's checks."""
        sub = object.__new__(RegressionHyper)
        object.__setattr__(sub, "nu", self.nu[:, list(idx)])
        object.__setattr__(sub, "lam", self.lam[np.ix_(idx, idx)])
        object.__setattr__(sub, "cov", self.cov)
        return sub


def fit_coefficients(data: GramStats, nu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Regularized least-squares coefficients.

    gamma_hat = (Y^T X + nu Lambda)(X^T X + Lambda)^{-1}; reduces to nu
    at n = 0 and is well defined for any n because Lambda is positive
    definite.
    """
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    # the coefficients do not depend on the structure prior on H
    return effective_stats(data, RegressionHyper(nu, lam, GammaHyper(1.0, 1.0, len(nu)))).gamma_hat


def residual_stats(data: GramStats, gamma: np.ndarray) -> SuffStats:
    """Sufficient statistics of the residuals eps_i = y_i - gamma x_i.

    Their scatter is E^T G E with E = [-gamma^T; I], since [X Y] E = Y - X gamma^T.
    """
    e = np.vstack([-np.atleast_2d(gamma).T, np.eye(data.d1)])
    q = e.T @ data.gram @ e
    return SuffStats(n=data.n, d=data.d1, s=(q + q.T) / 2)


class EffectiveStats(NamedTuple):
    """What one covariate subset and one (nu, Lambda) give every structure."""

    gamma_hat: np.ndarray  # the coefficients' posterior mean, d1 x d2
    stats: SuffStats  # the effective scatter R
    residuals: SuffStats  # the raw residual scatter at gamma_hat, Q = R - shrink
    shrink: np.ndarray  # (gamma_hat - nu) Lambda (gamma_hat - nu)^T
    log_det_lam: float  # log|Lambda|
    log_det_post_lam: float  # log|X^T X + Lambda|


def effective_stats(data: GramStats, rh: RegressionHyper) -> EffectiveStats:
    """Coefficient estimate and the effective residual scatter R.

    R adds the prior-shrinkage penalty (gamma_hat - nu) Lambda (...)^T to
    the raw residual scatter; it is exactly the rate update each structure
    evidence sees. From the Gram blocks, with A = X^T X + Lambda,
    b = X^T Y + Lambda nu^T and C the Cholesky factor of A:
    gamma_hat^T = A^{-1} b and R = Y^T Y + nu Lambda nu^T - W^T W with
    W = C^{-1} b, the trailing Schur block of the augmented matrix
    [[A, b], [b^T, Y^T Y + nu Lambda nu^T]]. C also gives log|A|.
    """
    if rh.d1 != data.d1 or rh.d2 != data.d2:
        raise DimensionMismatchError(
            f"hyper shapes (d1={rh.d1}, d2={rh.d2}) do not match data "
            f"(d1={data.d1}, d2={data.d2})"
        )
    p, nu, lam = data.d2, rh.nu, rh.lam
    lam_nu = lam @ nu.T
    r = data.gram[p:, p:] + nu @ lam_nu
    gamma_hat, log_det_lam, log_det_post_lam = np.zeros((data.d1, 0)), 0.0, 0.0
    if p:
        c = cholesky_pd(data.gram[:p, :p] + lam)
        w = np.linalg.solve(c, data.gram[:p, p:] + lam_nu)
        r = r - w.T @ w
        gamma_hat = np.linalg.solve(c.T, w).T
        log_det_lam = chol_log_det(lam)
        log_det_post_lam = 2.0 * float(np.log(np.diag(c)).sum())
    dev = gamma_hat - nu
    shrink = dev @ lam @ dev.T
    r, shrink = (r + r.T) / 2, (shrink + shrink.T) / 2
    return EffectiveStats(
        gamma_hat=gamma_hat,
        stats=SuffStats(n=data.n, d=data.d1, s=r),
        residuals=SuffStats(n=data.n, d=data.d1, s=r - shrink),
        shrink=shrink,
        log_det_lam=log_det_lam,
        log_det_post_lam=log_det_post_lam,
    )


def log_evidence_regression(data: GramStats, rh: RegressionHyper) -> float:
    """Exact log marginal likelihood of the regression model.

    The covariate factor (d1/2) log(|Lambda| / |X^T X + Lambda|) plus the
    plain structure evidence at the effective scatter. With d2 = 0 this
    is exactly the no-covariate structure evidence of y.
    """
    eff = effective_stats(data, rh)
    lam_factor = rh.d1 / 2 * (eff.log_det_lam - eff.log_det_post_lam)
    return float(lam_factor + log_evidence(rh.cov, eff.stats))


def log_likelihood_regression(data: GramStats, gamma: np.ndarray, theta: HalfPrecision) -> float:
    """Joint log-likelihood at coefficients gamma and half-precision theta."""
    if theta.dim != data.d1:
        raise DimensionMismatchError("theta dimension must equal the response dimension")
    return log_likelihood(theta, residual_stats(data, gamma))


def _log_matrix_normal(gamma, nu, lam, theta) -> float:
    # conditional coefficient density: pi^{-d1 d2/2} |Lambda|^{d1/2} |H|^{d2/2}
    # exp(-tr(H (g - nu) Lambda (g - nu)^T))
    d1, d2 = nu.shape
    if d2 == 0:
        return 0.0
    dev = np.atleast_2d(gamma) - nu
    quad = theta.scatter_product(dev @ lam @ dev.T)
    return float(
        -d1 * d2 / 2 * LOG_PI + d1 / 2 * chol_log_det(lam) + d2 / 2 * theta.log_det() - quad
    )


def log_joint_prior(rh: RegressionHyper, gamma: np.ndarray, theta: HalfPrecision) -> float:
    """log prior density of (gamma, H) at (gamma, theta)."""
    return _log_matrix_normal(gamma, rh.nu, rh.lam, theta) + log_prior_density(rh.cov, theta)


def joint_flexibility(
    data: GramStats, rh: RegressionHyper, gamma: np.ndarray, theta: HalfPrecision
) -> float:
    """log joint posterior minus log joint prior at (gamma, theta).

    Satisfies log_evidence_regression == log_likelihood_regression -
    joint_flexibility at every (gamma, theta), the regression version of
    the evidence identity.
    """
    eff = effective_stats(data, rh)
    # the conjugate posterior, in the same hyperparameter family
    post = RegressionHyper(
        eff.gamma_hat, data.gram[: data.d2, : data.d2] + rh.lam, conjugate_update(rh.cov, eff.stats)
    )
    return log_joint_prior(post, gamma, theta) - log_joint_prior(rh, gamma, theta)


def joint_map(data: GramStats, rh: RegressionHyper) -> Tuple[np.ndarray, HalfPrecision]:
    """Joint posterior mode over (gamma, H).

    gamma maximizes at gamma_hat for every positive definite H; profiling
    it out tilts the H-marginal by |H|^{d2/2}, shifting the mode's shape
    relative to the H-only problem. Raises NonRegularPriorError where
    the mode does not exist.
    """
    eff = effective_stats(data, rh)
    return eff.gamma_hat, _report(rh.cov.structure, rh, eff).map


def _report(structure: str, rh: RegressionHyper, eff: EffectiveStats) -> FitReport:
    """One structure's fit: the kernel's fit of H at the effective scatter,
    plus the coefficient block: the covariate factor in the evidence, and
    the matrix-normal densities at gamma_hat, under the prior (mean nu)
    and the posterior (mean gamma_hat), in the log prior and flexibility."""
    n, d1, d2 = eff.stats.n, rh.d1, rh.d2
    fit = fit_structure(rh.cov, eff.stats.s[None], n, coef_cols=d2)
    rep = fit.report(0)
    theta = rep.map
    quad = theta.scatter_product(eff.shrink)
    lam_factor = d1 / 2 * (eff.log_det_lam - eff.log_det_post_lam)
    ll = log_likelihood(theta, eff.residuals)
    coef_prior = d1 / 2 * eff.log_det_lam + d2 / 2 * theta.log_det() - quad
    lp = float(fit.log_prior[0]) - d1 * d2 / 2 * LOG_PI + coef_prior
    k = param_count(structure, d1) + d1 * d2
    bic = pc_bic = None
    if n >= 1:
        penalty = k / 2 * math.log(n)
        bic, pc_bic = ll - penalty, ll + lp - penalty
    return replace(
        rep,
        structure=structure,
        log_lik_at_map=ll,
        log_evidence=rep.log_evidence + lam_factor,
        flexibility_at_map=rep.flexibility_at_map - lam_factor + quad,
        bic=bic,
        pc_bic=pc_bic,
        kic=None,
        k=k,
    )


def _check_criterion(criterion: str) -> None:
    if criterion not in REGRESSION_CRITERIA:
        raise ConfigError(
            f"criterion {criterion!r} is undefined for regression; use one of {REGRESSION_CRITERIA}"
        )


@dataclass(frozen=True)
class RegressionFit:
    """Per-structure reports for one covariate subset."""

    subset: Tuple
    gamma_hats: Dict[str, np.ndarray]
    residuals: SuffStats
    reports: Dict[str, FitReport]

    def best(self, criterion: str = "evidence") -> Tuple[str, float]:
        """The selected structure and its value; among values within the
        tie tolerance of the best, the simplest structure wins."""
        _check_criterion(criterion)
        values = np.array(
            [self.reports[s].criterion_value(criterion) if s in self.reports else None
             for s in SIMPLEST_FIRST],
            dtype=float,  # None, for an absent structure or an undefined value, becomes NaN
        )
        j = simplest_best(values[None])[0]
        if j < 0:
            raise EmptyDatasetError(
                f"criterion {criterion} has no value (BIC-type criteria need n >= 1)"
            )
        return SIMPLEST_FIRST[j], float(values[j])

    def to_jsonable(self) -> dict:
        return {
            "subset": list(self.subset),
            "reports": {s: rep.to_jsonable() for s, rep in self.reports.items()},
        }


def fit_regression(data: GramStats, hypers: Dict[str, RegressionHyper], subset=()) -> RegressionFit:
    """Fit every provided structure's regression model on the same data.

    The coefficient estimate and the effective scatter depend only on
    (nu, Lambda), not on the variance structure, so they are computed
    once per distinct (nu, Lambda) and shared. Criteria use the joint
    MAP, with k = structure parameters + d1*d2 coefficients. The Kashyap
    criterion is not defined here and reported as missing.
    """
    shared: Dict[tuple, EffectiveStats] = {}
    reports, gammas, eff = {}, {}, None
    for structure, rh in hypers.items():
        key = (rh.nu.shape, rh.nu.tobytes(), rh.lam.tobytes())
        if key not in shared:
            shared[key] = effective_stats(data, rh)
        eff = shared[key]
        reports[structure] = _report(structure, rh, eff)
        gammas[structure] = eff.gamma_hat
    residuals = eff.residuals if eff else None
    return RegressionFit(subset=tuple(subset), gamma_hats=gammas, residuals=residuals, reports=reports)


def standard_hypers(
    d1: int,
    d2: int,
    alpha: float = 2.0,
    beta: float = 1.0,
    nu: Optional[np.ndarray] = None,
    lam: Optional[np.ndarray] = None,
) -> Dict[str, RegressionHyper]:
    """One RegressionHyper per structure from shared scalars.

    Defaults mirror a weakly-informative choice: nu = 0, Lambda = I,
    common shape alpha, rate beta for C and each axis of D, and beta * I
    as the Wishart rate.
    """
    nu = np.zeros((d1, d2)) if nu is None else np.atleast_2d(np.asarray(nu, dtype=float))
    lam = np.eye(d2) if lam is None else np.asarray(lam, dtype=float)
    return {
        "A": RegressionHyper(nu, lam, WishartHyper(alpha, beta * np.eye(d1))),
        "D": RegressionHyper(nu, lam, GammaVecHyper(alpha, np.full(d1, beta))),
        "C": RegressionHyper(nu, lam, GammaHyper(alpha, beta, d1)),
    }


def enumerate_covariates(
    data: GramStats,
    hypers: Dict[str, RegressionHyper],
    names: Optional[Sequence[str]] = None,
    include_empty: bool = False,
    criterion: str = "evidence",
    max_candidates: int = 20,
) -> List[RegressionFit]:
    """Fit every covariate subset, slicing nu and Lambda to the subset.

    Each subset's statistics are a slice of the data's Gram matrix.
    Subsets are identified by canonical (sorted) column labels so the
    output is invariant to the order candidates are supplied in. Sorted
    by the best value of `criterion` across structures, descending.
    """
    d2 = data.d2
    _check_criterion(criterion)
    if d2 > max_candidates:
        raise ConfigError(f"{d2} candidate columns exceed the cap of {max_candidates}")
    labels = tuple(names) if names is not None else tuple(range(d2))
    if len(labels) != d2:
        raise ConfigError("names length must match the covariate count")
    fits = []
    sizes = range(0 if include_empty else 1, d2 + 1)
    for size in sizes:
        for idx in combinations(range(d2), size):
            sliced = {s: rh.subset(idx) for s, rh in hypers.items()}
            subset = tuple(sorted(labels[i] for i in idx) if names else idx)
            fits.append(fit_regression(data.subset(idx), sliced, subset=subset))
    fits.sort(key=lambda f: -f.best(criterion)[1])
    return fits


@dataclass(frozen=True)
class LambdaPathRow:
    lam: float
    log_evidence: float
    flexibility: float
    bic_penalty: float
    pcbic_penalty: float
    non_regular: bool

    def to_jsonable(self) -> dict:
        return {
            "lambda": self.lam,
            "log_evidence": self.log_evidence,
            "flexibility": self.flexibility,
            "bic_penalty": self.bic_penalty,
            "pcbic_penalty": self.pcbic_penalty,
            "non_regular": self.non_regular,
        }


def lambda_path(data: GramStats, lambdas: Sequence[float]) -> List[LambdaPathRow]:
    """Penalty curves for the single-hyperparameter ridge prior family.

    For each lambda the prior is eta ~ gamma(1, lambda^2/2) on the
    residual half-precision and gamma | eta ~ N(0, I / (lambda^2 eta)),
    i.e. nu = 0 and Lambda = (lambda^2/2) I in this package's convention
    (the conditional coefficient covariance is Lambda^{-1} / (2 eta)).
    Requires a univariate response and at least one observation. Values
    of lambda below 1/2 are flagged non-regular, where the flexibility
    curve is known to turn upward.
    """
    if data.d1 != 1:
        raise ConfigError("lambda_path requires a univariate response (d1 = 1)")
    if any(l <= 0 for l in lambdas):
        raise ConfigError("lambda grid must be strictly positive")
    if data.n == 0:
        raise EmptyDatasetError("lambda_path requires at least one observation")
    rows = []
    for lam in lambdas:
        lam = float(lam)
        rh = RegressionHyper(
            nu=np.zeros((1, data.d2)),
            lam=(lam**2 / 2) * np.eye(data.d2),
            cov=GammaHyper(1.0, lam**2 / 2, 1),
        )
        rep = fit_regression(data, {"C": rh}).reports["C"]
        bic_penalty = rep.k / 2 * math.log(data.n)
        rows.append(
            LambdaPathRow(
                lam=lam,
                log_evidence=float(rep.log_evidence),
                flexibility=float(rep.flexibility_at_map),
                bic_penalty=float(bic_penalty),
                # pcBIC - BIC is the log joint prior at the MAP
                pcbic_penalty=float(bic_penalty - (rep.pc_bic - rep.bic)),
                non_regular=lam < 0.5,
            )
        )
    return rows
