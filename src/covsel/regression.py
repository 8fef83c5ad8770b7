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
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .data import SuffStats
from .errors import ConfigError, DimensionMismatchError, EmptyDatasetError, SupportError
from .precision import HalfPrecision
from .priors import (
    GammaHyper,
    GammaVecHyper,
    Hyper,
    WishartHyper,
    conjugate_update,
    log_prior_density,
)
from .specialfn import chol_log_det, cholesky_pd, factor_log_det, symmetrize
from .structures import (
    FitReport,
    StackFit,
    criterion_matrix,
    fit_structure,
    log_likelihood,
    simplest_best,
)

__all__ = [
    "RegressionData",
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
    "standard_hypers",
]

# the criteria defined for the regression model; the Kashyap criterion is not
REGRESSION_CRITERIA = ("evidence", "bic", "pcbic")

# the most covariate subsets scored as one stack: at the cap of 20 candidates
# one size has 184 756 subsets, whose gathered blocks would take 100s of MB
_MAX_STACK = 1024


@dataclass(frozen=True)
class RegressionData:
    """Paired response matrix y (n x d1) and covariate matrix x (n x d2),
    with their sufficient statistics: the row count n and the Gram matrix
    [X Y]^T [X Y], the d2 covariate columns first, formed on construction."""

    y: np.ndarray
    x: np.ndarray
    n: int = field(init=False)
    d1: int = field(init=False)
    d2: int = field(init=False)
    gram: np.ndarray = field(init=False, repr=False)

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
        with np.errstate(over="ignore"):
            gram = z.T @ z
        if not np.isfinite(gram).all():
            raise SupportError("the Gram matrix [X Y]^T [X Y] of the data overflows")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", y.shape[0])
        object.__setattr__(self, "d1", y.shape[1])
        object.__setattr__(self, "d2", x.shape[1])
        object.__setattr__(self, "gram", symmetrize(gram))


@dataclass(frozen=True)
class RegressionHyper:
    """Coefficient prior mean nu (d1 x d2), column precision Lambda
    (d2 x d2, positive definite) and a structure prior on the residual
    half-precision."""

    nu: np.ndarray
    lam: np.ndarray
    cov: Hyper
    d1: int = field(init=False)
    d2: int = field(init=False)

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
        if not np.all(np.isfinite(nu)):
            raise ValueError("nu entries must be finite")
        lam = symmetrize(lam)
        cholesky_pd(lam)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "d1", nu.shape[0])
        object.__setattr__(self, "d2", nu.shape[1])


def fit_coefficients(data: RegressionData, nu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Regularized least-squares coefficients.

    gamma_hat = (Y^T X + nu Lambda)(X^T X + Lambda)^{-1}; reduces to nu
    at n = 0 and is well defined for any n because Lambda is positive
    definite.
    """
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    # the coefficients do not depend on the structure prior on H
    return effective_stats(data, RegressionHyper(nu, lam, GammaHyper(1.0, 1.0, len(nu)))).gamma_hat[0]


def residual_stats(data: RegressionData, gamma: np.ndarray) -> SuffStats:
    """Sufficient statistics of the residuals eps_i = y_i - gamma x_i.

    Their scatter is E^T G E with E = [-gamma^T; I], since [X Y] E = Y - X gamma^T.
    """
    e = np.vstack([-np.atleast_2d(gamma).T, np.eye(data.d1)])
    q = e.T @ data.gram @ e
    return SuffStats(n=data.n, d=data.d1, s=(q + q.T) / 2)


class EffectiveStats(NamedTuple):
    """What a stack of r covariate subsets of size k and one (nu, Lambda)
    give every structure, one entry per subset along the leading axis."""

    gamma_hat: np.ndarray  # the coefficients' posterior means, (r, d1, k)
    scatter: np.ndarray  # the effective scatters R, (r, d1, d1)
    shrink: np.ndarray  # (gamma_hat - nu) Lambda (gamma_hat - nu)^T, (r, d1, d1)
    log_det_lam: np.ndarray  # log|Lambda|, (r,)
    log_det_post_lam: np.ndarray  # log|X^T X + Lambda|, (r,)


def effective_stats(data: RegressionData, rh: RegressionHyper, subsets=None) -> EffectiveStats:
    """Coefficient estimates and effective residual scatters R of a stack
    of covariate subsets: `subsets` is an (r, k) array of column indices,
    by default the one subset of every column.

    R adds the prior-shrinkage penalty (gamma_hat - nu) Lambda (...)^T to
    the raw residual scatter; it is exactly the rate update each structure
    evidence sees. From the Gram blocks, with A = X^T X + Lambda,
    b = X^T Y + Lambda nu^T and C the Cholesky factor of A:
    gamma_hat^T = A^{-1} b and R = Y^T Y + nu Lambda nu^T - W^T W with
    W = C^{-1} b, the trailing Schur block of the augmented matrix
    [[A, b], [b^T, Y^T Y + nu Lambda nu^T]]. C also gives log|A|. Each
    block is gathered from the one Gram matrix and factored as a stack;
    k = 0 (no covariates) runs through the same (r, 0, 0) stacks.
    """
    if rh.d1 != data.d1 or rh.d2 != data.d2:
        raise DimensionMismatchError(
            f"hyper shapes (d1={rh.d1}, d2={rh.d2}) do not match data "
            f"(d1={data.d1}, d2={data.d2})"
        )
    idx = np.arange(data.d2)[None] if subsets is None else subsets
    rows, cols = idx[:, :, None], idx[:, None, :]
    nu, lam = rh.nu[:, idx].swapaxes(0, 1), rh.lam[rows, cols]
    lam_nu = lam @ nu.swapaxes(-1, -2)
    r = data.gram[data.d2 :, data.d2 :] + nu @ lam_nu
    c = cholesky_pd(data.gram[rows, cols] + lam)
    w = np.linalg.solve(c, data.gram[idx, data.d2 :] + lam_nu)
    r = r - w.swapaxes(-1, -2) @ w
    gamma_hat = np.linalg.solve(c.swapaxes(-1, -2), w).swapaxes(-1, -2)
    dev = gamma_hat - nu
    shrink = dev @ lam @ dev.swapaxes(-1, -2)
    return EffectiveStats(
        gamma_hat=gamma_hat,
        scatter=(r + r.swapaxes(-1, -2)) / 2,
        shrink=(shrink + shrink.swapaxes(-1, -2)) / 2,
        log_det_lam=chol_log_det(lam),
        log_det_post_lam=factor_log_det(c),
    )


def log_evidence_regression(data: RegressionData, rh: RegressionHyper) -> float:
    """Exact log marginal likelihood of the regression model.

    The covariate factor (d1/2) log(|Lambda| / |X^T X + Lambda|) plus the
    plain structure evidence at the effective scatter. With d2 = 0 this
    is exactly the no-covariate structure evidence of y. A batch of one
    through the covariate-subset scorer; raises the reason where the
    evidence is undefined.
    """
    eff = effective_stats(data, rh)
    return float(fit_structure(rh.cov, eff.scatter, data.n, coef=eff).defined("log_evidence")[0])


def log_likelihood_regression(data: RegressionData, gamma: np.ndarray, theta: HalfPrecision) -> float:
    """Joint log-likelihood at coefficients gamma and half-precision theta."""
    if theta.dim != data.d1:
        raise DimensionMismatchError("theta dimension must equal the response dimension")
    return log_likelihood(theta, residual_stats(data, gamma))


def _log_matrix_normal(gamma, nu, lam, theta) -> float:
    # conditional coefficient density pi^{-d1 d2/2} |Lambda|^{d1/2} |H|^{d2/2} exp(-tr(H S)):
    # |Lambda|^{d1/2} times the likelihood of d2 rows with scatter S = (g - nu) Lambda (g - nu)^T
    d1, d2 = nu.shape
    dev = np.atleast_2d(gamma) - nu
    return log_likelihood(theta, SuffStats(d2, d1, dev @ lam @ dev.T)) + d1 / 2 * chol_log_det(lam)


def log_joint_prior(rh: RegressionHyper, gamma: np.ndarray, theta: HalfPrecision) -> float:
    """log prior density of (gamma, H) at (gamma, theta)."""
    return _log_matrix_normal(gamma, rh.nu, rh.lam, theta) + log_prior_density(rh.cov, theta)


def joint_flexibility(
    data: RegressionData, rh: RegressionHyper, gamma: np.ndarray, theta: HalfPrecision
) -> float:
    """log joint posterior minus log joint prior at (gamma, theta).

    Satisfies log_evidence_regression == log_likelihood_regression -
    joint_flexibility at every (gamma, theta), the regression version of
    the evidence identity.
    """
    eff = effective_stats(data, rh)
    # the conjugate posterior, in the same hyperparameter family
    post = RegressionHyper(
        eff.gamma_hat[0],
        data.gram[: data.d2, : data.d2] + rh.lam,
        conjugate_update(rh.cov, SuffStats(data.n, data.d1, eff.scatter[0])),
    )
    return log_joint_prior(post, gamma, theta) - log_joint_prior(rh, gamma, theta)


def joint_map(data: RegressionData, rh: RegressionHyper) -> Tuple[np.ndarray, HalfPrecision]:
    """Joint posterior mode over (gamma, H).

    gamma maximizes at gamma_hat for every positive definite H; profiling
    it out tilts the H-marginal by |H|^{d2/2}, shifting the mode's shape
    relative to the H-only problem. Raises NonRegularPriorError where
    the mode does not exist.
    """
    structure = rh.cov.structure
    fit = fit_regression(data, {structure: rh})
    return fit.gamma_hats[structure], fit.reports[structure].map


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
    reports: Dict[str, FitReport]

    def to_jsonable(self) -> dict:
        reports = {s: rep.to_jsonable() for s, rep in self.reports.items()}
        return {"subset": list(self.subset), "reports": reports}


# _Stack is a plain class: a NamedTuple's class creation would add about
# 0.25 ms to the import of every command
class _Stack:
    """The fits of a stack of covariate subsets of one size, kept as arrays:
    their labels, and each structure's StackFit and coefficient means (r, d1, k)."""

    def __init__(
        self, labels: List[Tuple], fits: Dict[str, StackFit], gamma_hats: Dict[str, np.ndarray]
    ):
        self.labels, self.fits, self.gamma_hats = labels, fits, gamma_hats

    def regression_fits(self, rows: np.ndarray) -> List[RegressionFit]:
        """The fits of the subsets at `rows`."""
        return [
            RegressionFit(
                subset=self.labels[i],
                gamma_hats={s: g[i] for s, g in self.gamma_hats.items()},
                reports={s: fit.report(i) for s, fit in self.fits.items()},
            )
            for i in rows.tolist()
        ]


def _in_order(
    stacks: List[_Stack], order: np.ndarray, items: List[Callable[[np.ndarray], list]]
) -> Iterator[list]:
    """The per-subset items of `stacks`, put in rank `order` (indices into
    the subsets of all stacks, in stack order, as `_rank_subsets` returns
    them), in chunks of at most _MAX_STACK; `items[i](rows)` gives the items
    of stack i's subsets at `rows`, in that order."""
    starts = np.cumsum([0] + [len(stack.labels) for stack in stacks])
    for lo in range(0, len(order), _MAX_STACK):
        ranks = order[lo : lo + _MAX_STACK]
        grouped = np.sort(ranks)  # each stack's subsets together, in stack order
        cuts = np.searchsorted(grouped, starts)
        chunk = []
        for i in np.flatnonzero(np.diff(cuts)).tolist():  # the stacks in this chunk
            chunk += items[i](grouped[cuts[i] : cuts[i + 1]] - starts[i])
        yield list(map(chunk.__getitem__, np.searchsorted(grouped, ranks).tolist()))


def fit_regression(data: RegressionData, hypers: Dict[str, RegressionHyper]) -> RegressionFit:
    """Fit every provided structure's regression model on the same data:
    a batch of one of the covariate-subset scorer, with every column,
    labelled as the subset of every column index."""
    stack = _fit_subsets(data, hypers, None, [tuple(range(data.d2))])
    return stack.regression_fits(np.zeros(1, dtype=int))[0]


def _fit_subsets(
    data: RegressionData, hypers: Dict[str, RegressionHyper], subsets, labels: List[Tuple]
) -> _Stack:
    """Fit every provided structure's regression model to a stack of
    covariate subsets of one size (see `effective_stats`), named `labels`.

    The coefficient estimate and the effective scatter depend only on
    (nu, Lambda), not on the variance structure, so they are computed
    once per distinct (nu, Lambda) and shared. The kernel fits each
    structure with them as its coefficient block (see `fit_structure`):
    criteria use the joint MAP, with k = structure parameters + d1*d2
    coefficients, and the Kashyap criterion is reported as missing. A subset that
    a structure cannot fit raises the reason: the lowest such subset, and
    of its failed structures the first in `hypers`. A prior filed under
    another structure's key, or no prior at all, raises ConfigError.
    """
    if not hypers:
        raise ConfigError("no structure's hyperparameters were given")
    shared: Dict[tuple, EffectiveStats] = {}
    fits, gamma_hats = {}, {}
    for structure, rh in hypers.items():
        if structure != rh.cov.structure:
            raise ConfigError(f"key {structure!r} holds a structure-{rh.cov.structure} prior")
        key = (rh.nu.shape, rh.nu.tobytes(), rh.lam.tobytes())
        if key not in shared:
            shared[key] = effective_stats(data, rh, subsets)
        eff = shared[key]
        gamma_hats[structure] = eff.gamma_hat
        fits[structure] = fit_structure(rh.cov, eff.scatter, data.n, coef=eff)
    failed = [(min(fit.errors), j, fit) for j, fit in enumerate(fits.values()) if fit.errors]
    if failed:
        i, _, fit = min(failed)
        raise fit.errors[i]
    return _Stack(labels, fits, gamma_hats)


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
    data: RegressionData,
    hypers: Dict[str, RegressionHyper],
    names: Optional[Sequence[str]] = None,
    include_empty: bool = False,
    criterion: str = "evidence",
    max_candidates: int = 20,
) -> List[RegressionFit]:
    """Fit every covariate subset, slicing nu and Lambda to the subset.

    Each subset's statistics are a slice of the data's Gram matrix; the
    subsets of one size are scored as stacks of at most _MAX_STACK.
    Subsets are identified by canonical (sorted) column labels so the
    output is invariant to the order candidates are supplied in. Sorted
    by the best value of `criterion` across structures, descending.
    """
    stacks, order = _rank_subsets(data, hypers, names, include_empty, criterion, max_candidates)
    chunks = _in_order(stacks, order, [stack.regression_fits for stack in stacks])
    return [fit for chunk in chunks for fit in chunk]


def _rank_subsets(
    data: RegressionData,
    hypers: Dict[str, RegressionHyper],
    names: Optional[Sequence[str]] = None,
    include_empty: bool = False,
    criterion: str = "evidence",
    max_candidates: int = 20,
) -> Tuple[List[_Stack], np.ndarray]:
    """`enumerate_covariates` with each stack's fits kept as arrays: the
    stacks, and the rank order of their subsets as indices into the subsets
    of all stacks, in stack order (see `_in_order`)."""
    d2 = data.d2
    _check_criterion(criterion)
    if d2 > max_candidates:
        raise ConfigError(f"{d2} candidate columns exceed the cap of {max_candidates}")
    labels = tuple(names) if names is not None else tuple(range(d2))
    if len(labels) != d2:
        raise ConfigError("names length must match the covariate count")
    if len(set(labels)) != d2:
        raise ConfigError("covariate names must be distinct")
    # a subset's label is its columns' labels in sorted order: their ranks, sorted
    order = sorted(range(d2), key=labels.__getitem__)
    rank = np.argsort(order)
    by_rank = np.fromiter((labels[i] for i in order), dtype=object, count=d2)
    stacks, values = [], []
    for size in range(0 if include_empty else 1, d2 + 1):
        combos = combinations(range(d2), size)
        while block := list(islice(combos, _MAX_STACK)):
            block = np.array(block, dtype=int)
            subsets = list(map(tuple, by_rank[np.sort(rank[block], axis=1)].tolist()))
            stacks.append(_fit_subsets(data, hypers, block, subsets))
            values.append(criterion_matrix(stacks[-1].fits, criterion, len(block)))
    if not stacks:
        return stacks, np.zeros(0, dtype=int)
    values = np.concatenate(values)
    j = simplest_best(values)
    if (j < 0).any():
        raise EmptyDatasetError(
            f"criterion {criterion} has no value (BIC-type criteria need n >= 1)"
        )
    return stacks, np.argsort(-values[np.arange(len(j)), j], kind="stable")


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


def lambda_path(data: RegressionData, lambdas: Sequence[float]) -> List[LambdaPathRow]:
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
    if not all(0 < l < math.inf for l in lambdas):
        raise ConfigError("lambda grid must be strictly positive and finite")
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
