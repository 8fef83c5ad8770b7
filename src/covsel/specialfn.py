"""Special functions and positive-definite linear algebra kernels.

Everything downstream (evidences, flexibilities, information criteria)
reduces to log multivariate gamma values and log determinants of positive
definite matrices, so these are kept in log space throughout; the raw
gamma function is never formed.
"""

from typing import Dict, Tuple

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import AsymmetricMatrixError, CovselError, NotPositiveDefiniteError

__all__ = [
    "log_mv_gamma",
    "symmetrize",
    "chol_log_det",
    "cholesky_pd",
    "cholesky_stack",
    "hadamard_half_log_ratio",
    "amgm_half_log_ratio",
    "chi_square_sf",
]

LOG_PI = float(np.log(np.pi))

_SYM_RTOL = 1e-8


def log_mv_gamma(d: int, a: float) -> float:
    """log of the d-dimensional multivariate gamma function at a.

    Defined for a > (d - 1)/2 as

        log Gamma_d(a) = d(d-1)/4 * log(pi) + sum_{j=1..d} log Gamma(a + (1-j)/2).

    For d = 1 this is the ordinary log-gamma.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if a <= (d - 1) / 2:
        raise ValueError(f"log_mv_gamma requires a > (d-1)/2 = {(d - 1) / 2}, got a = {a}")
    j = np.arange(1, d + 1)
    return float(d * (d - 1) / 4 * LOG_PI + gammaln(a + (1 - j) / 2).sum())


def symmetrize(s: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2, rejecting inputs that are not symmetric to 1e-8.

    CSV round-trips and accumulated sums break exact symmetry; anything
    beyond that relative asymmetry is treated as a user error rather
    than silently averaged away. A stack (..., d, d) is checked against
    the scale of its largest entry.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    st = s.swapaxes(-1, -2)
    scale = max(float(np.abs(s).max(initial=0.0)), 1.0)  # initial: a stack of 0 x 0 is empty
    gap = float(np.abs(s - st).max(initial=0.0))
    if gap > _SYM_RTOL * scale:
        raise AsymmetricMatrixError(
            f"matrix is asymmetric beyond relative tolerance {_SYM_RTOL} (gap {gap / scale:.3e})"
        )
    return (s + st) / 2


def cholesky_pd(s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefiniteError on failure.

    Positive definiteness is *defined* operationally here: the matrix is PD
    iff the factorization succeeds with strictly positive pivots. No
    eigenvalue thresholding anywhere else in the package.
    """
    s = symmetrize(s)
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def cholesky_stack(
    m: np.ndarray, what: str = "matrix"
) -> Tuple[np.ndarray, Dict[int, CovselError]]:
    """Lower Cholesky factors of a stack of symmetric matrices.

    A matrix that is not positive definite gets an identity factor and
    an entry in the returned errors, so it fails alone, not the stack.
    """
    try:
        return np.linalg.cholesky(m), {}
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(m)
    errors: Dict[int, CovselError] = {}
    for i, mi in enumerate(m):
        try:
            chol[i] = np.linalg.cholesky(mi)
        except np.linalg.LinAlgError as exc:
            chol[i] = np.eye(m.shape[-1])
            errors[i] = NotPositiveDefiniteError(f"{what} is not positive definite: {exc}")
    return chol, errors


def chol_log_det(s: np.ndarray):
    """log |S| for symmetric positive definite S, via Cholesky.

    A stack (r, d, d) gives an array of r values.
    """
    L = cholesky_pd(s)
    ld = 2.0 * np.log(L.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    return float(ld) if ld.ndim == 0 else ld


def hadamard_half_log_ratio(v: np.ndarray) -> float:
    """(1/2) * log( prod_j V_jj / |V| ) for positive definite V.

    Nonnegative by Hadamard's inequality, zero iff V is diagonal.
    """
    v = np.asarray(v, dtype=float)
    ld = chol_log_det(v)
    return float(0.5 * (np.log(np.diag(v)).sum() - ld))


def amgm_half_log_ratio(v: np.ndarray) -> float:
    """(d/2) * log( (tr V / d) / |V|^(1/d) ) for positive definite V.

    The log-ratio of arithmetic to geometric mean of the eigenvalues,
    scaled by d/2; nonnegative, zero iff V is a multiple of the identity.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    ld = chol_log_det(v)
    return float(d / 2 * (np.log(np.trace(v) / d) - ld / d))


def chi_square_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square with `dof` degrees of freedom.

    Clamped to [0, 1]; negative x is treated as 0.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    x = max(float(x), 0.0)
    p = float(gammaincc(dof / 2, x / 2))
    return min(max(p, 0.0), 1.0)
