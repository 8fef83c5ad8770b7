"""Special functions and positive-definite linear algebra kernels.

Everything downstream (evidences, flexibilities, information criteria)
reduces to log multivariate gamma values and log determinants of positive
definite matrices, so these are kept in log space throughout; the raw
gamma function is never formed.
"""

import math
from typing import Dict, Tuple

import numpy as np

from .errors import AsymmetricMatrixError, CovselError, NotPositiveDefiniteError

__all__ = [
    "log_mv_gamma",
    "symmetrize",
    "chol_log_det",
    "factor_log_det",
    "cholesky_pd",
    "cholesky_stack",
]

LOG_PI = float(np.log(np.pi))

_SYM_RTOL = 1e-8

_HALF_MAX = float(np.finfo(float).max) / 2


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
    return d * (d - 1) / 4 * LOG_PI + sum(math.lgamma(a + (1 - j) / 2) for j in range(1, d + 1))


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
    if scale > _HALF_MAX:  # s + s^T would overflow
        return s / 2 + st / 2
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
    A stack that fails is halved and each half retried, so only the
    halves that hold a failing member are factored again.
    """
    try:
        return np.linalg.cholesky(m), {}
    except np.linalg.LinAlgError as exc:
        if len(m) == 1:
            error = NotPositiveDefiniteError(f"{what} is not positive definite: {exc}")
            return np.eye(m.shape[-1])[None], {0: error}
    mid = len(m) // 2
    (low, low_errors), (high, high_errors) = (cholesky_stack(h, what) for h in (m[:mid], m[mid:]))
    high_errors = {mid + i: error for i, error in high_errors.items()}
    return np.concatenate([low, high]), {**low_errors, **high_errors}


def factor_log_det(chol: np.ndarray) -> np.ndarray:
    """log |S| from the lower Cholesky factor of S, or of each of a stack."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def chol_log_det(s: np.ndarray):
    """log |S| for symmetric positive definite S, via Cholesky.

    A stack (r, d, d) gives an array of r values.
    """
    ld = factor_log_det(cholesky_pd(s))
    return float(ld) if ld.ndim == 0 else ld
