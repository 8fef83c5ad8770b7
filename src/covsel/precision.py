"""The half-precision parameter H = (1/2) Sigma^{-1} in structure-specific form.

Three shapes are supported, mirroring the three covariance structures:
a full positive definite matrix (structure A), a positive diagonal
(structure D), and a positive scalar multiple of the identity (structure C).
Diag and Iso embed losslessly into Full. Inside covsel a half-precision
travels in its structure's array form; `as_array` and `from_array` are
the one conversion to and from it.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SupportError
from .specialfn import cholesky_pd, symmetrize

__all__ = [
    "FullPrecision",
    "DiagPrecision",
    "IsoPrecision",
    "HalfPrecision",
    "STRUCTURES",
    "as_array",
    "from_array",
]

STRUCTURES = ("A", "D", "C")

_ISO_RTOL = 1e-12


@dataclass(frozen=True)
class FullPrecision:
    """Arbitrary positive definite half-precision (structure A)."""

    matrix: np.ndarray

    structure = "A"

    def __post_init__(self):
        m = symmetrize(self.matrix)
        cholesky_pd(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def as_matrix(self) -> np.ndarray:
        return self.matrix

    def log_det(self) -> float:
        sign, ld = np.linalg.slogdet(self.matrix)
        return float(ld)

    def scatter_product(self, s: np.ndarray) -> float:
        """tr(H s) for a d x d scatter matrix s."""
        return float(np.sum(self.matrix * s))


@dataclass(frozen=True)
class DiagPrecision:
    """Diagonal half-precision with per-axis entries (structure D)."""

    diag: np.ndarray

    structure = "D"

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("diag must be a nonempty vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise SupportError("diagonal half-precision entries must be positive and finite")
        object.__setattr__(self, "diag", v)

    @property
    def dim(self) -> int:
        return self.diag.size

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.diag)

    def log_det(self) -> float:
        return float(np.log(self.diag).sum())

    def scatter_product(self, s: np.ndarray) -> float:
        return float(self.diag @ np.diag(s))


@dataclass(frozen=True)
class IsoPrecision:
    """Constant-diagonal half-precision eta * I_d (structure C)."""

    value: float
    dim: int

    structure = "C"

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0:
            raise SupportError("isotropic half-precision must be positive and finite")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "value", v)

    def as_matrix(self) -> np.ndarray:
        return self.value * np.eye(self.dim)

    def log_det(self) -> float:
        return self.dim * float(np.log(self.value))

    def scatter_product(self, s: np.ndarray) -> float:
        return self.value * float(np.trace(s))


HalfPrecision = Union[FullPrecision, DiagPrecision, IsoPrecision]


def as_array(theta: HalfPrecision, structure: str):
    """theta in `structure`'s array form: the matrix (A), the diagonal
    vector (D) or the scalar (C). SupportError if theta does not have that
    structure."""
    m = theta.as_matrix()
    if structure == "A":
        return m
    diag = np.diag(m).copy()
    if np.abs(m - np.diag(diag)).max() > _ISO_RTOL * max(1.0, np.abs(m).max()):
        raise SupportError("half-precision is not diagonal")
    if structure == "D":
        return diag
    if np.abs(diag - diag[0]).max() > _ISO_RTOL * max(1.0, abs(float(diag[0]))):
        raise SupportError("half-precision is not a multiple of the identity")
    return float(diag[0])


def from_array(structure: str, value, dim: int) -> HalfPrecision:
    """The half-precision of `structure` whose array form is `value`; the
    inverse of `as_array`. `dim` is needed only for C's scalar."""
    if structure == "A":
        return FullPrecision(value)
    if structure == "D":
        return DiagPrecision(value)
    return IsoPrecision(float(value), dim)
