"""Grid functions, discrete inner products and dense factorizations.

Grid functions live on the interior nodes of a uniform mesh and are
implicitly extended by zero outside. All norms carry the mesh weight h.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a (numerically) singular matrix."""


@dataclass
class ComplexField:
    """Complex-valued grid function on the M-1 interior nodes, spacing h."""

    values: np.ndarray
    h: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("field values must be a 1-D sequence")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if not self.h > 0:
            raise ValueError("grid spacing h must be positive")

    def __len__(self) -> int:
        return self.values.size

    def copy(self) -> "ComplexField":
        return ComplexField(self.values.copy(), self.h)


def _check_pair(u: ComplexField, v: ComplexField) -> None:
    if len(u) != len(v):
        raise ValueError(f"field lengths differ: {len(u)} vs {len(v)}")
    if u.h != v.h:
        raise ValueError(f"field spacings differ: {u.h} vs {v.h}")


def inner_product(u: ComplexField, v: ComplexField) -> complex:
    """Discrete inner product (u, v)_h = h * sum_j u_j * conj(v_j)."""
    _check_pair(u, v)
    return complex(u.h * np.sum(u.values * np.conj(v.values)))


def l2_h(u: ComplexField) -> float:
    return math.sqrt(u.h * float(np.sum(np.abs(u.values) ** 2)))


def lp_h(u: ComplexField, p: float) -> float:
    """Discrete l^p norm (h * sum |u_j|^p)^(1/p) for finite p >= 1."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    return float((u.h * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def linf_h(u: ComplexField) -> float:
    return float(np.max(np.abs(u.values)))


def cholesky(matrix) -> np.ndarray:
    """Factor a symmetric positive definite matrix as C = L^T L, L lower.

    A non-positive pivot is reported as ``SingularMatrixError`` ("not SPD").

    The lower factor with C = L^T L (rather than the usual L L^T) comes
    from factoring the index-reversed matrix and flipping back.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("cholesky expects a square matrix")
    try:
        m = scipy.linalg.cholesky(a[::-1, ::-1], lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    return np.ascontiguousarray(m.T[::-1, ::-1])


@dataclass
class FactorizedSystem:
    """Reusable LU factorization (with partial pivoting) of a complex matrix."""

    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    size: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        if b.shape[0] != self.size:
            raise ValueError(f"right-hand side length {b.shape[0]} != system size {self.size}")
        return scipy.linalg.lu_solve((self.lu, self.piv), b, check_finite=False)


_PIVOT_FLOOR = 1e-300


def lu_factor(a: np.ndarray) -> FactorizedSystem:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor expects a square matrix")
    with warnings.catch_warnings():
        # singularity is detected on the pivots below and raised as an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
    if a.shape[0] and float(np.min(np.abs(np.diag(lu)))) < _PIVOT_FLOOR:
        raise SingularMatrixError("matrix is numerically singular (pivot below 1e-300)")
    return FactorizedSystem(lu=lu, piv=piv, size=a.shape[0])


def solve(system: FactorizedSystem, b):
    """Solve A x = b against a stored factorization.

    ComplexField in, ComplexField out; plain arrays pass through unchanged.
    """
    if isinstance(b, ComplexField):
        if len(b) != system.size:
            raise ValueError(f"field length {len(b)} != system size {system.size}")
        return ComplexField(system.solve(b.values), b.h)
    return system.solve(np.asarray(b, dtype=complex))
