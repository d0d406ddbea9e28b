"""Fractional Sobolev (semi-)norms of grid functions and the spectral
inequalities the paper's proofs use.

The seminorm int |k|^(2 sigma) |u_hat(k)|^2 dk over [-pi/h, pi/h] of the semi-discrete
transform u_hat(k) = (1/sqrt(2 pi)) h sum_j u_j exp(-i k j h) is exact, never sampled:
it is h^(1 - 2 sigma) Re(u^H K u), K the symmetric Toeplitz matrix of the cosine
moments of t^(2 sigma) over [0, pi]. Those come from ``linalg._cosine_moments``, the
rule that also gives the operator symbol's coefficients, and the form from
``linalg.toeplitz_quadratic_form``, as the operator's energy does: one FFT per vector.
All norms are invariant under the constant phase of a shift of the physical origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexField, _check_positive, _cosine_moments, l2_h, symmetric_toeplitz_spectrum,
    toeplitz_quadratic_form,
)
from .wsgd import _check_operator, assemble_operator, c_alpha, wsgd_weights

__all__ = [
    "InterpolationReport",
    "sobolev_seminorm",
    "sobolev_norm",
    "energy_equivalence_margins",
    "verify_interpolation",
]

QUADRATURE_FLOOR = 32768  # read by ``bench/tracer.py``, never by the package


def _seminorm_batch(values: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """|.|^2_{H^sigma_h} for each column of ``values`` (shape (M-1, nvec)). With t = k h,
    int |k|^(2 sigma) exp(-i k d h) dk over [-pi/h, pi/h] is 2 pi h^(-2 sigma - 1) K_d."""
    spectrum = symmetric_toeplitz_spectrum(_cosine_moments(2.0 * sigma, values.shape[0]))
    return toeplitz_quadratic_form(spectrum, values, h ** (1.0 - 2.0 * sigma))


def sobolev_seminorm(u: ComplexField, sigma: float) -> float:
    """Squared seminorm |u|^2_{H^sigma_h} = int |k|^(2 sigma) |u_hat(k)|^2 dk, sigma in [0, 1]."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    return float(_seminorm_batch(u.values[:, None], u.h, sigma)[0])


def sobolev_norm(u: ComplexField, sigma: float) -> float:
    """Squared full norm ||u||^2_{H^sigma_h} = ||u||^2_h + |u|^2_{H^sigma_h}."""
    return l2_h(u) ** 2 + sobolev_seminorm(u, sigma)


def energy_equivalence_margins(
    fields: np.ndarray, alpha: float, h: float, operator=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided margins of the operator quadratic form for many vectors.

    ``fields`` has one vector per column. Returns (lower, upper, seminorm_sq)
    with lower = (Delta u, u)_h - C_alpha |u|^2 and upper = |u|^2 - (Delta u, u)_h,
    both nonnegative in exact arithmetic. ``h`` must be positive and finite, and
    so must every entry of ``fields``.
    """
    _check_positive("grid spacing h", h)
    fields = np.asarray(fields, dtype=complex)
    if not np.all(np.isfinite(fields)):
        raise ValueError("fields must be finite")
    if fields.ndim == 1:
        fields = fields[:, None]
    M = fields.shape[0] + 1
    if operator is None:
        operator = assemble_operator(wsgd_weights(alpha, M), M)
    _check_operator(operator, alpha, M)
    sem = _seminorm_batch(fields, h, alpha / 2.0)
    qf = operator.quadratic_form(fields, h)
    ca = c_alpha(alpha)
    return qf - ca * sem, sem - qf, sem


@dataclass
class InterpolationReport:
    sigma0: float
    sigma: float
    lhs: float
    rhs: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= -1e-12 * max(self.rhs, 1e-300)


def verify_interpolation(u: ComplexField, sigma0: float, sigma: float) -> InterpolationReport:
    """Check ||u||_{H^sigma0} <= sqrt(2) ||u||_{H^sigma}^(s0/s) ||u||_h^(1-s0/s)."""
    if not (0.0 <= sigma0 <= sigma <= 1.0):
        raise ValueError(f"need 0 <= sigma0 <= sigma <= 1, got ({sigma0}, {sigma})")
    lhs = math.sqrt(sobolev_norm(u, sigma0))
    hs = math.sqrt(sobolev_norm(u, sigma))
    r = sigma0 / sigma if sigma > 0 else 1.0
    rhs = math.sqrt(2.0) * hs**r * l2_h(u) ** (1.0 - r)
    return InterpolationReport(sigma0=sigma0, sigma=sigma, lhs=lhs, rhs=rhs, margin=rhs - lhs)

