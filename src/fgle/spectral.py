"""The energy equivalence the paper's a priori bound rests on:
C_alpha |u|^2_{H^(alpha/2)} <= (Delta_h u, u)_h <= |u|^2_{H^(alpha/2)}, checked for
many vectors at once by ``energy_equivalence_margins``.

The seminorm int |k|^(2 sigma) |u_hat(k)|^2 dk over [-pi/h, pi/h] of the semi-discrete
transform u_hat(k) = (1/sqrt(2 pi)) h sum_j u_j exp(-i k j h) is exact, never sampled:
it is h^(1 - 2 sigma) Re(u^H K u), K the symmetric Toeplitz matrix of the cosine
moments of t^(2 sigma) over [0, pi]. Those come from ``linalg._cosine_moments``, the
rule that also gives the operator symbol's coefficients, and the form from
``linalg.toeplitz_quadratic_form``, as the operator's energy does: one FFT per vector.
The seminorm is invariant under the constant phase of a shift of the physical origin.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    _check_positive, _cosine_moments, symmetric_toeplitz_spectrum, toeplitz_quadratic_form,
)
from .wsgd import OperatorMatrix, _check_operator, c_alpha

__all__ = ["energy_equivalence_margins"]

QUADRATURE_FLOOR = 32768  # read by ``bench/tracer.py``, never by the package


def _seminorm_batch(values: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """|.|^2_{H^sigma_h} for each column of ``values`` (shape (M-1, nvec)). With t = k h,
    int |k|^(2 sigma) exp(-i k d h) dk over [-pi/h, pi/h] is 2 pi h^(-2 sigma - 1) K_d."""
    spectrum = symmetric_toeplitz_spectrum(_cosine_moments(2.0 * sigma, values.shape[0]))
    return toeplitz_quadratic_form(spectrum, values, h ** (1.0 - 2.0 * sigma))


def energy_equivalence_margins(
    fields: np.ndarray, alpha: float, h: float, operator: OperatorMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided margins of the operator quadratic form for many vectors.

    ``fields`` is 2-D, one vector of at least 2 entries per column, and ``operator`` the one
    for order alpha on their grid. Returns (lower, upper, seminorm_sq) with lower =
    (Delta u, u)_h - C_alpha |u|^2 and upper = |u|^2 - (Delta u, u)_h, both nonnegative in
    exact arithmetic. ``h`` must be positive and finite, and so must every entry of ``fields``.
    """
    _check_positive("grid spacing h", h)
    fields = np.asarray(fields, dtype=complex)
    if fields.ndim != 2 or fields.shape[0] < 2:
        raise ValueError(f"fields must be 2-D with at least 2 rows, got {fields.shape}")
    if not np.all(np.isfinite(fields)):
        raise ValueError("fields must be finite")
    _check_operator(operator, alpha, fields.shape[0] + 1)
    sem = _seminorm_batch(fields, h, alpha / 2.0)
    qf = operator.quadratic_form(fields, h)
    ca = c_alpha(alpha)
    return qf - ca * sem, sem - qf, sem
