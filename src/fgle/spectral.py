"""Fractional Sobolev (semi-)norms of grid functions and the spectral
inequalities the paper's proofs use.

The seminorm int |k|^(2 sigma) |u_hat(k)|^2 dk of the semi-discrete Fourier
transform u_hat(k) = (1/sqrt(2 pi)) h sum_j u_j exp(-i k j h) is evaluated by
the composite trapezoid rule over [-pi/h, pi/h], with a panel count set here
from the number of nodes, but never node by node: |u_hat|^2 is a Toeplitz
form in u, so the rule's sum is Re(u^H T u), where T is the real symmetric
Toeplitz matrix of the rule's moments of |k|^(2 sigma) against the lag
phases. One FFT over the rule's nodes gives all moments, and the form is
``linalg.toeplitz_quadratic_form``, the one the operator's energy uses: one
more FFT per vector, by Parseval. All norms are invariant under the constant
phase introduced by shifting the physical origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexField, _check_positive, l2_h, symmetric_toeplitz_spectrum, toeplitz_quadratic_form
)
from .wsgd import _check_operator, assemble_operator, c_alpha, wsgd_weights

__all__ = [
    "InterpolationReport",
    "sobolev_seminorm",
    "sobolev_norm",
    "energy_equivalence_margins",
    "verify_interpolation",
]

# Composite trapezoid panels. The integrand has a |k|^(2 sigma) kink at the
# origin and non-periodic endpoint slopes, so the panel count needs a large
# floor before the 1e-8 convergence gate holds on coarse grids.
QUADRATURE_FLOOR = 32768


def _panels(nodes: int) -> int:
    return max(16 * nodes, QUADRATURE_FLOOR)


def _seminorm_batch(values: np.ndarray, h: float, sigma: float, panels: int) -> np.ndarray:
    """|.|^2_{H^sigma_h} for each column of ``values`` (shape (M-1, nvec)).

    The composite trapezoid rule with n = panels (rounded up to even)
    panels over [-pi/h, pi/h] has nodes k_m = -pi/h + 2 pi m / (n h). Its
    two end nodes carry the same phase, so it is an n-point periodic rule,
    and on its nodes exp(-i k_m h d) = (-1)^d omega^(m d) with
    omega = exp(-2 pi i / n). The sum is therefore Re(u^H T u) with T
    symmetric Toeplitz, T_jl = t_|j-l|, and
    t_d = (h^2 / 2 pi) (2 pi / (n h)) (-1)^d Re FFT_n(|k_m|^(2 sigma))[d].
    Lags d < M - 1 <= n / 8 do not alias.
    """
    nodes = values.shape[0]
    if panels < 8 * nodes:
        raise ValueError("panels must be at least 8 * (number of grid nodes)")
    n = panels + (panels % 2)
    # |k_m| from the integer offset |m - n/2|, so the samples are exactly even
    abs_k = np.abs(np.arange(n) - n // 2) * (2.0 * math.pi / (n * h))
    moments = np.fft.rfft(abs_k ** (2.0 * sigma))[:nodes].real
    moments[1::2] *= -1.0
    return toeplitz_quadratic_form(symmetric_toeplitz_spectrum(moments), values, h / n)


def sobolev_seminorm(u: ComplexField, sigma: float) -> float:
    """Squared seminorm |u|^2_{H^sigma_h} = int |k|^(2 sigma) |u_hat(k)|^2 dk, sigma in [0, 1]."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    return float(_seminorm_batch(u.values[:, None], u.h, sigma, _panels(len(u)))[0])


def sobolev_norm(u: ComplexField, sigma: float) -> float:
    """Squared full norm ||u||^2_{H^sigma_h} = ||u||^2_h + |u|^2_{H^sigma_h}."""
    return l2_h(u) ** 2 + sobolev_seminorm(u, sigma)


def energy_equivalence_margins(
    fields: np.ndarray, alpha: float, h: float, operator=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided margins of the operator quadratic form for many vectors.

    ``fields`` has one vector per column. Returns (lower, upper, seminorm_sq)
    with lower = (Delta u, u)_h - C_alpha |u|^2 and upper = |u|^2 - (Delta u, u)_h,
    both nonnegative in exact arithmetic. ``h`` must be positive and finite.
    """
    _check_positive("grid spacing h", h)
    fields = np.asarray(fields, dtype=complex)
    if fields.ndim == 1:
        fields = fields[:, None]
    M = fields.shape[0] + 1
    if operator is None:
        operator = assemble_operator(wsgd_weights(alpha, M), M)
    _check_operator(operator, alpha, M)
    sem = _seminorm_batch(fields, h, alpha / 2.0, _panels(M - 1))
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

