"""Reference implementations the tests check the library against."""

import math

import numpy as np

from fgle.linalg import ComplexField
from fgle.wsgd import WsgdWeights


def apply_fractional_laplacian(u: ComplexField, weights: WsgdWeights) -> ComplexField:
    """Apply the discrete fractional Laplacian by direct double summation.

    Independent of ``OperatorMatrix.apply``: each node sums the left- and
    right-shifted weight convolutions against the zero-extended field.
    Agrees with h^(-alpha) C u to machine precision.
    """
    vals = u.values
    M = vals.size + 1
    if weights.w.size < M + 1:
        raise ValueError(f"need weights w_0..w_{M}, got only {weights.w.size} entries")
    w = weights.w
    ext = np.zeros(M + 1, dtype=complex)
    ext[1:M] = vals
    scale = u.h ** (-weights.alpha) / (2.0 * math.cos(weights.alpha * math.pi / 2.0))
    out = np.empty(M - 1, dtype=complex)
    for j in range(1, M):
        left = np.dot(w[: j + 2], ext[j + 1 :: -1])
        right = np.dot(w[: M - j + 2], ext[j - 1 : M + 1])
        out[j - 1] = scale * (left + right)
    return ComplexField(out, u.h)


def trapezoid_seminorm(values: np.ndarray, h: float, sigma: float, panels: int) -> np.ndarray:
    """|.|^2_{H^sigma_h} per column of ``values`` by the dense composite trapezoid rule.

    Independent of ``spectral._seminorm_batch``: it forms exp(-i k x) on
    every node in chunks of rows and sums |k|^(2 sigma) |u_hat(k)|^2 with
    the trapezoid weights, n = panels rounded up to even panels over
    [-pi/h, pi/h]. For real data the integrand is even in k, so the
    positive half with doubled weights gives the identical sum at half
    the cost. O(n (M-1)) time.
    """
    chunk = 8192
    n = panels + (panels % 2)
    kmax = math.pi / h
    real_input = np.isrealobj(values) or not np.any(values.imag)
    if real_input:
        k = np.linspace(0.0, kmax, n // 2 + 1)
        wgt = np.full(k.size, 2.0 * (2.0 * kmax / n))
    else:
        k = np.linspace(-kmax, kmax, n + 1)
        wgt = np.full(k.size, 2.0 * kmax / n)
    wgt[0] *= 0.5
    wgt[-1] *= 0.5
    x = h * np.arange(1, values.shape[0] + 1)
    scale = h / math.sqrt(2.0 * math.pi)
    acc = np.zeros(values.shape[1])
    for start in range(0, k.size, chunk):
        kc = k[start : start + chunk]
        uhat = scale * (np.exp(-1j * np.outer(kc, x)) @ values)
        acc += (wgt[start : start + chunk] * np.abs(kc) ** (2.0 * sigma)) @ (np.abs(uhat) ** 2)
    return acc


def trapezoid_seminorm_by_fft(values: np.ndarray, h: float, sigma: float, panels: int):
    """The same trapezoid sum as ``trapezoid_seminorm``, with u_hat on all nodes from one FFT.

    On the periodic nodes k_m = -pi/h + 2 pi m / (n h), m = 0..n-1,
    |u_hat(k_m)| = (h / sqrt(2 pi)) |FFT_n((-1)^j u_j)[m]|. Every term is
    nonnegative, so unlike the Toeplitz form this does not cancel on
    smooth data; O(n log n) per column, for grids where the dense rule is
    too slow.
    """
    n = panels + (panels % 2)
    signs = (-1.0) ** np.arange(values.shape[0])
    spectrum = np.fft.fft(signs[:, None] * values, n, axis=0)
    uhat_sq = (h * h / (2.0 * math.pi)) * np.abs(spectrum) ** 2
    abs_k = np.abs(np.arange(n) - n // 2) * (2.0 * math.pi / (n * h))
    return (2.0 * math.pi / (n * h)) * (abs_k ** (2.0 * sigma)) @ uhat_sq
