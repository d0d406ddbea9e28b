"""Reference implementations the tests check the library against."""

import math

import numpy as np
import scipy.linalg

from fgle.linalg import ComplexField
from fgle.stepper import SolverSettings
from fgle.wsgd import WsgdWeights, assemble_operator, wsgd_weights


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


def symbol_series(alpha: float, theta, L: int):
    """The weights' L-term cosine series 1/cos(alpha pi/2) * sum_{l<=L} w_l cos((l-1) theta).

    Independent of ``wsgd.symbol_f``, which is its closed-form limit: it sums
    the WSGD weights themselves. theta may be a scalar or an array.
    """
    w = wsgd_weights(alpha, L).w
    l = np.arange(L + 1, dtype=float)
    series = np.cos(np.multiply.outer(np.asarray(theta, dtype=float), l - 1.0)) @ w
    return series / math.cos(alpha * math.pi / 2.0)


def trapezoid_seminorm(values: np.ndarray, h: float, sigma: float, panels: int) -> np.ndarray:
    """|.|^2_{H^sigma_h} per column of ``values`` by the dense composite trapezoid rule.

    Independent of ``spectral._seminorm_batch``: it forms exp(-i k x) on
    every node in chunks of rows and sums |k|^(2 sigma) |u_hat(k)|^2 with
    the trapezoid weights, n = panels rounded up to even panels over
    [-pi/h, pi/h]. For real data the integrand is even in k, so the
    positive half with doubled weights gives the identical sum at half
    the cost. The nodes come from integer offsets, (m - n/2) 2 pi / (n h),
    so the middle one is exactly 0, where |k|^(2 sigma) is least smooth.
    O(n (M-1)) time.
    """
    chunk = 8192
    n = panels + (panels % 2)
    dk = 2.0 * math.pi / (n * h)
    real_input = np.isrealobj(values) or not np.any(values.imag)
    if real_input:
        k = np.arange(n // 2 + 1) * dk
        wgt = np.full(k.size, 2.0 * dk)
    else:
        k = (np.arange(n + 1) - n // 2) * dk
        wgt = np.full(k.size, dk)
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


def linear_predictor_run(params, grid, time_grid, u0):
    """u^N and the total inner iterations of the midpoint scheme, started by linear extrapolation.

    Independent of ``stepper.run_simulation``: the dense midpoint matrix is
    LU-factored once and every inner solve is a dense triangular solve. The
    first level starts from the explicit half step, every later one from
    1.5 u^n - 0.5 u^{n-1}; the stopping rule is the library's, with the
    default ``SolverSettings``.
    """
    settings = SolverSettings()
    h, tau = grid.h, time_grid.tau
    diffusion = params.upsilon + 1j * params.eta
    cubic = params.kappa + 1j * params.zeta
    lap = h ** (-params.alpha) * assemble_operator(wsgd_weights(params.alpha, grid.M), grid.M).C
    A = (1.0 - tau * params.gamma / 2.0) * np.eye(grid.M - 1) + (tau / 2.0) * diffusion * lap
    factors = scipy.linalg.lu_factor(A)
    u = np.asarray(u0(grid.interior_nodes()), dtype=complex)
    u_prev = None
    total = 0
    for _ in range(time_grid.N):
        if u_prev is None:
            z = u - (tau / 2.0) * (
                diffusion * (lap @ u) + cubic * np.abs(u) ** 2 * u - params.gamma * u
            )
        else:
            z = 1.5 * u - 0.5 * u_prev
        for it in range(1, settings.max_iters + 1):
            z_new = scipy.linalg.lu_solve(factors, u - (tau / 2.0) * cubic * np.abs(z) ** 2 * z)
            increment = np.max(np.abs(z_new - z))
            z = z_new
            if increment <= settings.iter_tol * max(1.0, np.max(np.abs(z))):
                break
        else:
            raise RuntimeError(f"no convergence within {settings.max_iters} iterations")
        total += it
        u_prev, u = u, 2.0 * z - u
    return u, total
