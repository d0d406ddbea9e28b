"""The LU factorization, Gauss-Jacobi rules, and the FFT products behind the
Toeplitz operator and the Gohberg-Semencul solve. The one symmetric Toeplitz
quadratic form, ``toeplitz_quadratic_form``, serves both the operator's
energy (Delta_h u, u)_h and the H^sigma_h seminorm.

``lu_factor`` factors a fresh copy of a dense matrix. Given a symmetric
Toeplitz matrix's leading section (the stepper's is of order at most 99), its
LU is the solve when the section is the whole matrix, and otherwise seeds
``FactorizedSystem.with_gohberg_semencul`` for the whole matrix, which
refines the Gohberg-Semencul generator to one correction past rounding level
with the formula itself (Newton's iteration for a structured inverse).

A grid function is its values on the interior nodes of a uniform mesh (``_field_values``),
extended by zero outside; its spacing is the mesh's, ``stepper.GridSpec.h``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError", "FactorizedSystem", "fft_length", "symmetric_toeplitz",
    "symmetric_toeplitz_spectrum", "toeplitz_quadratic_form", "circulant_product", "lu_factor",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a (numerically) singular matrix."""


def _check_positive(name: str, value) -> None:
    """The package's one check of a positive finite real: a ValueError naming ``name``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _field_values(values) -> np.ndarray:
    """The package's one rule for the values of a grid function: a 1-D sequence, as complex."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1:
        raise ValueError("field values must be a 1-D sequence")
    return values


@functools.lru_cache(maxsize=16)
def _gauss_jacobi(q: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss rule for (1 + x)^b on [-1, 1], by Golub-Welsch;
    cached, so the arrays are read-only."""
    n = np.arange(1.0, q)
    s = 2.0 * n + b
    diagonal = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * n * (n + b) / (s * np.sqrt(s * s - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, -1))  # reads the lower half
    weights = 2.0 ** (b + 1.0) / (b + 1.0) * vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _cosine_moments(b: float, count: int, smooth=None) -> np.ndarray:
    """c_k = (1/pi) int_0^pi t^b g(t) cos(k t) dt, k < count, for g = ``smooth`` (1 if None),
    smooth on [0, pi] and called once on all nodes. 24-point Gauss rules on P = ceil(count / 8)
    panels: Gauss-Jacobi for the weight t^b on the first, Gauss-Legendre on the rest. Later
    panel p's node i is t = pi p / P + phi_i, with cos(k t) = Re(exp(i k phi_i) exp(i pi k p / P)),
    so their sum over p is one length-2P FFT per local node, periodic in k."""
    panels = max(-(-count // 8), 1)
    half = 0.5 * math.pi / panels  # half a panel's width
    (x, w), (x_later, w_later) = _gauss_jacobi(24, b), _gauss_jacobi(24, 0.0)
    later = 2.0 * np.arange(1, panels)[:, None] + 1.0 + x_later  # in units of half
    t = half * np.concatenate((1.0 + x, later.ravel()))
    terms = np.concatenate((half**b * w, np.tile(w_later, panels - 1) * t[x.size :] ** b))
    terms *= half / math.pi
    if smooth is not None:
        terms *= smooth(t)
    k = np.arange(count)
    moments = np.cos(np.outer(k, t[: x.size])) @ terms[: x.size]
    padded = np.zeros((2 * panels, x_later.size))
    padded[1:panels] = terms[x.size :].reshape(panels - 1, x_later.size)
    sums = np.fft.fft(padded, axis=0)[k % (2 * panels)]
    phase = np.outer(k, half * (1.0 + x_later))
    moments += np.sum(np.cos(phase) * sums.real + np.sin(phase) * sums.imag, axis=1)
    return moments


def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs without Bluestein's chirp:
    for each 3^b 5^c below the power of two >= n, the least power-of-two multiple >= n."""
    n = max(n, 1)
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def symmetric_toeplitz(column) -> np.ndarray:
    """The symmetric Toeplitz matrix T_ij = c_|i-j| with first column ``column``, as
    a read-only strided view of one 2n - 1 buffer: complex symmetric for a complex
    column, never Hermitian. Copy it to get a writable matrix."""
    c = np.asarray(column)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((c[:0:-1], c)), c.size)
    return windows[::-1]


def symmetric_toeplitz_spectrum(column: np.ndarray) -> np.ndarray:
    """Spectrum of the circulant embedding (c_0, ..., c_{n-1}, 0, ..., 0, c_{n-1}, ..., c_1).

    Real for a real column, as the Toeplitz matrix is then real symmetric;
    complex for a complex one. Of length ``fft_length(2n - 1)``, so
    ``circulant_product`` with it applies that matrix.
    """
    n = column.size
    embedding = np.zeros(fft_length(2 * n - 1), dtype=column.dtype)
    embedding[:n] = column
    embedding[embedding.size - n + 1 :] = column[:0:-1]
    spectrum = np.fft.fft(embedding)
    return spectrum.real if np.isrealobj(column) else spectrum


def toeplitz_quadratic_form(spectrum: np.ndarray, values: np.ndarray, scale: float):
    """scale Re(u^H T u) for each column u of ``values`` (shape (n,) or (n, k)).

    T is the real symmetric Toeplitz matrix whose circulant embedding has the
    real ``spectrum`` (``symmetric_toeplitz_spectrum``) of length L >= 2n - 1.
    By Parseval that is scale / L * sum_k spectrum_k |FFT_L(u)_k|^2, one FFT
    per column: the zero-padded u sees only the embedding's top-left block, T.
    Returns shape (k,), or a scalar for 1-D ``values``.
    """
    coeffs = np.fft.fft(values.T, spectrum.size)
    forms = (coeffs.real**2 + coeffs.imag**2) @ spectrum
    forms *= scale / spectrum.size
    return forms


def circulant_product(spectrum: np.ndarray, values: np.ndarray, sum_axis: int | None = None):
    """Leading entries of the circulant product ifft(spectrum * fft(values)) on the last axis.

    ``values`` is zero-padded to the spectrum's length L and broadcast against
    it; the result keeps values' last-axis length n. For L >= 2n - 1 and
    the spectrum of a circulant whose first column embeds a Toeplitz
    matrix, that is the Toeplitz product. ``sum_axis`` adds the products
    along that axis before the one inverse FFT.
    """
    product = spectrum * np.fft.fft(values, spectrum.shape[-1])
    if sum_axis is not None:
        product = product.sum(axis=sum_axis)
    return np.fft.ifft(product)[..., : values.shape[-1]]


def _gohberg_semencul_solve(spectra: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L(x) L(x)^T b - L(s) L(s)^T b) / x_0 for one right-hand side b of shape (n,)."""
    upper, lower = spectra
    return circulant_product(lower, circulant_product(upper, b), sum_axis=0)


def _gohberg_semencul_spectra(x: np.ndarray, length: int) -> np.ndarray:
    """The (2, 2, length) spectra ``_gohberg_semencul_solve`` applies for the generator x."""
    n = x.size
    generators = np.zeros((2, length), dtype=complex)
    generators[0, :n] = x
    generators[1, 1:n] = x[:0:-1]
    spectrum = np.fft.fft(generators)
    lower = spectrum / x[0]
    lower[1] *= -1.0
    return np.stack((spectrum[:, -np.arange(length)], lower))


# The Gohberg-Semencul inverse must solve a fixed probe p with a backward error
# (``_residual``) of at most this before solves are routed through it.
_GS_GATE_RTOL = 1e-13

# The generator x is refined until its backward error for e_1 (``_residual``) is
# at most this, rounding level for a residual formed by FFT, and then by one more
# correction; above that level each correction must reduce the residual.
_GS_ROUNDING = 8 * np.finfo(float).eps

# LAPACK's solve with an LU factor, called directly: scipy.linalg.lu_solve
# wraps the same call in checks that cost more than the solve on small grids
_GETRS = scipy.linalg.get_lapack_funcs("getrs", dtype=complex)


def _getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, info = _GETRS(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def _residual(spectrum: np.ndarray, norm: float, b: np.ndarray, y: np.ndarray):
    """b - A y and its normwise backward error |b - A y|_inf / (|A|_inf |y|_inf), for the
    Toeplitz A of circulant ``spectrum`` and largest row sum ``norm``: the one measure of
    both the generator and the probe solve."""
    r = b - circulant_product(spectrum, y)
    return r, float(np.max(np.abs(r)) / (norm * np.max(np.abs(y))))


@dataclass
class FactorizedSystem:
    """A complex matrix of order ``size`` and how ``solve`` applies its inverse.

    ``lu`` and ``piv`` are its complex128 LU factor with partial pivoting.

    ``spectra``, set by ``with_gohberg_semencul`` for a complex symmetric
    Toeplitz matrix, holds the FFT spectra of the Gohberg-Semencul
    generators, shape (2, 2, L): the transposed and the plain triangular
    factors, each for x and s. ``solve`` then applies A^{-1} with six FFTs;
    such a system keeps no LU factor (``lu`` and ``piv`` are None), only
    these O(size) spectra. ``residuals`` holds the generator's backward
    error |e_1 - A x|_inf / (|A|_inf |x|_inf), of the seed and after each
    correction.

    ``tau`` is the time step a midpoint matrix was built for
    (``stepper.build_system_matrix`` sets it), None for any other matrix.
    """

    lu: np.ndarray | None = field(repr=False)
    piv: np.ndarray | None = field(repr=False)
    size: int
    spectra: np.ndarray | None = field(default=None, repr=False)
    residuals: tuple[float, ...] = ()
    tau: float | None = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for one right-hand side b of shape (size,)."""
        b = np.asarray(b, dtype=complex)
        if b.shape != (self.size,):
            raise ValueError(f"right-hand side of shape {b.shape} is not one vector "
                             f"of the system size {self.size}")
        if self.spectra is not None:
            return _gohberg_semencul_solve(self.spectra, b)
        return _getrs(self.lu, self.piv, b)

    def with_gohberg_semencul(self, column: np.ndarray) -> "FactorizedSystem":
        """The complex symmetric Toeplitz matrix A with first column ``column``,
        solving by the Gohberg-Semencul formula, seeded by this factor.

        This system's LU factor is that of A's leading section of order
        m = ``size``, and A has order n = len(column) >= m. With
        x = A^{-1} e_1 and s = Z J x = (0, x_{n-1}, ..., x_1),
        A^{-1} = G(x) = (L(x) L(x)^T - L(s) L(s)^T) / x_0, where L(v) is
        lower triangular Toeplitz with first column v (Gohberg & Semencul
        1972). Each triangular product is a circulant product of length
        L >= 2n - 1, and L(v)^T takes the spectrum of v at negated
        frequencies.

        The seed is the section's A_m^{-1} e_1, one LU solve, padded with
        zeros to order n. Corrections x <- x + G(x)(e_1 - A x), with A x a
        circulant product with A's own spectrum, are Newton's iteration for
        the structured inverse: each about squares the error of x once it
        is small. Once the residual first reaches rounding level,
        _GS_ROUNDING, they make exactly one more correction and stop: on an
        ill-conditioned A the first generator at rounding level still
        carries its seed's error, and the solve and the gate's verdict
        would depend on the seed. A probe p solved by the formula must then
        have a backward error |p - A y|_inf / (|A|_inf |y|_inf), the measure
        of the generator's residuals, of at most _GS_GATE_RTOL. A generator
        with x_0 = 0, a residual above rounding level that a correction did
        not reduce, or a failed gate raises SingularMatrixError. The build
        makes no ``solve`` call; the system it returns keeps no LU, so it
        cannot seed another.
        """
        if self.lu is None:
            raise ValueError("this system keeps no LU factor to seed a generator from")
        m = self.size
        c = np.asarray(column, dtype=complex)
        if c.ndim != 1 or c.size < m:
            raise ValueError(
                f"column of shape {c.shape} does not extend the factored section of order {m}"
            )
        n = c.size
        spectrum = symmetric_toeplitz_spectrum(c)
        norm = 2.0 * float(np.sum(np.abs(c))) - abs(c[0])  # |A|_inf, the largest row sum
        residuals: list[float] = []

        def refuse(reason: str, residual: float, tol: float):
            history = ", ".join(f"{r:.2e}" for r in residuals)
            raise SingularMatrixError(
                f"Gohberg-Semencul inverse of order {n}: {reason}; residual {residual:.2e}, "
                f"tolerance {tol:.1e}, generator residuals [{history}]"
            )

        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        x = np.zeros(n, dtype=complex)
        x[:m] = _getrs(self.lu, self.piv, e1[:m])
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                r, residual = _residual(spectrum, norm, e1, x)
                residuals.append(residual)
                if x[0] == 0.0:
                    refuse("x_0 = A^{-1}[0, 0] is zero", residuals[-1], _GS_ROUNDING)
                spectra = _gohberg_semencul_spectra(x, spectrum.size)
                if residuals[-1] <= _GS_ROUNDING:
                    # the one correction past the first residual at rounding level is made
                    if len(residuals) > 1 and residuals[-2] <= _GS_ROUNDING:
                        break
                # a NaN residual compares false, so it stops here too
                elif len(residuals) > 1 and not residuals[-1] < residuals[-2]:
                    refuse("a correction stops reducing the residual short of rounding level",
                           residuals[-1], _GS_ROUNDING)
                x = x + _gohberg_semencul_solve(spectra, r)
        probe = np.random.default_rng(0).standard_normal((2, n))
        probe = probe[0] + 1j * probe[1]
        _, gate = _residual(spectrum, norm, probe, _gohberg_semencul_solve(spectra, probe))
        if not gate <= _GS_GATE_RTOL:
            refuse("the probe solve fails the gate", gate, _GS_GATE_RTOL)
        return dataclasses.replace(
            self, lu=None, piv=None, size=n, spectra=spectra, residuals=tuple(residuals)
        )


_PIVOT_FLOOR = 1e-300


def lu_factor(a: np.ndarray) -> FactorizedSystem:
    """LU-factorize a square matrix in complex128, in a fresh copy: ``a`` is left intact."""
    a = np.array(a, dtype=complex, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor expects a square matrix")
    with warnings.catch_warnings():
        # singularity is detected on the pivots below and raised as an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=True)
    if a.shape[0] and float(np.min(np.abs(np.diag(lu)))) < _PIVOT_FLOOR:
        raise SingularMatrixError("matrix is numerically singular (pivot below 1e-300)")
    return FactorizedSystem(lu=lu, piv=piv, size=a.shape[0])
