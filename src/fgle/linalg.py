"""Grid functions and their norms, the LU factorization, Gauss-Jacobi rules, and the
FFT products behind the Toeplitz operator and the Gohberg-Semencul solve. The one
symmetric Toeplitz quadratic form, ``toeplitz_quadratic_form``, serves both
the operator's energy (Delta_h u, u)_h and the H^sigma_h seminorm.

A symmetric Toeplitz matrix is also centrosymmetric (J A J = A, J the
exchange matrix), so an even/odd change of basis splits it into two blocks
of half its order (Cantoni & Butler 1976); ``toeplitz_half_blocks`` builds
them in single precision and ``lu_factor`` factors them in place. That
factor only seeds ``FactorizedSystem.with_gohberg_semencul``, which refines
the Gohberg-Semencul generator to double precision with the formula itself.

Grid functions live on the interior nodes of a uniform mesh and are
implicitly extended by zero outside. All norms carry the mesh weight h.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a (numerically) singular matrix."""


def _check_positive(name: str, value) -> None:
    """The package's one check of a positive finite real: a ValueError naming ``name``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
        _check_positive("grid spacing h", self.h)

    def __len__(self) -> int:
        return self.values.size


def _check_spacing(h: float, other: float) -> None:
    """The package's one rule that two grid functions share a spacing: h equal, exactly."""
    if h != other:
        raise ValueError(f"field spacings differ: {h} vs {other}")


def _check_pair(u: ComplexField, v: ComplexField) -> None:
    """The package's one check that two fields share a grid: same length and spacing."""
    if len(u) != len(v):
        raise ValueError(f"field lengths differ: {len(u)} vs {len(v)}")
    _check_spacing(u.h, v.h)


def l2_h(u: ComplexField) -> float:
    return math.sqrt(u.h * float(np.sum(np.abs(u.values) ** 2)))


def linf_h(u: ComplexField) -> float:
    return float(np.max(np.abs(u.values)))


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


def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs without Bluestein's chirp."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


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


def toeplitz_half_blocks(column: np.ndarray) -> np.ndarray:
    """The two half-order blocks of the symmetric Toeplitz matrix with first
    column ``column / max|column|``, in complex64.

    For order n and k = ceil(n/2), returns a (2, k, k) stack of S = T + H
    and D = T - H, with T_ij = c_|i-j| and H_ij = c_(n-1-i-j) for i, j < k.
    For odd n the middle column of S is halved, and D, whose last row and
    column are then zero, gets a unit diagonal entry there. A y = b is then
    S v = ((b + Jb)/2)[:k] and D w = ((b - Jb)/2)[:k], with
    y[:k] = v + w and y[k:] = (v - w)[:n-k] reversed. Both blocks are
    filled from strided views of the column, with no other k x k array,
    into one buffer whose blocks are F-contiguous, so ``lu_factor`` factors
    them in place. The scaling keeps every entry within 2, so none
    overflows single precision; the factor only seeds
    ``FactorizedSystem.with_gohberg_semencul``, which undoes it.
    """
    c = np.asarray(column, dtype=complex)
    scale = np.max(np.abs(c), initial=0.0)
    c = (c / scale if scale > 0 else c).astype(np.complex64)
    n = c.size
    k = (n + 1) // 2
    toeplitz = symmetric_toeplitz(c[:k])
    hankel = np.lib.stride_tricks.sliding_window_view(c[::-1][: 2 * k - 1], k)
    # T and H are symmetric, so each C-ordered buffer block holds S^T or D^T
    blocks = np.empty((2, k, k), dtype=np.complex64)
    np.add(toeplitz, hankel, out=blocks[0])
    np.subtract(toeplitz, hankel, out=blocks[1])
    if n % 2:
        blocks[0, k - 1] *= 0.5
        blocks[1, k - 1, k - 1] = 1.0
    return blocks.transpose(0, 2, 1)


def _gohberg_semencul_solve(spectra: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L(x) L(x)^T b - L(s) L(s)^T b) / x_0 for b of shape (n,) or (n, k)."""
    upper, lower = spectra
    rows = b.T
    t = circulant_product(upper, rows)
    return circulant_product(lower, t, sum_axis=0).reshape(rows.shape).T


def _gohberg_semencul_spectra(x: np.ndarray, length: int) -> np.ndarray:
    """The (2, 2, 1, length) spectra ``_gohberg_semencul_solve`` applies for the generator x."""
    n = x.size
    generators = np.zeros((2, length), dtype=complex)
    generators[0, :n] = x
    generators[1, 1:n] = x[:0:-1]
    spectrum = np.fft.fft(generators)
    lower = spectrum / x[0]
    lower[1] *= -1.0
    return np.stack((spectrum[:, -np.arange(length)], lower))[:, :, None, :]


# The Gohberg-Semencul inverse must solve a fixed probe p with a relative
# max-norm residual p - A y of at most this before solves are routed through it.
_GS_GATE_RTOL = 1e-12

# The generator x is refined until |e_1 - A x|_inf <= _GS_ROUNDING |A|_inf |x|_inf,
# rounding level for a residual formed by FFT, with at most _GS_MAX_CORRECTIONS
# corrections: each about squares the error, so two take a single-precision seed there.
_GS_ROUNDING = 8 * np.finfo(float).eps
_GS_MAX_CORRECTIONS = 3

# LAPACK's solve with an LU factor, called directly: scipy.linalg.lu_solve
# wraps the same call in checks that cost more than the solve on small grids
_GETRS = {
    np.dtype(dtype): scipy.linalg.get_lapack_funcs("getrs", dtype=dtype)
    for dtype in (np.complex64, np.complex128)
}


def _getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, info = _GETRS[lu.dtype](lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


@dataclass
class FactorizedSystem:
    """LU factorization (with partial pivoting) of a complex matrix of order ``size``.

    ``lu`` is the dense factor; for the midpoint matrix on small grids it is
    the buffer A was built in, overwritten by the factorization. A (2, k, k)
    ``lu`` with (2, k) ``piv`` is instead the factor of the two half blocks
    of a symmetric Toeplitz matrix of order ``size`` (``toeplitz_half_blocks``):
    the LU solve then solves with each block and recombines the halves.
    A complex64 factor only seeds ``with_gohberg_semencul``; without
    ``spectra`` it refuses to solve, so no solve answers in single precision.

    ``spectra``, set by ``with_gohberg_semencul`` for a complex symmetric
    Toeplitz matrix, holds the FFT spectra of the Gohberg-Semencul
    generators, shape (2, 2, 1, L): the transposed and the plain triangular
    factors, each for x and s. ``solve`` then applies A^{-1} with six FFTs
    and leaves the LU factor alone. ``residuals`` holds the generator's
    relative residual |e_1 - A x|_inf / (|A|_inf |x|_inf), of the seed and
    after each correction.

    ``tau`` is the time step a midpoint matrix was built for
    (``stepper.build_system_matrix`` sets it), None for any other matrix.
    """

    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    size: int
    spectra: np.ndarray | None = field(default=None, repr=False)
    residuals: tuple[float, ...] = ()
    tau: float | None = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for b of shape (size,) or (size, k)."""
        b = np.asarray(b, dtype=complex)
        if b.shape[0] != self.size:
            raise ValueError(f"right-hand side length {b.shape[0]} != system size {self.size}")
        if self.spectra is not None:
            return _gohberg_semencul_solve(self.spectra, b)
        if self.lu.dtype != complex:
            raise ValueError(
                "a single-precision factor only seeds the Gohberg-Semencul inverse; "
                "solve with with_gohberg_semencul(column)"
            )
        return self._lu_solve(b)

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        if self.lu.ndim == 2:
            return _getrs(self.lu, self.piv, b)
        k = self.lu.shape[1]
        head, tail = b[:k], b[::-1][:k]
        v = _getrs(self.lu[0], self.piv[0], 0.5 * (head + tail))
        w = _getrs(self.lu[1], self.piv[1], 0.5 * (head - tail))
        return np.concatenate((v + w, (v - w)[: self.size - k][::-1]))

    def with_gohberg_semencul(self, column: np.ndarray) -> "FactorizedSystem":
        """This system solving by the Gohberg-Semencul formula, its generator refined to double.

        The factor is that of the complex symmetric Toeplitz matrix A with
        first column ``column``, or of a nonzero multiple of A, in complex64
        (``toeplitz_half_blocks``) or complex128. With x = A^{-1} e_1 and
        s = Z J x = (0, x_{n-1}, ..., x_1),
        A^{-1} = G(x) = (L(x) L(x)^T - L(s) L(s)^T) / x_0, where L(v) is
        lower triangular Toeplitz with first column v (Gohberg & Semencul
        1972). Each triangular product is a circulant product of length
        L >= 2n - 1, and L(v)^T takes the spectrum of v at negated
        frequencies.

        One LU solve seeds x, rescaled so that (A x)_0 = 1, which undoes the
        factored multiple. Corrections x <- x + G(x)(e_1 - A x), with A x a
        circulant product with A's own spectrum, each about square the error
        of x (mixed-precision refinement, Carson & Higham 2018). They stop at
        rounding level, _GS_ROUNDING. A probe p solved by the formula must
        then leave a relative residual |p - A y|_inf <= _GS_GATE_RTOL |p|_inf.
        A seed with x_0 = 0, corrections that stall short of rounding level
        or a failed gate raise SingularMatrixError. The build makes no
        ``solve`` call.
        """
        n = self.size
        c = np.asarray(column, dtype=complex)
        if c.shape != (n,):
            raise ValueError(f"column of shape {c.shape} does not match system size {n}")
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
        x = self._lu_solve(e1.astype(self.lu.dtype)).astype(complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            x /= circulant_product(spectrum, x)[0]
            while True:
                r = e1 - circulant_product(spectrum, x)
                residuals.append(float(np.max(np.abs(r)) / (norm * np.max(np.abs(x)))))
                if x[0] == 0.0:
                    refuse("x_0 = A^{-1}[0, 0] is zero", residuals[-1], _GS_ROUNDING)
                spectra = _gohberg_semencul_spectra(x, spectrum.size)
                if residuals[-1] <= _GS_ROUNDING:
                    break
                if len(residuals) > _GS_MAX_CORRECTIONS:
                    refuse(
                        f"{_GS_MAX_CORRECTIONS} corrections stall short of rounding level",
                        residuals[-1],
                        _GS_ROUNDING,
                    )
                x = x + _gohberg_semencul_solve(spectra, r)
        probe = np.random.default_rng(0).standard_normal((2, n))
        probe = probe[0] + 1j * probe[1]
        y = _gohberg_semencul_solve(spectra, probe)
        gate = np.max(np.abs(probe - circulant_product(spectrum, y))) / np.max(np.abs(probe))
        if not gate <= _GS_GATE_RTOL:
            refuse("the probe solve fails the gate", gate, _GS_GATE_RTOL)
        return dataclasses.replace(self, spectra=spectra, residuals=tuple(residuals))


_PIVOT_FLOOR = 1e-300


def _factor_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factor and pivots of a square ``a``; an F-contiguous ``a`` becomes the factor."""
    with warnings.catch_warnings():
        # singularity is detected on the pivots below and raised as an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=True)
    if a.shape[0] and float(np.min(np.abs(np.diag(lu)))) < _PIVOT_FLOOR:
        raise SingularMatrixError("matrix is numerically singular (pivot below 1e-300)")
    return lu, piv


def lu_factor(a: np.ndarray, size: int | None = None) -> FactorizedSystem:
    """LU-factorize a square matrix, or the half blocks of a symmetric Toeplitz matrix.

    The factor is complex64 for a complex64 ``a`` and complex128 otherwise.
    An F-contiguous ``a`` of that type becomes the factor itself, so no
    second dense buffer is made, and must not be read after; any other input
    is copied first and left intact. A (2, k, k) ``a`` is the stack
    ``toeplitz_half_blocks`` makes for a matrix of order ``size``, 2k - 1 or
    2k: both blocks are factored, in place if each is F-contiguous, and the
    system solves with that matrix. A complex64 factor solves only through
    ``FactorizedSystem.with_gohberg_semencul``.
    """
    a = np.asarray(a)
    a = a if a.dtype == np.complex64 else a.astype(complex, copy=False)
    if a.ndim == 3:
        k = a.shape[1]
        if a.shape != (2, k, k) or size not in (2 * k - 1, 2 * k):
            raise ValueError(f"half blocks of shape {a.shape} do not split an order {size}")
        a = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
        piv = np.stack([_factor_in_place(block)[1] for block in a])
        return FactorizedSystem(lu=a, piv=piv, size=size)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or size not in (None, a.shape[0]):
        raise ValueError("lu_factor expects a square matrix")
    lu, piv = _factor_in_place(a)
    return FactorizedSystem(lu=lu, piv=piv, size=a.shape[0])
