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
