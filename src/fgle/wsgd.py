"""Weighted-shifted Grunwald discretization of the 1-D fractional Laplacian.

Builds the second-order weight sequence for fractional order alpha in
(1, 2], assembles the symmetric Toeplitz operator on the interior nodes of a
truncated interval (zero extension outside), stored as its first column, and
evaluates the Fourier-symbol functions used to verify the operator's spectral
bounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import symmetric_toeplitz, symmetric_toeplitz_spectrum, toeplitz_quadratic_form

__all__ = [
    "WsgdWeights",
    "OperatorMatrix",
    "PropertyCheck",
    "WeightPropertyReport",
    "LEADING_PAIR_ALPHA_THRESHOLD",
    "grunwald_coeffs",
    "wsgd_weights",
    "check_weight_properties",
    "assemble_operator",
    "h_function",
    "symbol_f",
    "c_alpha",
]


def _check_alpha(alpha: float) -> float:
    """The package's one check of the fractional order: alpha as a float, in (1, 2]."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    return float(alpha)


def _check_count(name: str, value, least: int) -> None:
    """The package's one check of a count: an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_angles(name: str, values) -> np.ndarray:
    """The package's one check of angles: ``values`` as floats in [0, pi], to 1e-12."""
    angles = np.asarray(values, dtype=float)
    if not np.all((angles >= -1e-12) & (angles <= math.pi + 1e-12)):
        raise ValueError(f"{name} must lie in [0, pi]")
    return angles


# Sign threshold of the leading partial sum w_0 + w_1 = lambda_1 (1 - alpha)
# + lambda_0: positive for alpha below sqrt(6) - 1 (the root of
# a^3 + 4 a^2 - a - 10 in (1, 2)), negative above. All later partial sums
# are strictly negative on the whole range, so this is the one exception to
# the otherwise uniform sign pattern of the weight sequence.
LEADING_PAIR_ALPHA_THRESHOLD = math.sqrt(6.0) - 1.0


def grunwald_coeffs(alpha: float, L: int) -> np.ndarray:
    """Power-series coefficients g_0..g_L of (1 - z)^alpha.

    Uses the two-term recursion g_0 = 1, g_l = (1 - (alpha+1)/l) g_{l-1}.
    For alpha = 2 the factor vanishes at l = 3, so the tail is exactly zero.
    """
    alpha = _check_alpha(alpha)
    _check_count("L", L, 2)
    l = np.arange(1, L + 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((l - alpha - 1.0) / l)))


def _lambdas(alpha: float) -> tuple[float, float, float]:
    return (
        (alpha * alpha + 3.0 * alpha + 2.0) / 12.0,
        (4.0 - alpha * alpha) / 6.0,
        (alpha * alpha - 3.0 * alpha + 2.0) / 12.0,
    )


@dataclass
class WsgdWeights:
    """The weight sequence w_0..w_L for order alpha.

    w combines three shifted Grunwald expansions (g from ``grunwald_coeffs``,
    the shift weights lambda_1, lambda_0, lambda_-1 from ``_lambdas``):
        w_0 = lambda_1 g_0
        w_1 = lambda_1 g_1 + lambda_0 g_0
        w_l = lambda_1 g_l + lambda_0 g_{l-1} + lambda_-1 g_{l-2},  l >= 2
    """

    alpha: float
    w: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        """Largest retained index L (w has L + 1 entries)."""
        return self.w.size - 1


def wsgd_weights(alpha: float, L: int) -> WsgdWeights:
    """Weight sequence w_0..w_L of the second-order shifted-average operator."""
    alpha = _check_alpha(alpha)
    g = grunwald_coeffs(alpha, L)
    l1, l0, lm1 = _lambdas(alpha)
    w = l1 * g
    w[1:] += l0 * g[:-1]
    w[2:] += lm1 * g[:-2]
    return WsgdWeights(alpha=alpha, w=w)


@dataclass
class PropertyCheck:
    """One weight property: whether it holds, by how much, and whether it is
    expected to hold at this alpha (``check_weight_properties`` decides)."""

    name: str
    passed: bool
    margin: float
    expected: bool = True


@dataclass
class WeightPropertyReport:
    alpha: float
    length: int
    checks: list[PropertyCheck]
    total_sum: float
    tail_bound: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _tail_sum_bound(weights: WsgdWeights) -> float:
    """Empirical bound on |sum_{l>L} w_l|, from the 4L terms w_{L+1}..w_{5L}.

    The continuation terms decay like l^(-1-alpha); twice their sum safely
    covers the remainder beyond index 5L for every alpha in (1, 2].
    """
    L = weights.length
    return 2.0 * float(np.sum(wsgd_weights(weights.alpha, 5 * L).w[L + 1 :]))


def check_weight_properties(weights: WsgdWeights) -> WeightPropertyReport:
    """Evaluate the sign pattern and partial-sum inequalities of the weights.

    For 1 < alpha < 2 the inequalities are checked strictly; at alpha = 2 the
    tail of the sequence is exactly zero and the non-strict forms apply.
    The truncated total sum must be negative (zero at alpha = 2) and no
    larger in magnitude than the empirical tail bound.

    The partial-sum condition is reported in two parts because the leading
    one genuinely changes sign: ``leading_pair_sum_negative`` (w_0 + w_1 < 0)
    only holds for alpha above LEADING_PAIR_ALPHA_THRESHOLD, while
    ``partial_sums_negative`` (all sums from index 2 on) holds on the whole
    range. Each check records that as its ``expected`` status; ``passed``
    and the report's ``passed`` state the literal property alone.
    """
    w = weights.w
    if w.size < 4:
        raise ValueError("property report needs at least w_0..w_3")
    strict = weights.alpha < 2.0

    def ok(margin: float) -> bool:
        return margin > 0.0 if strict else margin >= 0.0

    partial = np.cumsum(w)
    total = float(partial[-1])
    tail_bound = _tail_sum_bound(weights)

    checks = [
        PropertyCheck("w0_positive", ok(w[0]), float(w[0])),
        PropertyCheck("w1_negative", ok(-w[1]), float(-w[1])),
        PropertyCheck("later_weights_positive", ok(np.min(w[3:])), float(np.min(w[3:]))),
        PropertyCheck("w0_plus_w2_positive", ok(w[0] + w[2]), float(w[0] + w[2])),
        PropertyCheck(
            "leading_pair_sum_negative",
            ok(-partial[1]),
            float(-partial[1]),
            expected=weights.alpha > LEADING_PAIR_ALPHA_THRESHOLD,
        ),
        PropertyCheck(
            "partial_sums_negative",
            ok(-np.max(partial[2:])),
            float(-np.max(partial[2:])),
        ),
        PropertyCheck(
            "total_sum_within_tail",
            ok(-total) and abs(total) <= max(tail_bound, 0.0),
            tail_bound - abs(total),
        ),
    ]
    return WeightPropertyReport(
        alpha=weights.alpha,
        length=weights.length,
        checks=checks,
        total_sum=total,
        tail_bound=tail_bound,
    )


@dataclass
class OperatorMatrix:
    """Symmetric Toeplitz C with  Delta_h^alpha u = h^(-alpha) C u, stored as its first column."""

    alpha: float
    column: np.ndarray = field(repr=False)

    @property
    def C(self) -> np.ndarray:
        """Dense C, O(M^2) memory, read by tests and ``bench/tracer.py``, never by the package."""
        return symmetric_toeplitz(self.column).copy()

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Spectrum of C's circulant embedding.

        Computed once, so a sweep sharing the operator shares it.
        """
        return symmetric_toeplitz_spectrum(self.column)

    def quadratic_form(self, values: np.ndarray, h: float) -> np.ndarray | float:
        """(Delta_h u, u)_h = h^(1-alpha) Re(u^H C u) per column; a float for 1-D u.

        One FFT per column, by Parseval (``linalg.toeplitz_quadratic_form``).
        """
        u = np.asarray(values, dtype=complex)
        forms = toeplitz_quadratic_form(self._spectrum, u, h ** (1.0 - self.alpha))
        return forms if u.ndim > 1 else float(forms)


def _check_operator(operator: OperatorMatrix, alpha: float, M: int) -> None:
    """The package's one check that ``operator`` is the one for order alpha on M cells."""
    if operator.column.size != M - 1 or operator.alpha != alpha:
        raise ValueError(
            f"operator for alpha = {operator.alpha}, M = {operator.column.size + 1} "
            f"does not match alpha = {alpha}, M = {M}"
        )


def assemble_operator(weights: WsgdWeights, M: int) -> OperatorMatrix:
    """Assemble C = (W + W^T) / (2 cos(alpha pi / 2)) on the M-1 interior nodes.

    W is Toeplitz with first column (w_1, ..., w_{M-1}) and first row
    (w_1, w_0, 0, ..., 0), so C is symmetric Toeplitz with first column
    (2 w_1, w_0 + w_2, w_3, ..., w_{M-1}) / (2 cos(alpha pi / 2)), the only part
    stored. C is positive definite for alpha in (1, 2]: ``fgle verify`` matches this column
    to the symbol, whose range holds C's eigenvalues, and samples that range as positive.
    """
    _check_count("M", M, 3)
    w = weights.w
    if w.size < M:
        raise ValueError(f"need weights w_0..w_{M - 1}, got only {w.size} entries")
    column = np.concatenate(([2.0 * w[1], w[0] + w[2]], w[3:M]))
    column /= 2.0 * math.cos(weights.alpha * math.pi / 2.0)
    return OperatorMatrix(alpha=weights.alpha, column=column)


def h_function(alpha: float, omega) -> np.ndarray | float:
    """Angular factor of the operator symbol on omega in [0, pi].

    Nondecreasing in omega, with value cos(alpha pi / 2) at 0 and
    (1 - alpha^2)/3 at pi; identically -1 for alpha = 2.
    """
    alpha = _check_alpha(alpha)
    om = _check_angles("omega", omega)
    l1, l0, lm1 = _lambdas(alpha)
    base = (alpha / 2.0) * (om - math.pi)
    val = l1 * np.cos(base - om) + l0 * np.cos(base) + lm1 * np.cos(base + om)
    return val if val.ndim else float(val)


def symbol_f(alpha: float, theta) -> np.ndarray | float:
    """Operator symbol (2 sin(theta/2))^alpha / cos(alpha pi / 2) * h(alpha, theta)
    at scaled frequencies theta = h k in [0, pi], in closed form.

    It is the limit L -> infinity of the weights' cosine series
    1/cos(alpha pi/2) * sum_{l<=L} w_l cos((l-1) theta), whose gap decays like
    L^(-alpha). theta may be a scalar, which gives a float, or an array,
    which gives an array of its shape.
    """
    alpha = _check_alpha(alpha)
    th = _check_angles("theta", theta)
    cos_half = math.cos(alpha * math.pi / 2.0)
    closed = (2.0 * np.sin(th / 2.0)) ** alpha / cos_half * h_function(alpha, th)
    return closed if th.ndim else float(closed)


def c_alpha(alpha: float) -> float:
    """Lower spectral-equivalence constant 2^alpha (1-alpha^2) / (3 pi^alpha cos(alpha pi/2)).

    Strictly positive on (1, 2]: both 1 - alpha^2 and cos(alpha pi / 2) are
    negative there.
    """
    alpha = _check_alpha(alpha)
    return 2.0**alpha * (1.0 - alpha * alpha) / (3.0 * math.pi**alpha * math.cos(alpha * math.pi / 2.0))
