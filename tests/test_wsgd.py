"""Coefficient, operator and symbol-function checks for the fractional
Laplacian discretization."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fgle.linalg import ComplexField, circulant_product, symmetric_toeplitz_spectrum
from fgle.wsgd import (
    LEADING_PAIR_ALPHA_THRESHOLD,
    WsgdWeights,
    _lambdas,
    assemble_operator,
    c_alpha,
    check_weight_properties,
    grunwald_coeffs,
    h_function,
    symbol_f,
    wsgd_weights,
)
from oracles import apply_fractional_laplacian, symbol_series

ALPHAS = (1.1, 1.5, 1.9, 2.0)
EPS = np.finfo(float).eps
# near alpha = 1, where 1 / cos(alpha pi / 2) blows up, and two ordinary orders
NEAR_ONE = (1 + 1e-4, 1 + 1e-5, 1 + 1e-7, 1 + 1e-9, 1.5, 2.0)
# the exact rational values of 61 float alphas spread over (1, 2] and of four near 1
RATIONAL_ALPHAS = [Fraction(1 + k / 61) for k in range(1, 62)] + [Fraction(a) for a in NEAR_ONE[:4]]


def binom_coeff(alpha, l):
    """Independent oracle: (-1)^l C(alpha, l) as an explicit product."""
    out = 1.0
    for i in range(1, l + 1):
        out *= -(alpha - i + 1) / i
    return out


def exact_lambdas(a):
    """The shift weights in the paper's expanded form, for a Fraction or an mpmath number."""
    return (a * a + 3 * a + 2) / 12, (4 - a * a) / 6, (a * a - 3 * a + 2) / 12


def exact_weights(a, L):
    """g_0..g_L and w_0..w_L by their defining recursions, in the arithmetic of ``a``."""
    g = [a**0]
    for l in range(1, L + 1):
        g.append(g[-1] * (l - a - 1) / l)
    l1, l0, lm1 = exact_lambdas(a)
    w = [l1 * g[0], l1 * g[1] + l0 * g[0]]
    w += [l1 * g[l] + l0 * g[l - 1] + lm1 * g[l - 2] for l in range(2, L + 1)]
    return g, w


def exact_partial_g(a, L):
    """G_0..G_L, G_l = prod_{j<=l} (1 - a/j)."""
    G = [a**0]
    for j in range(1, L + 1):
        G.append(G[-1] * (1 - a / j))
    return G


def bracket(a, l, shift):
    """B_l (shift 0), with P_l = G_(l-2) B_l, or B'_l (shift 1), with w_l = g_(l-2) B'_l."""
    l1, l0, lm1 = exact_lambdas(a)
    b = a + shift
    return l1 * (1 - b / (l - 1)) * (1 - b / l) + l0 * (1 - b / (l - 1)) + lm1


class TestGrunwaldCoeffs:
    def test_alpha2_binomial(self):
        assert grunwald_coeffs(2.0, 4).tolist() == [1.0, -2.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_g1_is_minus_alpha(self, alpha):
        assert grunwald_coeffs(alpha, 2)[1] == pytest.approx(-alpha, abs=0)

    def test_g2_closed_form(self):
        # alpha (alpha - 1) / 2 evaluated independently of the recursion
        assert grunwald_coeffs(1.5, 2)[2] == pytest.approx(0.375, rel=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_recursion_matches_product_formula(self, alpha):
        g = grunwald_coeffs(alpha, 64)
        for l in range(65):
            expected = binom_coeff(alpha, l)
            assert g[l] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha", (0.9, 1.0, 2.0001, -1.0))
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            grunwald_coeffs(alpha, 4)

    def test_short_length_rejected(self):
        with pytest.raises(ValueError, match="L"):
            grunwald_coeffs(1.5, 1)

    @pytest.mark.parametrize("L", (10.5, 2.0, True))
    def test_non_integer_length_rejected(self, L):
        # the check GridSpec makes for M; wsgd_weights inherits it
        message = re.escape(f"L must be an integer >= 2, got {L!r}")
        for call in (grunwald_coeffs, wsgd_weights):
            with pytest.raises(ValueError, match=message):
                call(1.5, L)


class TestWsgdWeights:
    def test_alpha2_reduces_to_three_point_stencil(self):
        w = wsgd_weights(2.0, 4)
        assert _lambdas(2.0) == (1.0, 0.0, 0.0)
        assert w.w.tolist() == [1.0, -2.0, 1.0, 0.0, 0.0]

    def test_lambdas_match_rational_arithmetic(self):
        # shift weights evaluated with exact fractions at alpha = 3/2
        a = Fraction(3, 2)
        lambda1, lambda0, lambda_m1 = _lambdas(1.5)
        assert lambda1 == pytest.approx(float((a * a + 3 * a + 2) / 12), rel=1e-15)
        assert lambda0 == pytest.approx(float((4 - a * a) / 6), rel=1e-15)
        assert lambda_m1 == pytest.approx(float((a * a - 3 * a + 2) / 12), rel=1e-15)
        assert lambda1 == pytest.approx(35 / 48)
        assert lambda0 == pytest.approx(7 / 24)
        assert lambda_m1 == pytest.approx(-1 / 48)

    def test_w1_symbolic(self):
        w = wsgd_weights(1.5, 2)
        lambda1, lambda0, _ = _lambdas(1.5)
        assert w.w[1] == pytest.approx(lambda1 * (-1.5) + lambda0, rel=1e-15)

    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_w_combines_shifted_g(self, alpha):
        w = wsgd_weights(alpha, 16)
        g = grunwald_coeffs(alpha, 16)
        lambda1, lambda0, lambda_m1 = _lambdas(alpha)
        assert w.w[0] == pytest.approx(lambda1 * g[0], rel=1e-15)
        for l in range(2, 17):
            expected = lambda1 * g[l] + lambda0 * g[l - 1] + lambda_m1 * g[l - 2]
            assert w.w[l] == pytest.approx(expected, rel=1e-14, abs=1e-300)


class TestWeightProperties:
    def test_alpha_15_all_pass(self):
        report = check_weight_properties(wsgd_weights(1.5, 2048))
        assert report.passed, report.failures()

    def test_alpha2_degenerate(self):
        w = wsgd_weights(2.0, 8)
        assert np.all(w.w[3:] == 0.0)
        partial = np.cumsum(w.w)
        assert partial[1] == -1.0
        assert partial[2] == 0.0
        report = check_weight_properties(w)
        assert report.passed, report.failures()
        assert all(c.expected for c in report.checks)
        assert report.total_sum == 0.0

    def test_total_sum_shrinks_with_length(self):
        small = check_weight_properties(wsgd_weights(1.1, 64))
        large = check_weight_properties(wsgd_weights(1.1, 4096))
        assert abs(large.total_sum) < abs(small.total_sum)

    @pytest.mark.parametrize("alpha", np.linspace(1.05, 1.95, 20).round(4).tolist())
    def test_sign_pattern_sampled_alphas(self, alpha):
        """Everything except the leading pair sum holds strictly on (1, 2);
        the leading pair w0 + w1 provably flips sign at sqrt(6) - 1."""
        report = check_weight_properties(wsgd_weights(float(alpha), 2048))
        expected_failures = [] if alpha > LEADING_PAIR_ALPHA_THRESHOLD else [
            "leading_pair_sum_negative"
        ]
        assert report.failures() == expected_failures, (alpha, report.failures())
        # each check records the status it is expected to have
        assert [c.name for c in report.checks if not c.expected] == expected_failures

    @pytest.mark.parametrize("alpha", (1.1, 1.3, 1.44))
    def test_leading_pair_sum_positive_below_threshold(self, alpha):
        # w0 + w1 = lambda1 (1 - alpha) + lambda0, positive iff
        # alpha^3 + 4 alpha^2 - alpha - 10 < 0, i.e. alpha < sqrt(6) - 1
        w = wsgd_weights(alpha, 8)
        s1 = w.w[0] + w.w[1]
        lambda1, lambda0, _ = _lambdas(alpha)
        assert s1 == pytest.approx(lambda1 * (1 - alpha) + lambda0, rel=1e-14)
        assert s1 > 0
        assert alpha**3 + 4 * alpha**2 - alpha - 10 < 0

    def test_leading_pair_threshold_value(self):
        a = LEADING_PAIR_ALPHA_THRESHOLD
        assert a == pytest.approx(math.sqrt(6) - 1, abs=0)
        assert a**3 + 4 * a**2 - a - 10 == pytest.approx(0.0, abs=1e-13)

    def test_total_sum_negative_within_tail_bound(self):
        # tail_bound is the tail |sum_{l>L} w_l| = |P_L| plus rounding; here P_L is
        # exact, from the closed form lambda_1 G_L + lambda_0 G_(L-1) + lambda_-1 G_(L-2)
        a, L = Fraction(3, 2), 2048
        G = exact_partial_g(a, L)
        l1, l0, lm1 = exact_lambdas(a)
        tail = -(l1 * G[L] + l0 * G[L - 1] + lm1 * G[L - 2])
        report = check_weight_properties(wsgd_weights(1.5, L))
        assert -report.tail_bound < report.total_sum <= 0.0
        assert 0.0 < report.tail_bound - float(tail) <= 2e-15

    def test_tampered_weights_detected(self):
        w = wsgd_weights(1.5, 64)
        bad = WsgdWeights(w.alpha, w.w.copy())
        bad.w[0] = -bad.w[0]
        report = check_weight_properties(bad)
        assert not report.passed
        assert "w0_positive" in report.failures()


class TestClosedForms:
    """Every factorization the weight lemmas and the column rest on, in exact
    rational arithmetic, and the library's floats against them."""

    def test_shift_weights_and_column_head(self):
        for a in RATIONAL_ALPHAS:
            _, w = exact_weights(a, 2)
            l1, l0, lm1 = exact_lambdas(a)
            assert lm1 == (a - 1) * (a - 2) / 12
            assert 2 * w[1] == -(a - 1) * (a + 2) * (a + 4) / 6
            assert w[0] + w[2] == (a - 1) * (a**3 + 7 * a**2 + 10 * a - 8) / 24
            # each float shift weight within its few roundings of the exact value
            for value, exact in zip(_lambdas(float(a)), (l1, l0, lm1)):
                assert abs(Fraction(value) - exact) <= 2 * EPS * abs(exact)

    def test_brackets(self):
        for a in RATIONAL_ALPHAS:
            assert bracket(a, 3, 0) == (2 - a) * (a + 4) * (9 - 2 * a - a * a) / 72
            assert bracket(a, 4, 1) == (2 - a) ** 2 * (a + 5) ** 2 / 144

    def test_partial_sums_and_weights_factor(self):
        L = 40
        for a in RATIONAL_ALPHAS:
            g, w = exact_weights(a, L)
            G = exact_partial_g(a, L)
            assert list(itertools.accumulate(g)) == G
            partial = list(itertools.accumulate(w))
            assert all(partial[l] == G[l - 2] * bracket(a, l, 0) for l in range(3, L + 1))
            assert all(w[l] == g[l - 2] * bracket(a, l, 1) for l in range(4, L + 1))

    def test_brackets_nondecreasing(self):
        for a in RATIONAL_ALPHAS:
            lower = [bracket(a, l, 0) for l in range(3, 201)]
            weight = [bracket(a, l, 1) for l in range(4, 201)]
            assert all(x <= y for x, y in itertools.pairwise(lower))
            assert all(x <= y for x, y in itertools.pairwise(weight))

    def test_report_margins_are_the_closed_forms(self):
        # partial_sums_negative is min(-P_2, B_3), later_weights_positive min(w_3, B'_4),
        # to the rounding of sums of weights no larger than 1
        for a in RATIONAL_ALPHAS:
            _, w = exact_weights(a, 3)
            margins = {c.name: c.margin for c in check_weight_properties(wsgd_weights(float(a), 64)).checks}
            for name, exact in (("partial_sums_negative", min(-sum(w[:3]), bracket(a, 3, 0))),
                                ("later_weights_positive", min(w[3], bracket(a, 4, 1)))):
                assert abs(Fraction(margins[name]) - exact) <= 4 * EPS, (a, name)


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def mp_h(mp, alpha, omega):
    """h(alpha, omega) in the paper's form, at the working precision of ``mp``."""
    a, om = mp.mpf(alpha), mp.mpf(omega)
    l1, l0, lm1 = exact_lambdas(a)
    b = a * (om - mp.pi) / 2
    return l1 * mp.cos(b - om) + l0 * mp.cos(b) + lm1 * mp.cos(b + om)


class TestHighPrecisionOracle:
    """The column, h, the symbol and C_alpha against 40-digit mpmath, each to a few
    roundings, as alpha approaches 1, where cos(alpha pi / 2) vanishes."""

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_column(self, mp, alpha):
        M = 64
        _, w = exact_weights(mp.mpf(alpha), M)
        scale = 2 * mp.cos(mp.mpf(alpha) * mp.pi / 2)
        exact = np.array([float(x / scale) for x in [2 * w[1], w[0] + w[2], *w[3:M]]])
        column = assemble_operator(wsgd_weights(alpha, M), M).column
        assert np.max(np.abs(column - exact)) <= 4 * EPS * np.max(np.abs(exact))

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_h_function(self, mp, alpha):
        omega = np.linspace(0.0, math.pi, 65)
        exact = np.array([float(mp_h(mp, alpha, om)) for om in omega])
        assert np.all(np.abs(h_function(alpha, omega) - exact) <= 4 * EPS * np.abs(exact))

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_symbol_f(self, mp, alpha):
        theta = np.linspace(0.0, math.pi, 65)[1:]
        a = mp.mpf(alpha)
        exact = np.array([
            float((2 * mp.sin(mp.mpf(t) / 2)) ** a * mp_h(mp, alpha, t) / mp.cos(a * mp.pi / 2))
            for t in theta
        ])
        assert np.all(np.abs(symbol_f(alpha, theta) - exact) <= 4 * EPS * np.abs(exact))

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_c_alpha(self, mp, alpha):
        a = mp.mpf(alpha)
        exact = float(2**a * (1 - a * a) / (3 * mp.pi**a * mp.cos(a * mp.pi / 2)))
        assert abs(c_alpha(alpha) - exact) <= 4 * EPS * exact


class TestAssembleOperator:
    def test_alpha2_classical_laplacian_matrix(self):
        op = assemble_operator(wsgd_weights(2.0, 8), 8)
        expected = 2.0 * np.eye(7) - np.eye(7, k=1) - np.eye(7, k=-1)
        assert np.array_equal(op.C, expected)

    def test_symmetry_is_exact(self):
        op = assemble_operator(wsgd_weights(1.7, 32), 32)
        assert np.array_equal(op.C, op.C.T)

    def test_matches_impulse_response_oracle(self):
        # Brute-force evaluation of the double summation on each unit impulse
        alpha, M = 1.5, 6
        w = wsgd_weights(alpha, M + 1)
        op = assemble_operator(w, M)
        scale = 1.0 / (2.0 * math.cos(alpha * math.pi / 2.0))
        for col in range(M - 1):
            ext = np.zeros(M + 1)
            ext[col + 1] = 1.0
            for row in range(1, M):
                left = sum(w.w[l] * ext[row - l + 1] for l in range(0, row + 2))
                right = sum(w.w[l] * ext[row + l - 1] for l in range(0, M - row + 2))
                assert op.C[row - 1, col] == pytest.approx(
                    scale * (left + right), rel=1e-14, abs=1e-15
                )

    @pytest.mark.parametrize("alpha", (1.2, 1.6, 2.0))
    def test_positive_definite_on_random_vectors(self, alpha):
        rng = np.random.default_rng(7)
        op = assemble_operator(wsgd_weights(alpha, 24), 24)
        for _ in range(100):
            u = rng.standard_normal(23)
            assert u @ op.C @ u > 0.0

    def test_insufficient_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            assemble_operator(wsgd_weights(1.5, 4), 16)

    @pytest.mark.parametrize("M", (10.0, True, 2))
    def test_grid_size_must_be_an_integer(self, M):
        with pytest.raises(ValueError, match=re.escape(f"M must be an integer >= 3, got {M!r}")):
            assemble_operator(wsgd_weights(1.5, 16), M)

    @pytest.mark.parametrize("alpha", (1.1, 1.6, 2.0))
    @pytest.mark.parametrize("M", (3, 4, 64, 1280))
    def test_dense_c_matches_toeplitz_assembly(self, alpha, M):
        # The dense assembly through W: C = (W + W^T) / (2 cos(alpha pi / 2)), re-symmetrized.
        # Its 2 w_1 and w_0 + w_2 cancel O(1) terms, and dividing by cos(alpha pi / 2)
        # scales that rounding by 1 / |cos|: over 300 alphas in (1, 2] the gap to the
        # factored column was at most 3.0 eps / |cos|
        w = wsgd_weights(alpha, M)
        row = np.zeros(M - 1)
        row[:2] = w.w[1], w.w[0]
        W = scipy.linalg.toeplitz(w.w[1:M], row)
        cos_half = math.cos(alpha * math.pi / 2.0)
        C = (W + W.T) / (2.0 * cos_half)
        gap = np.max(np.abs(assemble_operator(w, M).C - (C + C.T) / 2.0))
        assert gap <= 4.0 * EPS / abs(cos_half)

    @settings(deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True),
        M=st.integers(3, 300),
        batch=st.sampled_from((None, 1, 2, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_match_dense_oracle(self, alpha, M, batch, seed):
        rng = np.random.default_rng(seed)
        shape = (M - 1,) if batch is None else (M - 1, batch)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = 32.0 / M
        op = assemble_operator(wsgd_weights(alpha, M), M)
        Cu = op.C @ u
        image = h**-alpha * circulant_product(symmetric_toeplitz_spectrum(op.column), u.T).T
        assert image.shape == u.shape
        assert np.max(np.abs(image - h**-alpha * Cu)) <= 1e-13 * np.max(np.abs(h**-alpha * Cu))
        dense = h ** (1.0 - alpha) * np.real(np.sum(np.conj(u) * Cu, axis=0))
        form = op.quadratic_form(u, h)
        assert np.shape(form) == np.shape(dense)
        assert np.all(np.abs(form - dense) <= 1e-13 * np.abs(dense))

    @settings(deadline=None, max_examples=5)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
    def test_products_match_dense_oracle_at_m_2560(self, alpha, seed):
        M, h = 2560, 32.0 / 2560
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((M - 1, 3)) + 1j * rng.standard_normal((M - 1, 3))
        op = assemble_operator(wsgd_weights(alpha, M), M)
        Cu = h**-alpha * (op.C @ u)
        spectrum = symmetric_toeplitz_spectrum(op.column)
        image = h**-alpha * circulant_product(spectrum, u.T).T
        assert np.max(np.abs(image - Cu)) <= 1e-13 * np.max(np.abs(Cu))
        image = h**-alpha * circulant_product(spectrum, u[:, 1])
        assert np.max(np.abs(image - Cu[:, 1])) <= 1e-13 * np.max(np.abs(Cu))
        dense = h * np.real(np.sum(np.conj(u) * Cu, axis=0))
        assert np.all(np.abs(op.quadratic_form(u, h) - dense) <= 1e-13 * np.abs(dense))


class TestApplyFractionalLaplacian:
    def test_alpha2_impulse_response(self):
        w = wsgd_weights(2.0, 10)
        u = ComplexField(np.zeros(8), h=1.0)
        u.values[4] = 1.0
        out = apply_fractional_laplacian(u, w)
        expected = np.zeros(8, dtype=complex)
        expected[4] = 2.0
        expected[3] = expected[5] = -1.0
        assert np.allclose(out.values, expected, atol=1e-15)

    def test_zero_maps_to_zero(self):
        w = wsgd_weights(1.5, 10)
        out = apply_fractional_laplacian(ComplexField(np.zeros(8), h=0.5), w)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("alpha", (1.3, 1.5, 1.9))
    def test_matches_matrix_route(self, alpha):
        rng = np.random.default_rng(3)
        M, h = 40, 0.25
        w = wsgd_weights(alpha, M + 1)
        op = assemble_operator(w, M)
        u = ComplexField(rng.standard_normal(M - 1) + 1j * rng.standard_normal(M - 1), h)
        direct = apply_fractional_laplacian(u, w).values
        via_matrix = h**-alpha * (op.C @ u.values)
        assert np.max(np.abs(direct - via_matrix)) <= 1e-13 * np.max(np.abs(via_matrix))

    def test_length_mismatch_rejected(self):
        w = wsgd_weights(1.5, 4)
        with pytest.raises(ValueError, match="weights"):
            apply_fractional_laplacian(ComplexField(np.zeros(8), h=1.0), w)


class TestSymbolFunctions:
    @pytest.mark.parametrize("alpha", (1.1, 1.4, 1.7, 2.0))
    def test_h_endpoints(self, alpha):
        assert h_function(alpha, 0.0) == pytest.approx(math.cos(alpha * math.pi / 2), abs=1e-14)
        assert h_function(alpha, math.pi) == pytest.approx((1 - alpha**2) / 3, abs=1e-14)

    def test_h_constant_for_alpha2(self):
        om = np.linspace(0, math.pi, 257)
        assert np.max(np.abs(h_function(2.0, om) + 1.0)) <= 1e-14

    @pytest.mark.parametrize("alpha", np.linspace(1.05, 2.0, 20).round(4).tolist())
    def test_h_nondecreasing(self, alpha):
        om = np.linspace(0, math.pi, 1000)
        vals = h_function(float(alpha), om)
        assert np.min(np.diff(vals)) >= -1e-12

    def test_h_domain(self):
        with pytest.raises(ValueError, match="omega"):
            h_function(1.5, -0.1)

    @pytest.mark.parametrize("omega", (math.nan, 4.0, [0.5, math.nan], [0.5, math.inf]))
    def test_h_rejects_nan_and_out_of_range(self, omega):
        with pytest.raises(ValueError, match="omega"):
            h_function(1.5, omega)

    def test_symbol_zero_at_origin(self):
        assert symbol_f(1.5, 0.0) == 0.0

    def test_symbol_alpha2_at_pi(self):
        assert symbol_f(2.0, math.pi) == pytest.approx(4.0, rel=1e-14)

    def test_symbol_array_matches_scalar_calls(self):
        theta = np.linspace(0.0, math.pi, 33)
        closed = symbol_f(1.7, theta)
        assert closed.shape == theta.shape
        for th, c in zip(theta, closed):
            scalar = symbol_f(1.7, float(th))
            assert isinstance(scalar, float)
            assert c == pytest.approx(scalar, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("theta", (-0.1, 4.0, math.nan, [0.5, 4.0], [0.5, math.nan]))
    def test_symbol_theta_domain(self, theta):
        with pytest.raises(ValueError, match="theta"):
            symbol_f(1.5, theta)

    @pytest.mark.parametrize("angle, end", [(-1e-13, 0.0), (math.pi + 1e-13, math.pi)],
                             ids=["below-0", "above-pi"])
    @pytest.mark.parametrize("function", [symbol_f, h_function], ids=["symbol_f", "h_function"])
    def test_angles_within_the_tolerance_clipped(self, function, angle, end):
        # under filterwarnings = error: (2 sin(theta/2))^alpha of a negative angle
        # was nan, with a RuntimeWarning
        assert function(1.5, angle) == function(1.5, end)
        assert np.array_equal(function(1.5, [angle, 1.0]), function(1.5, [end, 1.0]))

    def test_series_converges_to_closed_form(self):
        gap = symbol_f(1.5, math.pi / 2) - symbol_series(1.5, math.pi / 2, 4096)
        assert abs(gap) < 1e-6

    def test_series_gap_decays_with_length(self):
        gaps = [abs(symbol_f(1.3, 0.3) - symbol_series(1.3, 0.3, L)) for L in (256, 1024, 4096)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8, 2.0))
    def test_symbol_sandwich_bounds(self, alpha):
        # c_alpha theta^alpha <= f <= theta^alpha, the two-sided symbol bound
        ca = c_alpha(alpha)
        for theta in np.linspace(0.0, math.pi, 64):
            closed = symbol_f(alpha, float(theta))
            slack = 1e-12 * max(1.0, theta**alpha)
            assert closed >= ca * theta**alpha - slack
            assert closed <= theta**alpha + slack


class TestExactFractionalLaplacian:
    def test_second_order_against_the_gaussian_image(self):
        # (-Delta)^(alpha/2) exp(-x^2) = 2^alpha Gamma((1+alpha)/2) / sqrt(pi)
        # * 1F1((1+alpha)/2; 1/2; -x^2); exp(-x^2) is below 1e-43 outside [-10, 10]
        mpmath = pytest.importorskip("mpmath")
        x_fine = -10.0 + (20.0 / 256) * np.arange(1, 256)
        for alpha in (1.1, 1.5, 1.9, 2.0):
            with mpmath.workdps(30):
                a = mpmath.mpf(alpha)
                scale = 2**a * mpmath.gamma((1 + a) / 2) / mpmath.sqrt(mpmath.pi)
                exact = np.array([float(scale * mpmath.hyp1f1((1 + a) / 2, 0.5, -mpmath.mpf(x)**2))
                                  for x in x_fine])
            errors = []
            for m in (64, 128, 256):
                h, step = 20.0 / m, 256 // m
                x = -10.0 + h * np.arange(1, m)
                op = assemble_operator(wsgd_weights(alpha, m), m)
                image = h**-alpha * (op.C @ np.exp(-x * x))
                errors.append(np.max(np.abs(image - exact[step - 1 :: step])))
            orders = np.log2(np.array(errors[:-1]) / errors[1:])
            assert np.all(orders >= 1.9), (alpha, errors)


class TestCAlpha:
    def test_alpha2_value(self):
        assert c_alpha(2.0) == pytest.approx(4.0 / math.pi**2, rel=1e-15)

    @pytest.mark.parametrize("alpha", np.linspace(1.01, 2.0, 25).tolist())
    def test_positive(self, alpha):
        assert c_alpha(float(alpha)) > 0.0

    def test_alpha15_high_precision_value(self):
        # frozen from a 40-digit arbitrary-precision evaluation
        assert c_alpha(1.5) == pytest.approx(0.29931187020861093615, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            c_alpha(1.0)
