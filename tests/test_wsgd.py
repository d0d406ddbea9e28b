"""Coefficient, operator and symbol-function checks for the fractional
Laplacian discretization."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fgle.linalg import ComplexField
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


def binom_coeff(alpha, l):
    """Independent oracle: (-1)^l C(alpha, l) as an explicit product."""
    out = 1.0
    for i in range(1, l + 1):
        out *= -(alpha - i + 1) / i
    return out


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
        report = check_weight_properties(wsgd_weights(1.5, 2048))
        assert -report.tail_bound < report.total_sum <= 0.0

    def test_tampered_weights_detected(self):
        w = wsgd_weights(1.5, 64)
        bad = WsgdWeights(w.alpha, w.w.copy())
        bad.w[0] = -bad.w[0]
        report = check_weight_properties(bad)
        assert not report.passed
        assert "w0_positive" in report.failures()


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
        # The dense assembly through W: C = (W + W^T) / (2 cos(alpha pi / 2)), re-symmetrized
        w = wsgd_weights(alpha, M)
        row = np.zeros(M - 1)
        row[:2] = w.w[1], w.w[0]
        W = scipy.linalg.toeplitz(w.w[1:M], row)
        C = (W + W.T) / (2.0 * math.cos(alpha * math.pi / 2.0))
        assert np.array_equal(assemble_operator(w, M).C, (C + C.T) / 2.0)

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
        image = op.apply(u, h)
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
        assert np.max(np.abs(op.apply(u, h) - Cu)) <= 1e-13 * np.max(np.abs(Cu))
        assert np.max(np.abs(op.apply(u[:, 1], h) - Cu[:, 1])) <= 1e-13 * np.max(np.abs(Cu))
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
        via_matrix = op.apply(u.values, h)
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
