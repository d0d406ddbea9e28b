"""The exact Sobolev seminorm, its cosine moments and the energy equivalence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cosine_moments_by_quad, gaussian_packet_seminorm

from fgle.linalg import ComplexField, _cosine_moments
from fgle.spectral import _seminorm_batch, energy_equivalence_margins
from fgle.wsgd import assemble_operator, wsgd_weights


def random_field(rng, m, h, real=False):
    vals = rng.standard_normal(m - 1)
    if not real:
        vals = vals + 1j * rng.standard_normal(m - 1)
    return ComplexField(vals, h)


def seminorm(u, sigma):
    """|u|^2_{H^sigma_h} of one field."""
    return _seminorm_batch(u.values[:, None], u.h, sigma)[0]


class TestSobolevSeminorm:
    def test_sigma0_equals_l2_norm_squared(self):
        rng = np.random.default_rng(12)
        u = random_field(rng, 32, 0.1)
        nsq = u.h * float(np.sum(np.abs(u.values) ** 2))
        assert seminorm(u, 0.0) == pytest.approx(nsq, rel=1e-8)

    def test_zero_field(self):
        u = ComplexField(np.zeros(15), h=0.2)
        assert seminorm(u, 0.7) == 0.0

    def test_sigma1_impulse_closed_form(self):
        # int k^2 |u_hat|^2 dk = (h^2 / 2 pi) * (2/3) (pi/h)^3 = pi^2 / (3 h)
        h = 0.1
        vals = np.zeros(31)
        vals[10] = 1.0
        u = ComplexField(vals, h)
        expected = math.pi**2 / (3 * h)
        assert seminorm(u, 1.0) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("sigma", (0.6, 0.9, 1.0))
    def test_doubling_quadrature_converges(self, sigma):
        # twice the count is twice the panels, so each moment comes from other nodes
        moments = _cosine_moments(2.0 * sigma, 31)
        doubled = _cosine_moments(2.0 * sigma, 62)[:31]
        assert np.max(np.abs(moments - doubled)) <= 1e-14 * np.max(np.abs(moments))

    @pytest.mark.parametrize("M", (64, 512, 4096))
    @pytest.mark.parametrize("sigma", (0.55, 0.8, 1.0))
    def test_gaussian_closed_form(self, sigma, M):
        # exp(-x^2) has |u_hat(k)|^2 = exp(-k^2 / 2) / 2, so the seminorm is
        # 2^(sigma - 1/2) Gamma(sigma + 1/2); aliasing and truncation are below 1e-40
        h = 20.0 / M
        x = -10.0 + h * np.arange(1, M)
        exact = 2.0 ** (sigma - 0.5) * math.gamma(sigma + 0.5)
        assert seminorm(ComplexField(np.exp(-x * x), h), sigma) == pytest.approx(
            exact, rel=1e-10
        )

    def test_real_field_half_range_consistent(self):
        rng = np.random.default_rng(14)
        u_real = random_field(rng, 24, 0.2, real=True)
        u_complex = ComplexField(u_real.values + 0j * u_real.values, u_real.h)
        a = seminorm(u_real, 0.8)
        b = seminorm(u_complex, 0.8)
        assert a == pytest.approx(b, rel=1e-13)


class TestToeplitzSeminorm:
    @settings(deadline=None)
    @given(
        sigma=st.sampled_from((0.0, 0.25, 0.55, 0.8, 1.0)),
        M=st.integers(2, 97),
        columns=st.sampled_from((1, 4)),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_moment_form(self, sigma, M, columns, real, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((M - 1, columns)).astype(complex)
        if not real:
            u += 1j * rng.standard_normal(u.shape)
        h = 20.0 / M
        moments = cosine_moments_by_quad(2.0 * sigma, 96)[: M - 1]
        lags = np.abs(np.subtract.outer(np.arange(M - 1), np.arange(M - 1)))
        form = np.einsum("jc,jl,lc->c", u.conj(), moments[lags], u).real
        dense = h ** (1.0 - 2.0 * sigma) * form
        assert np.all(np.abs(_seminorm_batch(u, h, sigma) - dense) <= 1e-12 * dense)

    @pytest.mark.parametrize("sigma", (0.55, 0.8, 1.0))
    def test_smooth_packets_at_m_4096(self, sigma):
        # On smooth data u^H K u is far below ||K|| |u|^2, so the form cancels hardest there
        M = 4096
        h = 20.0 / M
        x = -10.0 + h * np.arange(1, M)
        for a, c, d in ((1.0, 0.0, 0.0), (0.5, 0.0, 3.0), (4.0, 2.0, -5.0)):
            u = ComplexField(np.exp(-a * (x - c) ** 2 + 1j * d * x), h)
            ref = gaussian_packet_seminorm(a, c, d, sigma)
            assert seminorm(u, sigma) == pytest.approx(ref, rel=1e-10)


class TestCosineMoments:
    @pytest.mark.parametrize("b", (0.0, 0.5, 1.1, 1.6, 2.0))
    def test_matches_quadpack(self, b):
        # 96 moments take 12 panels, so k wraps the 24-point FFT four times
        expected = cosine_moments_by_quad(b, 96)
        moments = _cosine_moments(b, 96)
        assert np.max(np.abs(moments - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_integer_powers_in_closed_form(self):
        # far beyond what adaptive quadrature resolves: (1/pi) int_0^pi t^b cos(k t) dt is
        # [k = 0] for b = 0, ((-1)^k - 1) / (pi k^2) for b = 1 and 2 (-1)^k / k^2 for b = 2
        k = np.arange(1.0, 4095.0)
        sign = (-1.0) ** k
        closed = {
            0.0: np.concatenate(([1.0], 0.0 * k)),
            1.0: np.concatenate(([math.pi / 2.0], (sign - 1.0) / (math.pi * k * k))),
            2.0: np.concatenate(([math.pi**2 / 3.0], 2.0 * sign / (k * k))),
        }
        for b, expected in closed.items():
            moments = _cosine_moments(b, 4095)
            assert np.max(np.abs(moments - expected)) <= 1e-14 * np.max(np.abs(expected)), b

    def test_smooth_factor_multiplies_the_integrand(self):
        # t^0 times g(t) = t^2 and t^1 times g(t) = t are both t^2
        expected = _cosine_moments(2.0, 100)
        for b, smooth in ((0.0, np.square), (1.0, lambda t: t)):
            moments = _cosine_moments(b, 100, smooth)
            assert np.max(np.abs(moments - expected)) <= 1e-14 * math.pi**2 / 3.0, b


def make_operator(alpha, m):
    return assemble_operator(wsgd_weights(alpha, m), m)


def within_bounds(values, alpha, h):
    """C_alpha |u|^2 <= (Delta_h u, u)_h <= |u|^2 for each column, to 1e-12 |u|^2."""
    op = make_operator(alpha, values.shape[0] + 1)
    lower, upper, sem = energy_equivalence_margins(values, alpha, h, op)
    return np.all(lower >= -1e-12 * sem) and np.all(upper >= -1e-12 * sem)


class TestEnergyEquivalence:
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8, 2.0))
    def test_random_vectors_within_bounds(self, alpha):
        rng = np.random.default_rng(15)
        m, h = 64, 20.0 / 64
        fields = np.column_stack([random_field(rng, m, h).values for _ in range(5)])
        assert within_bounds(fields, alpha, h)

    def test_impulse(self):
        vals = np.zeros((63, 1))
        vals[31] = 1.0
        assert within_bounds(vals, 1.5, 0.3)

    @pytest.mark.parametrize("op_alpha, op_nodes", [(1.9, 63), (1.5, 15)])
    def test_operator_mismatch_rejected(self, op_alpha, op_nodes):
        fields = random_field(np.random.default_rng(21), 64, 20.0 / 64).values[:, None]
        op = make_operator(op_alpha, op_nodes + 1)
        with pytest.raises(ValueError, match="operator"):
            energy_equivalence_margins(fields, 1.5, 20.0 / 64, operator=op)

    @pytest.mark.parametrize("h", (math.nan, math.inf, 0.0, -0.5))
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ValueError, match="grid spacing h must be positive and finite"):
            energy_equivalence_margins(np.ones((15, 2)), 1.5, h, make_operator(1.5, 16))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0.0, -math.inf)))
    def test_non_finite_fields_rejected(self, bad):
        fields = np.ones((15, 2), dtype=complex)
        op = make_operator(1.5, 16)
        lower, upper, sem = energy_equivalence_margins(fields, 1.5, 0.5, op)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)) and np.all(sem > 0)
        fields[3, 1] = bad
        with pytest.raises(ValueError, match="fields must be finite"):
            energy_equivalence_margins(fields, 1.5, 0.5, op)

    def test_fields_of_three_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"fields must be 2-D .*\(15, 3, 2\)"):
            energy_equivalence_margins(np.ones((15, 3, 2)), 1.5, 0.5, make_operator(1.5, 16))

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (0,), (0, 2)])
    def test_fields_of_fewer_than_two_rows_rejected(self, shape):
        with pytest.raises(ValueError, match="fields must be 2-D with at least 2 rows"):
            energy_equivalence_margins(np.ones(shape), 1.5, 0.5, make_operator(1.5, 3))

    def test_one_vector_needs_its_column_axis(self):
        # a 1-D vector is not read as one column: it fails before any work
        with pytest.raises(ValueError, match=r"fields must be 2-D .*\(63,\)"):
            energy_equivalence_margins(np.ones(63), 1.5, 0.3, make_operator(1.5, 64))

    def test_operator_is_required(self):
        with pytest.raises(TypeError, match="operator"):
            energy_equivalence_margins(np.ones((63, 2)), 1.5, 0.3)

    def test_quadratic_form_real_positive(self):
        rng = np.random.default_rng(16)
        fields = random_field(rng, 32, 0.4).values[:, None]
        _, upper, sem = energy_equivalence_margins(fields, 1.7, 0.4, make_operator(1.7, 32))
        assert sem[0] - upper[0] > 0.0
