"""Grid norms, the Toeplitz quadratic form and dense factorization contracts."""

import bisect
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import fgle.linalg as linalg_mod

from fgle.experiments import error_norms
from fgle.linalg import (
    SingularMatrixError,
    _gauss_jacobi,
    fft_length,
    symmetric_toeplitz_spectrum,
    toeplitz_quadratic_form,
    lu_factor,
)
from fgle.stepper import _GS_SEED_ORDER, GridSpec, ModelParams, build_system_matrix
from fgle.wsgd import assemble_operator, wsgd_weights
from oracles import apply_fractional_laplacian, cholesky


class TestComplexField:
    """A grid function is its values; ``error_norms`` checks them and the spacing."""

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="field values must be finite"):
            error_norms(np.array([1.0, np.nan]), np.zeros(2), 0.5)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="h"):
            error_norms(np.zeros(4), np.zeros(4), 0.0)

    @pytest.mark.parametrize("h", (math.inf, math.nan, -0.5))
    def test_spacing_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="grid spacing h must be positive and finite"):
            error_norms(np.zeros(4), np.zeros(4), h)


class TestInnerProductAndNorms:
    """The l^2_h and max norms, as ``error_norms`` of a field against zero."""

    def test_impulse_inner_product(self):
        # (u, u)_h of a unit impulse is the mesh weight h
        vals = np.zeros(8)
        vals[3] = 1.0
        assert error_norms(vals, np.zeros(8), 0.5)[0] ** 2 == pytest.approx(0.5, rel=1e-15)

    def test_norm_squared_is_real_inner_product(self):
        rng = np.random.default_rng(0)
        u, h = rng.standard_normal(16) + 1j * rng.standard_normal(16), 0.1
        ip = h * np.vdot(u, u)
        assert error_norms(u, np.zeros(16), h)[0] ** 2 == pytest.approx(ip.real, rel=1e-14)

    def test_inverse_inequality(self):
        # ||u||_inf^2 <= h^{-1} ||u||_h^2 for any grid function
        rng = np.random.default_rng(3)
        h = 0.05
        for _ in range(20):
            u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            l2, linf = error_norms(u, np.zeros(10), h)
            assert l2 >= math.sqrt(h) * linf * (1 - 1e-14)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            error_norms(np.zeros(4), np.zeros(5), 0.5)


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(5))
        assert np.array_equal(L, np.eye(5))

    def test_factor_is_lower_triangular(self):
        op = assemble_operator(wsgd_weights(1.5, 12), 12)
        L = cholesky(op.C)
        assert np.array_equal(L, np.tril(L))

    def test_tridiagonal_reconstruction(self):
        op = assemble_operator(wsgd_weights(2.0, 5), 5)
        L = cholesky(op.C)
        assert np.max(np.abs(L.T @ L - op.C)) < 1e-14

    def test_random_spd(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((20, 20))
        C = B.T @ B + 20 * np.eye(20)
        L = cholesky(C)
        err = np.linalg.norm(L.T @ L - C) / np.linalg.norm(C)
        assert err < 1e-12

    def test_indefinite_reported(self):
        with pytest.raises(SingularMatrixError, match="positive definite"):
            cholesky(np.diag([1.0, -1.0]))


class TestGaussJacobi:
    @pytest.mark.parametrize("b", (0.0, 1.1, 1.5, 2.0))
    def test_matches_scipy(self, b):
        nodes, weights = _gauss_jacobi(24, b)
        expected_nodes, expected_weights = scipy.special.roots_jacobi(24, 0.0, b)
        assert np.max(np.abs(nodes - expected_nodes)) <= 1e-13
        assert np.max(np.abs(weights - expected_weights)) <= 1e-13
        assert not (nodes.flags.writeable or weights.flags.writeable)  # cached, so shared


class TestLuFactorSolve:
    def test_identity_solve(self):
        F = lu_factor(np.eye(6, dtype=complex))
        b = np.arange(6, dtype=complex)
        assert np.array_equal(F.solve(b), b)

    def test_diagonal_halves(self):
        F = lu_factor(2.0 * np.eye(4, dtype=complex))
        b = np.ones(4, dtype=complex)
        assert np.allclose(F.solve(b), 0.5 * b)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        n = 40
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 5 * np.eye(n)
        F = lu_factor(A)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = F.solve(b)
        res = np.max(np.abs(A @ x - b)) / np.max(np.abs(b))
        assert res < 1e-12

    def test_factor_once_solve_many(self):
        # one factorization must stay backward stable over 10^4 right-hand sides
        rng = np.random.default_rng(6)
        n = 24
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 4 * np.eye(n)
        F = lu_factor(A)
        B = rng.standard_normal((n, 10_000)) + 1j * rng.standard_normal((n, 10_000))
        X = np.column_stack([F.solve(b) for b in B.T])
        res = np.abs(A @ X - B).max(axis=0) / np.abs(B).max(axis=0)
        assert res.max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((3, 3), dtype=complex))

    def test_two_dimensional_right_hand_side_rejected(self):
        # a solve takes one right-hand side, on either path
        A = symmetric_toeplitz(8, seed=8)
        for F in (lu_factor(A), lu_factor(A[:4, :4]).with_gohberg_semencul(A[:, 0])):
            with pytest.raises(ValueError, match=rf"shape \({F.size}, 1\) is not one vector"):
                F.solve(np.ones((F.size, 1)))

    def test_size_mismatch(self):
        F = lu_factor(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="size"):
            F.solve(np.ones(5))

    def test_c_ordered_input_left_intact(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) + 8 * np.eye(8)
        before = A.copy()
        lu_factor(A)
        assert np.array_equal(A, before)

    @pytest.mark.parametrize("n", (5, 400))
    def test_f_ordered_input_left_intact(self, n):
        # an F-contiguous complex128 A, the layout getrf works in, is copied too,
        # and its factor is the C-ordered copy's, bit for bit
        C_ordered = symmetric_toeplitz(n, seed=n)
        A = np.asfortranarray(C_ordered)
        before = A.copy()
        factored = lu_factor(A)
        assert not np.shares_memory(factored.lu, A) and np.array_equal(A, before)
        assert np.array_equal(factored.lu, lu_factor(C_ordered).lu)


def symmetric_toeplitz(n, seed):
    """A well-conditioned complex symmetric Toeplitz matrix."""
    rng = np.random.default_rng(seed)
    col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (1.0 + np.arange(n)) ** 2
    col[0] += 4.0
    return scipy.linalg.toeplitz(col, col)


class TestSymmetricToeplitz:
    @pytest.mark.parametrize("n", (1, 2, 7))
    def test_complex_column_gives_complex_symmetric_view(self, n):
        # the row is the column itself, not its conjugate: never Hermitian
        col = symmetric_toeplitz_column(n, seed=n)
        T = linalg_mod.symmetric_toeplitz(col)
        assert np.array_equal(T, scipy.linalg.toeplitz(col, col))
        assert np.array_equal(T, T.T)
        assert not T.flags.writeable

    def test_operator_matrix_is_a_copy(self):
        op = assemble_operator(wsgd_weights(1.5, 12), 12)
        C = op.C
        assert np.array_equal(C, scipy.linalg.toeplitz(op.column))
        C[0, 0] = 0.0
        assert op.C[0, 0] == op.column[0] != 0.0


class TestGohbergSemencul:
    def test_fft_length_is_smallest_5_smooth(self):
        assert [fft_length(n) for n in (1, 7, 11, 637, 2557, 5117)] == [1, 8, 12, 640, 2560, 5120]

    def test_fft_length_matches_the_counting_loop(self):
        # the reference steps to the next 5-smooth number one at a time
        def counted(n):
            m = max(n, 1)
            while True:
                k = m
                for p in (2, 3, 5):
                    while k % p == 0:
                        k //= p
                if k == 1:
                    return m
                m += 1

        assert [fft_length(n) for n in range(3000)] == [counted(n) for n in range(3000)]

    def test_fft_length_of_a_huge_order(self):
        # the size rule asks it of any grid: checked against every 5-smooth number up to 2^47
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(48) for b in range(30) for c in range(21)
            if 2**a * 3**b * 5**c <= 2**47
        )
        rng = np.random.default_rng(12)
        for n in [2 * 10**12 - 3, 4 * 10**13 + 1, *rng.integers(10**6, 2**44, 20).tolist()]:
            assert fft_length(n) == smooth[bisect.bisect_left(smooth, n)]

    @pytest.mark.parametrize("n", (1, 2, 3, 17, 400))
    def test_matches_dense_solve(self, n):
        A = symmetric_toeplitz(n, seed=n)
        F = lu_factor(A).with_gohberg_semencul(A[:, 0])
        assert F.spectra is not None
        rng = np.random.default_rng(11)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(F.solve(b) - np.linalg.solve(A, b))) <= 1e-13

    def test_gate_failure_raises(self, monkeypatch):
        monkeypatch.setattr(linalg_mod, "_GS_GATE_RTOL", 0.0)
        for n in (2, 17, 400):
            A = symmetric_toeplitz(n, seed=n)
            expected = (
                rf"order {n}: the probe solve fails the gate; residual \S+, "
                r"tolerance 0\.0e\+00, generator residuals \[\S+"
            )
            with pytest.raises(SingularMatrixError, match=expected):
                lu_factor(A).with_gohberg_semencul(A[:, 0])

    def test_seed_of_another_matrix_stalls(self):
        # the LU only seeds x: from the identity's e_1 the first correction
        # raises this well-conditioned A's residual, and the build must say so
        col = np.zeros(64, dtype=complex)
        col[:3] = (4.0, 1.0, 0.5)
        expected = (r"order 64: a correction stops reducing the residual short of rounding "
                    r"level; .* generator residuals \[\S+, \S+\]$")
        with pytest.raises(SingularMatrixError, match=expected):
            lu_factor(np.eye(8, dtype=complex)).with_gohberg_semencul(col)
        # A's own leading section of the same order seeds it to the dense solve
        A = scipy.linalg.toeplitz(col, col)
        system = lu_factor(A[:8, :8]).with_gohberg_semencul(col)
        b = np.random.default_rng(64).standard_normal(64) + 0j
        assert np.max(np.abs(system.solve(b) - np.linalg.solve(A, b))) <= 1e-13

    def test_singular_generator_raises(self):
        # x_0 = 0: the formula divides by it
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SingularMatrixError, match=r"order 2: x_0 .* is zero"):
            lu_factor(A).with_gohberg_semencul(A[:, 0])

    def test_column_must_match_the_system(self):
        # the factor is of a leading section: the column may be longer, not shorter
        section = lu_factor(symmetric_toeplitz(4, seed=4))
        for column in (np.ones(3), np.ones((4, 1))):
            with pytest.raises(ValueError, match=r"column of shape .* does not extend the "
                               r"factored section of order 4"):
                section.with_gohberg_semencul(column)
        col = symmetric_toeplitz_column(5, seed=4)
        col[:4] = symmetric_toeplitz(4, seed=4)[:, 0]
        b = np.arange(5) + 1j
        refined = section.with_gohberg_semencul(col)
        x = refined.solve(b)
        assert np.max(np.abs(x - np.linalg.solve(scipy.linalg.toeplitz(col, col), b))) <= 1e-13
        # the refined system keeps only the spectra: it cannot seed again
        with pytest.raises(ValueError, match="keeps no LU factor"):
            refined.with_gohberg_semencul(col)


def symmetric_toeplitz_column(n, seed):
    return symmetric_toeplitz(n, seed)[:, 0].copy()


def section_seeded(col, order=_GS_SEED_ORDER):
    """The Gohberg-Semencul system of ``col``, seeded by the LU of its leading section."""
    return lu_factor(linalg_mod.symmetric_toeplitz(col[:order])).with_gohberg_semencul(col)


class TestHalfBlockLu:
    """The seed of large systems, named for the half-block LU it replaced: the LU
    of a leading section, refined by Gohberg-Semencul corrections."""

    @pytest.mark.parametrize("n", (350, 351, 1023, 1024))
    def test_matches_dense_solve(self, n):
        col = symmetric_toeplitz_column(n, seed=n)
        refined = section_seeded(col)
        assert refined.size == n and refined.lu is None and refined.piv is None
        assert refined.spectra.shape == (2, 2, fft_length(2 * n - 1))
        assert refined.residuals[-1] <= linalg_mod._GS_ROUNDING
        A = scipy.linalg.toeplitz(col, col)
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = refined.solve(b)
        dense = np.linalg.solve(A, b)
        assert x.shape == b.shape and x.dtype == complex
        assert np.max(np.abs(x - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", (350, 351))
    def test_generator_matches_dense_lu(self, n):
        col = symmetric_toeplitz_column(n, seed=n)
        section = section_seeded(col)
        dense = lu_factor(scipy.linalg.toeplitz(col, col)).with_gohberg_semencul(col)
        assert section.spectra is not None and dense.spectra is not None
        scale = np.max(np.abs(dense.spectra))
        assert np.max(np.abs(section.spectra - dense.spectra)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", (350, 351))
    def test_gate_failure_raises_on_the_halves(self, monkeypatch, n):
        monkeypatch.setattr(linalg_mod, "_GS_GATE_RTOL", 0.0)
        expected = rf"order {n}: the probe solve fails the gate"
        with pytest.raises(SingularMatrixError, match=expected):
            section_seeded(symmetric_toeplitz_column(n, seed=n))

    def test_gate_pins_an_unrefined_generator(self, monkeypatch):
        # stopped one correction past 1e-6 from the 99-order section's seed
        # (residuals 5.2e-7, 7.4e-12), the generator solves the probe with a
        # backward error of 2.6e-11: the default gate must refuse it, where a
        # gate of 1e-6 would pass it
        monkeypatch.setattr(linalg_mod, "_GS_ROUNDING", 1e-6)
        params = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=1.6)
        grid = GridSpec(-16.0, 16.0, 400)
        operator = assemble_operator(wsgd_weights(1.6, 400), 400)
        with pytest.raises(SingularMatrixError, match="the probe solve fails the gate"):
            build_system_matrix(params, grid, 0.01, operator)

    def test_gate_refuses_perturbed_spectra(self, monkeypatch):
        # spectra off by a relative 1e-9 leave the generator's own residuals at
        # rounding level (they are measured on x) but the probe's backward error
        # at 5.3e-10, far above the 1e-13 gate; unperturbed it is 4.9e-16
        spectra_of = linalg_mod._gohberg_semencul_spectra
        rng = np.random.default_rng(9)

        def perturbed(x, length):
            spectra = spectra_of(x, length)
            return spectra * (1.0 + 1e-9 * rng.standard_normal(spectra.shape))

        monkeypatch.setattr(linalg_mod, "_gohberg_semencul_spectra", perturbed)
        params = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=1.6)
        grid = GridSpec(-16.0, 16.0, 400)
        operator = assemble_operator(wsgd_weights(1.6, 400), 400)
        with pytest.raises(SingularMatrixError, match=r"the probe solve fails the gate; "
                           r"residual \S+, tolerance 1\.0e-13"):
            build_system_matrix(params, grid, 0.01, operator)

    def test_seed_is_the_padded_section_solve(self, monkeypatch):
        # with the seed already at (patched) rounding level and no gate, the build
        # makes exactly one correction; the first generator it forms spectra of is
        # the section's A_m^{-1} e_1 padded with zeros, as the dense solve gives it
        monkeypatch.setattr(linalg_mod, "_GS_ROUNDING", 1.0)
        monkeypatch.setattr(linalg_mod, "_GS_GATE_RTOL", math.inf)
        generators = []
        spectra_of = linalg_mod._gohberg_semencul_spectra
        monkeypatch.setattr(linalg_mod, "_gohberg_semencul_spectra",
                            lambda x, length: generators.append(x) or spectra_of(x, length))
        col = symmetric_toeplitz_column(400, seed=400)
        seeded = section_seeded(col, order=300)
        assert len(seeded.residuals) == 2 and len(generators) == 2
        x = np.zeros(400, dtype=complex)
        x[:300] = np.linalg.solve(scipy.linalg.toeplitz(col[:300], col[:300]), np.eye(300)[:, 0])
        assert np.max(np.abs(generators[0] - x)) <= 1e-13 * np.max(np.abs(x))

    def test_complex64_input_factored_in_double(self):
        # the factor is complex128 whatever the input: no solve answers in single precision
        col = symmetric_toeplitz_column(40, seed=40)
        A = scipy.linalg.toeplitz(col, col)
        system = lu_factor(A.astype(np.complex64))
        assert system.lu.dtype == complex
        b = np.ones(40, dtype=complex)
        expected = np.linalg.solve(A.astype(np.complex64).astype(complex), b)
        assert np.max(np.abs(system.solve(b) - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestQuadraticFormRoutes:
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8, 2.0))
    def test_three_way_agreement(self, alpha):
        """(Delta u, u)_h by direct summation, matrix quadratic form, the
        factored norm ||Lambda u||^2 and OperatorMatrix.quadratic_form must
        coincide."""
        rng = np.random.default_rng(7)
        M, h = 32, 0.25
        w = wsgd_weights(alpha, M + 1)
        op = assemble_operator(w, M)
        u = rng.standard_normal(M - 1) + 1j * rng.standard_normal(M - 1)

        direct = h * np.vdot(u, apply_fractional_laplacian(u, h, w))
        assert direct.imag == pytest.approx(0.0, abs=1e-12 * abs(direct))
        quad = h ** (1 - alpha) * float(np.real(np.conj(u) @ (op.C @ u)))
        lam = cholesky(op.C) @ u
        factored = h ** (1 - alpha) * float(np.sum(np.abs(lam) ** 2))
        method = op.quadratic_form(u, h)

        assert isinstance(method, float)
        assert direct.real == pytest.approx(quad, rel=1e-10)
        assert quad == pytest.approx(factored, rel=1e-10)
        assert method == pytest.approx(quad, rel=1e-10)

    def test_batch_matches_dense_complex_formula(self):
        rng = np.random.default_rng(8)
        alpha, M, h, k = 1.3, 40, 0.5, 6
        op = assemble_operator(wsgd_weights(alpha, M), M)
        fields = rng.standard_normal((M - 1, k)) + 1j * rng.standard_normal((M - 1, k))
        dense = h ** (1 - alpha) * np.real(np.sum(np.conj(fields) * (op.C @ fields), axis=0))
        batch = op.quadratic_form(fields, h)
        assert batch.shape == (k,)
        assert np.allclose(batch, dense, rtol=1e-10, atol=0.0)
        assert batch[2] == pytest.approx(op.quadratic_form(fields[:, 2], h), rel=1e-10)

    @pytest.mark.parametrize("n", (1, 2, 17))
    def test_toeplitz_form_matches_dense(self, n):
        # any real symmetric Toeplitz T, not only a positive definite one
        rng = np.random.default_rng(9)
        column = rng.standard_normal(n)
        T = scipy.linalg.toeplitz(column)
        u = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        forms = toeplitz_quadratic_form(symmetric_toeplitz_spectrum(column), u, 0.5)
        dense = 0.5 * np.real(np.sum(np.conj(u) * (T @ u), axis=0))
        assert forms.shape == (3,)
        assert np.allclose(forms, dense, rtol=0.0, atol=1e-13 * np.max(np.abs(dense)))
        single = toeplitz_quadratic_form(symmetric_toeplitz_spectrum(column), u[:, 1], 0.5)
        assert single == pytest.approx(dense[1], abs=1e-13 * np.max(np.abs(dense)))
