"""Inner products, norms and dense factorization contracts."""

import math

import numpy as np
import pytest

from fgle.linalg import (
    ComplexField,
    SingularMatrixError,
    cholesky,
    inner_product,
    l2_h,
    linf_h,
    lp_h,
    lu_factor,
    solve,
)
from fgle.wsgd import assemble_operator, wsgd_weights


class TestComplexField:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ComplexField(np.array([1.0, np.nan]), h=0.5)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="h"):
            ComplexField(np.zeros(4), h=0.0)

    def test_copy_is_independent(self):
        u = ComplexField(np.ones(4), h=0.5)
        v = u.copy()
        v.values[0] = 7.0
        assert u.values[0] == 1.0


class TestInnerProductAndNorms:
    def test_impulse_inner_product(self):
        vals = np.zeros(8)
        vals[3] = 1.0
        u = ComplexField(vals, h=0.5)
        assert inner_product(u, u) == 0.5

    def test_norm_squared_is_real_inner_product(self):
        rng = np.random.default_rng(0)
        u = ComplexField(rng.standard_normal(16) + 1j * rng.standard_normal(16), h=0.1)
        ip = inner_product(u, u)
        assert ip.imag == pytest.approx(0.0, abs=1e-16)
        assert l2_h(u) ** 2 == pytest.approx(ip.real, rel=1e-14)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        u = ComplexField(rng.standard_normal(8) + 1j * rng.standard_normal(8), h=0.2)
        v = ComplexField(rng.standard_normal(8) + 1j * rng.standard_normal(8), h=0.2)
        assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))

    def test_lp_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        u = ComplexField(rng.standard_normal(12) + 1j * rng.standard_normal(12), h=0.3)
        direct = (0.3 * sum(abs(z) ** 3 for z in u.values)) ** (1 / 3)
        assert lp_h(u, 3) == pytest.approx(direct, rel=1e-14)

    def test_inverse_inequality(self):
        # ||u||_inf^2 <= h^{-1} ||u||_h^2 for any grid function
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = ComplexField(rng.standard_normal(10) + 1j * rng.standard_normal(10), h=0.05)
            assert l2_h(u) >= math.sqrt(u.h) * linf_h(u) * (1 - 1e-14)

    def test_mismatch_rejected(self):
        u = ComplexField(np.zeros(4), h=0.5)
        with pytest.raises(ValueError, match="length"):
            inner_product(u, ComplexField(np.zeros(5), h=0.5))
        with pytest.raises(ValueError, match="spacing"):
            inner_product(u, ComplexField(np.zeros(4), h=0.25))


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
        X = F.solve(B)
        res = np.abs(A @ X - B).max(axis=0) / np.abs(B).max(axis=0)
        assert res.max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((3, 3), dtype=complex))

    def test_solve_wraps_fields(self):
        F = lu_factor(2.0 * np.eye(4, dtype=complex))
        u = ComplexField(np.ones(4), h=0.5)
        out = solve(F, u)
        assert isinstance(out, ComplexField)
        assert out.h == 0.5
        assert np.allclose(out.values, 0.5)

    def test_size_mismatch(self):
        F = lu_factor(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="size"):
            solve(F, ComplexField(np.ones(5), h=1.0))


class TestQuadraticFormRoutes:
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8, 2.0))
    def test_three_way_agreement(self, alpha):
        """(Delta u, u)_h by direct summation, matrix quadratic form, the
        factored norm ||Lambda u||^2 and OperatorMatrix.quadratic_form must
        coincide."""
        from fgle.wsgd import apply_fractional_laplacian

        rng = np.random.default_rng(7)
        M, h = 32, 0.25
        w = wsgd_weights(alpha, M + 1)
        op = assemble_operator(w, M)
        u = ComplexField(rng.standard_normal(M - 1) + 1j * rng.standard_normal(M - 1), h)

        direct = inner_product(apply_fractional_laplacian(u, w), u)
        assert direct.imag == pytest.approx(0.0, abs=1e-12 * abs(direct))
        quad = h ** (1 - alpha) * float(np.real(np.conj(u.values) @ (op.C @ u.values)))
        lam = cholesky(op.C) @ u.values
        factored = h ** (1 - alpha) * float(np.sum(np.abs(lam) ** 2))
        method = op.quadratic_form(u.values, h)

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
