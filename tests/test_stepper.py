"""Implicit midpoint stepping: system matrix, inner iteration, invariants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fgle.linalg as linalg_mod
import fgle.stepper as stepper_mod
from fgle.experiments import sech_soliton_model_params, sech_soliton_solution
from fgle.linalg import SingularMatrixError, fft_length
from fgle.stepper import (
    GridSpec,
    ModelParams,
    NonConvergence,
    SolverSettings,
    TimeGrid,
    build_system_matrix,
    fixed_point_step,
    run_simulation,
    snapshot_steps,
)
from fgle.wsgd import assemble_operator, wsgd_weights
from oracles import apply_fractional_laplacian, linear_predictor_run


def make_operator(alpha, m):
    return assemble_operator(wsgd_weights(alpha, m), m)


def gaussian(x):
    return np.exp(-2.0 * x * x)


def no_levels(u):
    """``fixed_point_step``'s history on a run's first step: a 2-D array with no rows."""
    return np.zeros((0, u.size), dtype=complex)


def assert_refined_one_past_rounding(residuals):
    """A generator's residual history: each correction reduces the residual until it
    first reaches rounding level, then exactly one more correction keeps it there."""
    rounding = linalg_mod._GS_ROUNDING
    *above, at_rounding, last = residuals
    assert all(r > rounding for r in above) and at_rounding <= rounding and last <= rounding
    assert all(later < earlier for earlier, later in zip(residuals, residuals[1:-1]))


def midpoint_column(p, grid, tau, op):
    """First column of the midpoint matrix A that ``build_system_matrix`` factors."""
    col = (tau / 2) * (p.upsilon + 1j * p.eta) * grid.h**-p.alpha * op.column
    col[0] += 1 - tau * p.gamma / 2
    return col


def midpoint_matrix(p, grid, tau, op):
    """The dense complex symmetric (not Hermitian) midpoint matrix A."""
    col = midpoint_column(p, grid, tau, op)
    return scipy.linalg.toeplitz(col, col)


EXAMPLE_PARAMS = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=1.8)


class TestGridTypes:
    def test_grid_requires_ordered_interval(self):
        with pytest.raises(ValueError, match="b > a"):
            GridSpec(1.0, -1.0, 8)

    def test_grid_requires_enough_cells(self):
        with pytest.raises(ValueError, match="M"):
            GridSpec(-1.0, 1.0, 2)

    def test_interior_nodes_exclude_endpoints(self):
        g = GridSpec(-1.0, 1.0, 4)
        assert np.allclose(g.interior_nodes(), [-0.5, 0.0, 0.5])

    def test_time_grid_tau(self):
        t = TimeGrid(2.0, 40)
        assert t.tau == pytest.approx(0.05)
        with pytest.raises(ValueError, match="N"):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize(
        "a, b, m, match",
        [
            (-1.0, 1.0, 3.5, "M must be an integer"),
            (-1.0, 1.0, 8.0, "M must be an integer"),
            (-1.0, 1.0, True, "M must be an integer"),
            (-np.inf, 1.0, 8, "finite b > a"),
            (-1.0, np.nan, 8, "finite b > a"),
            # (b - a) / M past the float range, or below it: no run may start on the grid
            (-1e308, 1e308, 10, "^grid spacing h must be positive and finite, got inf$"),
            (0.0, 1e-320, 100000, "^grid spacing h must be positive and finite, got 0.0$"),
        ],
    )
    def test_grid_rejects_invalid_input(self, a, b, m, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(a, b, m)

    @pytest.mark.parametrize(
        "T, N, match",
        [
            (1.0, 2.5, "N must be an integer"),
            (1.0, True, "N must be an integer"),
            (np.inf, 2, "T must be positive and finite"),
            (np.nan, 2, "T must be positive and finite"),
        ],
    )
    def test_time_grid_rejects_invalid_input(self, T, N, match):
        with pytest.raises(ValueError, match=match):
            TimeGrid(T, N)

    def test_time_grid_past_physical_memory_rejected(self, monkeypatch):
        # a run keeps 16 (N + 1) bytes of norms and times and 24 N of diagnostics
        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 16 * 101 + 24 * 100)
        assert TimeGrid(1.0, 100).N == 100
        with pytest.raises(ValueError, match=r"^N = 101 needs a .* GiB series of norms, times and "
                           r"diagnostics, more than the .* GiB of physical memory$"):
            TimeGrid(1.0, 101)

    def test_huge_step_count_rejected_before_sampling(self):
        # 10^12 steps would need 36.4 TiB of norms, times and diagnostics
        sampled = []
        with pytest.raises(ValueError, match=r"^N = 1000000000000 needs a 3\.73e\+04 GiB series"):
            run_simulation(EXAMPLE_PARAMS, GridSpec(-10.0, 10.0, 10), TimeGrid(1.0, 10**12),
                           sampled.append)
        assert sampled == []

    def test_run_keeps_no_more_per_step_than_the_rule_counts(self):
        # TimeGrid counts 16 (N + 1) + 24 N bytes, 40 a step, so run_simulation
        # makes its times before the other series; a list of StepDiagnostics kept
        # about 216 bytes a step
        def peak(n):
            tracemalloc.start()
            try:
                run_simulation(EXAMPLE_PARAMS, GridSpec(-10.0, 10.0, 10), TimeGrid(1.0, n), gaussian)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(500)  # a first run makes the allocations no later run repeats
        assert peak(1500) - peak(500) <= 40 * 1000 + 1024

    def test_numpy_integer_sizes_accepted(self):
        assert GridSpec(-1.0, 1.0, np.int64(8)).M == 8
        assert TimeGrid(1.0, np.int64(4)).tau == 0.25


class TestSolverSettings:
    @pytest.mark.parametrize(
        "iter_tol, max_iters, match",
        [
            (math.inf, 100, "iter_tol must be positive and finite"),
            (1e-14, 2.5, "max_iters must be an integer"),
            (1e-14, True, "max_iters must be an integer"),
        ],
    )
    def test_rejects_what_it_cannot_run(self, iter_tol, max_iters, match):
        with pytest.raises(ValueError, match=match):
            SolverSettings(iter_tol=iter_tol, max_iters=max_iters)


class TestModelParams:
    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            ModelParams(1.0, 0.0, 0.0, 0.0, 0.0, alpha=2.5)

    def test_negative_upsilon_rejected(self):
        with pytest.raises(ValueError, match="upsilon"):
            ModelParams(-1.0, 0.0, 0.0, 0.0, 0.0, alpha=1.5)

    @pytest.mark.parametrize(
        "name, value",
        [("eta", np.nan), ("kappa", np.inf), ("gamma", np.nan), ("upsilon", np.nan),
         ("zeta", -np.inf)],
    )
    def test_non_finite_coefficient_rejected(self, name, value):
        coeffs = dict(upsilon=1.0, eta=1.0, kappa=1.0, zeta=1.0, gamma=0.0, alpha=1.5)
        coeffs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**coeffs)

    def test_zero_upsilon_and_negative_kappa_allowed(self):
        # dispersive reduction and the benchmark's negative cubic coefficient
        ModelParams(0.0, 1.0, 0.0, -2.0, 0.0, alpha=1.5)
        ModelParams(0.3, 0.5, -0.133, -1.0, 0.0, alpha=2.0)


class TestBuildSystemMatrix:
    @pytest.mark.parametrize(
        "eta, grid",
        [(1e308, GridSpec(-10.0, 10.0, 400)), (3e307, GridSpec(-10.0, 10.0, 400)),
         (1.0, GridSpec(0.0, 1e-197, 1000))],
        ids=["factor", "column", "spacing"],
    )
    def test_overflowing_entries_rejected(self, eta, grid):
        # the factor, its product with the column, or h^(-alpha) alone leaves the float
        # range: refused before the LU, without a numpy warning or Python's OverflowError
        p = ModelParams(1.0, eta, 1.0, 2.0, 0.0, alpha=1.8)
        match = r"^midpoint matrix has entries that are not finite: \(tau/2\)\(upsilon \+ i eta\) "
        with pytest.raises(SingularMatrixError, match=match):
            build_system_matrix(p, grid, 0.05, make_operator(1.8, grid.M))

    def test_tau_zero_gives_identity(self):
        grid = GridSpec(-1.0, 1.0, 8)
        op = make_operator(1.5, 8)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, alpha=1.5)
        # tau = 0 itself is rejected (test_bad_tau_rejected_before_factorizing);
        # the limit tau -> 0 still gives the identity
        F = build_system_matrix(p, grid, 1e-300, op)
        b = np.arange(7, dtype=complex)
        assert np.allclose(F.solve(b), b, atol=1e-15)

    def test_zero_coefficients_give_identity(self):
        grid = GridSpec(-1.0, 1.0, 8)
        op = make_operator(1.5, 8)
        p = ModelParams(0.0, 0.0, 1.0, 1.0, 0.0, alpha=1.5)
        F = build_system_matrix(p, grid, 0.1, op)
        b = np.ones(7, dtype=complex)
        assert np.allclose(F.solve(b), b, atol=1e-15)

    def test_matches_operator_application(self):
        # A z == z + (tau/2)(upsilon + i eta) Delta_h z - (tau gamma / 2) z
        rng = np.random.default_rng(21)
        grid = GridSpec(-2.0, 2.0, 16)
        p = ModelParams(0.7, -0.3, 0.4, 1.1, 0.6, alpha=1.6)
        tau = 0.05
        w = wsgd_weights(1.6, 17)
        op = assemble_operator(w, 16)
        F = build_system_matrix(p, grid, tau, op)
        z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        x = F.solve(np.asarray(z))
        # apply A to the solution and compare with z
        lap = apply_fractional_laplacian(x, grid.h, w)
        az = x + (tau / 2) * (0.7 - 0.3j) * lap - (tau * 0.6 / 2) * x
        assert np.max(np.abs(az - z)) < 1e-12 * np.max(np.abs(z))

    def test_complex_symmetric_not_hermitian(self, monkeypatch):
        built = []
        lu = stepper_mod.lu_factor
        # 15 unknowns: the section factored is all of A, and lu_factor leaves it intact
        monkeypatch.setattr(stepper_mod, "lu_factor", lambda a: built.append(a) or lu(a))
        grid = GridSpec(-2.0, 2.0, 16)
        p = ModelParams(0.7, -0.3, 0.4, 1.1, 0.6, alpha=1.6)
        op = make_operator(1.6, 16)
        build_system_matrix(p, grid, 0.05, op)
        (A,) = built
        expected = (1 - 0.05 * 0.6 / 2) * np.eye(15) + 0.025 * (0.7 - 0.3j) * grid.h**-1.6 * op.C
        assert np.allclose(A, expected, rtol=0, atol=1e-15)
        assert np.array_equal(A, A.T)
        assert not np.allclose(A, A.conj().T)

    @pytest.mark.parametrize("tau, gamma", [(0.5, 4.0), (0.1, 25.0), (2.0, 1.5)])
    def test_tau_gamma_at_least_two_rejected(self, tau, gamma):
        grid = GridSpec(-1.0, 1.0, 8)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, gamma, alpha=1.5)
        product = f"{tau * gamma:g}"
        with pytest.raises(ValueError, match=rf"tau = {tau:g}, gamma = {gamma:g}, tau \* gamma = {product}"):
            build_system_matrix(p, grid, tau, make_operator(1.5, 8))

    @pytest.mark.parametrize(
        "tau, gamma",
        [(-0.05, 0.0), (0.0, 0.0), (math.inf, 0.0), (math.inf, -1.0), (math.nan, 0.0)],
    )
    def test_bad_tau_rejected_before_factorizing(self, monkeypatch, tau, gamma):
        def never(a):
            raise AssertionError("a rejected tau must not reach the factorization")

        monkeypatch.setattr(stepper_mod, "lu_factor", never)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, gamma, alpha=1.5)
        with pytest.raises(ValueError, match=r"^tau must be positive and finite"):
            build_system_matrix(p, GridSpec(-1.0, 1.0, 8), tau, make_operator(1.5, 8))

    @staticmethod
    def build_peak(m):
        """The tracemalloc peak of one ``build_system_matrix`` on m cells."""
        p = ModelParams(0.3, 0.5, 0.1, -1.0, 0.0, alpha=1.6)
        grid, op = GridSpec(-16.0, 16.0, m), make_operator(1.6, m)
        tracemalloc.start()
        try:
            build_system_matrix(p, grid, 0.01, op)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_section_seed_buffer(self):
        # beyond 99 unknowns A is never formed: the one dense buffer is the
        # fixed 99-order section the seed LU is made in, and the rest is O(M),
        # about 610 bytes a cell (the half-block LU took 72 MiB at this M)
        m = 4096
        assert m - 1 > stepper_mod._GS_SEED_ORDER
        assert self.build_peak(m) <= 16 * stepper_mod._GS_SEED_ORDER**2 + 1024 * m

    @pytest.mark.parametrize("m", [100, 300])
    def test_dense_buffer_is_at_most_the_section(self, m):
        # 99 unknowns: the section is A; 299: A is never formed. Either way the one
        # dense buffer is of order at most 99 (a dense A at M = 300 is 1.4 MiB)
        assert self.build_peak(m) <= 16 * stepper_mod._GS_SEED_ORDER**2 + 1024 * m

    def test_solver_switches_at_crossover(self):
        # 99 unknowns: the dense LU of A; 100: the LU of its 99-order section
        # seeds the Gohberg-Semencul inverse, and only its spectra are kept
        p = ModelParams(0.3, 0.5, 0.1, -1.0, 0.0, alpha=1.6)
        sizes = (stepper_mod._GS_SEED_ORDER + 1, stepper_mod._GS_SEED_ORDER + 2)
        for m in sizes:
            grid, op = GridSpec(-16.0, 16.0, m), make_operator(1.6, m)
            system = build_system_matrix(p, grid, 0.01, op)
            n = m - 1
            if n <= stepper_mod._GS_SEED_ORDER:
                assert system.spectra is None and system.lu.shape == (n, n)
                assert system.lu.dtype == complex
            else:
                assert system.lu is None and system.piv is None
                assert system.spectra.shape == (2, 2, fft_length(2 * n - 1))
            A = midpoint_matrix(p, grid, 0.01, op)
            b = np.random.default_rng(m).standard_normal((n, 2)) @ np.array([1.0, 1j])
            dense = np.linalg.solve(A, b)
            assert np.max(np.abs(system.solve(b) - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("m", [40, 100, 101, 350, 351, 352])
    def test_factor_nbytes_is_the_kept_factor(self, m):
        # the dense LU up to 99 unknowns; beyond them the spectra, and no LU
        p = ModelParams(0.3, 0.5, 0.1, -1.0, 0.0, alpha=1.6)
        system = build_system_matrix(p, GridSpec(-16.0, 16.0, m), 0.01, make_operator(1.6, m))
        kept = system.lu if system.spectra is None else system.spectra
        assert system.spectra is None or system.lu is None
        assert stepper_mod.factor_nbytes(m) == kept.nbytes

    def test_factor_beyond_physical_memory_rejected_before_allocating(self, monkeypatch):
        # the size rule of every run: one byte short of M = 80's dense LU, and no
        # buffer of A is built
        def never(*args, **kwargs):
            raise AssertionError("an oversized factor must not be allocated")

        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 16 * 79**2 - 1)
        monkeypatch.setattr(stepper_mod, "lu_factor", never)
        monkeypatch.setattr(stepper_mod, "symmetric_toeplitz", never)
        p = ModelParams(0.3, 0.5, 0.1, -1.0, 0.0, alpha=1.6)
        with pytest.raises(ValueError, match=r"^M = 80 needs a .* GiB midpoint factor, more than"):
            build_system_matrix(p, GridSpec(-16.0, 16.0, 80), 0.01, make_operator(1.6, 80))

    def test_factor_that_just_fits_built(self, monkeypatch):
        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 16 * 79**2)
        p = ModelParams(0.3, 0.5, 0.1, -1.0, 0.0, alpha=1.6)
        system = build_system_matrix(p, GridSpec(-16.0, 16.0, 80), 0.01, make_operator(1.6, 80))
        assert system.lu.nbytes == 16 * 79**2

    @pytest.mark.parametrize(
        "m, alpha, tau, upsilon, eta",
        [
            (2560, 1.6, 0.02, 0.001, 1.0),  # the sweep benchmark's A
            (1280, 1.6, 0.0005, 0.3, 0.5),  # the fine reference's A
            (400, 1.8, 0.02, 1.0, 1.0),
            (4096, 2.0, 1.0, 1.0, 1.0),
            (4096, 1.1, 1.0, 1.0, 1.0),
        ],
    )
    def test_section_seed_refined_in_few_corrections(self, m, alpha, tau, upsilon, eta):
        # from the 99-order section's generator (residual 2.3e-3 to 8.7e-8) every
        # correction reduces the residual until it reaches rounding level, at most
        # eight in all with the one correction made past that level
        p = ModelParams(upsilon, eta, 1.0, -2.0, 0.0, alpha=alpha)
        grid, op = GridSpec(-16.0, 16.0, m), make_operator(alpha, m)
        F = build_system_matrix(p, grid, tau, op)
        seed, *corrected = F.residuals
        assert 1e-10 < seed < 5e-3
        assert 2 <= len(corrected) <= 8
        assert_refined_one_past_rounding(F.residuals)
        b = np.random.default_rng(m).standard_normal((m - 1, 2)) @ np.array([1.0, 1j])
        x = F.solve(b)
        if m <= 1280:
            dense = np.linalg.solve(midpoint_matrix(p, grid, tau, op), b)
            assert np.max(np.abs(x - dense)) <= 1e-13 * np.max(np.abs(dense))
        # A x by direct summation, no FFT, at every size
        col = midpoint_column(p, grid, tau, op)
        product = np.convolve(np.concatenate((col[:0:-1], col)), x)[m - 2 : 2 * m - 3]
        assert np.max(np.abs(product - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize(
        "alpha, m, tau, upsilon",
        [(1.1, 4096, 1.0, 1.0), (2.0, 4096, 1.0, 1.0), (1.5, 8192, 1e3, 0.0),
         (1.05, 8192, 1.0, 1.0), (1.6, 16384, 0.02, 1.0), (2.0, 4096, 10.0, 1.0)],
    )
    def test_section_seed_stress_table(self, alpha, m, tau, upsilon):
        # large M, large tau, alpha near 1 and the dispersive limit: each
        # correction above rounding level reduces the residual (up to twelve at
        # tau 1e3), one more is made from that level, the last residual stays
        # there, and the probe passes the 1e-13 backward-error gate; at alpha 2
        # and tau 10, cond(A) leaves the probe's relative residual at 1.8e-12
        p = ModelParams(upsilon, 1.0, 1.0, -2.0, 0.0, alpha=alpha)
        F = build_system_matrix(p, GridSpec(-16.0, 16.0, m), tau, make_operator(alpha, m))
        assert_refined_one_past_rounding(F.residuals)

    def test_refinement_independent_of_the_seed_order(self):
        # alpha 2, tau 1 (cond(A) about 1.2e4): refined one correction past rounding
        # level, generators seeded from sections of order 64 to 400 all pass the gate
        # and solve alike; stopped at the first residual at that level, the 400-order
        # seed failed the gate and the solves differed by 4e-12
        m, tau = 2048, 1.0
        grid = GridSpec(-16.0, 16.0, m)
        p = ModelParams(1.0, 1.0, 1.0, -2.0, 0.0, alpha=2.0)
        col = midpoint_column(p, grid, tau, make_operator(2.0, m))
        b = np.random.default_rng(64).standard_normal((m - 1, 2)) @ np.array([1.0, 1j])
        solves = []
        for order in (64, stepper_mod._GS_SEED_ORDER, 349, 400):
            seed = linalg_mod.lu_factor(linalg_mod.symmetric_toeplitz(col[:order]))
            F = seed.with_gohberg_semencul(col)
            assert_refined_one_past_rounding(F.residuals)
            solves.append(F.solve(b))
        scale = np.max(np.abs(solves[0]))
        assert all(np.max(np.abs(x - solves[0])) <= 1e-13 * scale for x in solves[1:])

    def test_refined_solve_matches_dense_at_large_tau(self):
        # M >= 2048 at alpha 2 and tau 1: A's entries reach about 1e4, and the
        # 99-order section's seed still refines to the dense double solve
        m, tau = 2048, 1.0
        grid = GridSpec(-16.0, 16.0, m)
        p = ModelParams(1.0, 1.0, 1.0, -2.0, 0.0, alpha=2.0)
        op = make_operator(2.0, m)
        F = build_system_matrix(p, grid, tau, op)
        b = np.random.default_rng(2048).standard_normal((m - 1, 2)) @ np.array([1.0, 1j])
        dense = np.linalg.solve(midpoint_matrix(p, grid, tau, op), b)
        assert np.max(np.abs(F.solve(b) - dense)) <= 1e-12 * np.max(np.abs(dense))

    @settings(deadline=None, max_examples=12)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True),
        upsilon=st.floats(0.0, 2.0),
        eta=st.floats(-2.0, 2.0),
        tau=st.floats(1e-4, 0.05),
        tau_gamma=st.floats(-4.0, 1.9),
        M=st.integers(stepper_mod._GS_SEED_ORDER + 2, 1500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gohberg_semencul_matches_dense_solve(
        self, alpha, upsilon, eta, tau, tau_gamma, M, seed
    ):
        grid = GridSpec(-16.0, 16.0, M)
        p = ModelParams(upsilon, eta, 1.0, 1.0, tau_gamma / tau, alpha=alpha)
        op = make_operator(alpha, M)
        F = build_system_matrix(p, grid, tau, op)
        assert F.spectra is not None
        A = midpoint_matrix(p, grid, tau, op)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(M - 1) + 1j * rng.standard_normal(M - 1)
        dense = np.linalg.solve(A, b)
        x = F.solve(b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_operator_mismatch_rejected(self):
        grid = GridSpec(-1.0, 1.0, 8)
        op = make_operator(1.5, 10)
        p = ModelParams(1.0, 0.0, 0.0, 0.0, 0.0, alpha=1.5)
        with pytest.raises(ValueError, match="operator"):
            build_system_matrix(p, grid, 0.1, op)


class TestFixedPointStep:
    def test_identity_dynamics(self):
        grid = GridSpec(-1.0, 1.0, 10)
        p = ModelParams(0.0, 0.0, 0.0, 0.0, 0.0, alpha=1.5)
        op = make_operator(1.5, 10)
        F = build_system_matrix(p, grid, 0.1, op)
        rng = np.random.default_rng(22)
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        u_next, diag = fixed_point_step(u, no_levels(u), F, p, grid, SolverSettings(), op)
        assert np.array_equal(u_next, u)
        assert diag.iterations == 1

    def test_linear_step_matches_direct_solve(self):
        # kappa = zeta = 0: one midpoint step is a single linear solve
        grid = GridSpec(-5.0, 5.0, 40)
        p = ModelParams(0.8, 0.5, 0.0, 0.0, 0.3, alpha=1.7)
        tau = 0.02
        op = make_operator(1.7, 40)
        F = build_system_matrix(p, grid, tau, op)
        u0 = gaussian(grid.interior_nodes()).astype(complex)

        n = 39
        A = (1 - tau * 0.3 / 2) * np.eye(n, dtype=complex) + (tau / 2) * (
            0.8 + 0.5j
        ) * grid.h ** (-1.7) * op.C
        z = np.linalg.solve(A, u0)
        expected = 2 * z - u0

        u_next, diag = fixed_point_step(u0, no_levels(u0), F, p, grid, SolverSettings(), op)
        assert np.max(np.abs(u_next - expected)) < 1e-12
        assert diag.iterations <= 3

    def test_energy_identity_residual_small(self):
        grid = GridSpec(-10.0, 10.0, 400)
        time = TimeGrid(1.0, 20)
        traj = run_simulation(EXAMPLE_PARAMS, grid, time, gaussian)
        assert np.max(np.abs(traj.energy_residuals)) < 1e-10

    def test_nonconvergence_raises(self):
        grid = GridSpec(-10.0, 10.0, 50)
        p = ModelParams(1.0, 1.0, 5.0, 3.0, 0.0, alpha=1.8)
        op = make_operator(1.8, 50)
        F = build_system_matrix(p, grid, 5.0, op)
        u = 5.0 * gaussian(grid.interior_nodes()).astype(complex)
        with pytest.raises(NonConvergence) as err:
            fixed_point_step(u, no_levels(u), F, p, grid, SolverSettings(max_iters=2), op)
        assert len(err.value.increments) == 2

    def test_system_without_time_step_rejected(self):
        grid = GridSpec(-10.0, 10.0, 50)
        op = make_operator(1.8, 50)
        system = linalg_mod.lu_factor(np.eye(49, dtype=complex))
        assert system.tau is None
        u = gaussian(grid.interior_nodes())
        with pytest.raises(ValueError, match="build_system_matrix"):
            fixed_point_step(u, no_levels(u), system, EXAMPLE_PARAMS, grid, SolverSettings(), op)

    def test_non_finite_iterate_detected_from_increment(self):
        # the fifth iterate is the first non-finite one (its |z|^2 overflows);
        # the check must stop at that solve, as a separate isfinite pass would
        grid = GridSpec(-10.0, 10.0, 50)
        p = ModelParams(1.0, 1.0, 8.0, 5.0, 0.0, alpha=1.8)
        op = make_operator(1.8, 50)
        F = build_system_matrix(p, grid, 5.0, op)
        u = 5.0 * np.exp(-grid.interior_nodes() ** 2).astype(complex)
        with pytest.raises(NonConvergence, match="non-finite") as err:
            fixed_point_step(u, no_levels(u), F, p, grid, SolverSettings(), op)
        assert err.value.iterations == 5

    def test_divergence_raises_without_numpy_warnings(self):
        # the case above: overflow in the diverging iterate must not surface as
        # a RuntimeWarning before the NonConvergence, which carries the increments
        grid = GridSpec(-10.0, 10.0, 50)
        p = ModelParams(1.0, 1.0, 8.0, 5.0, 0.0, alpha=1.8)
        op = make_operator(1.8, 50)
        F = build_system_matrix(p, grid, 5.0, op)
        u = 5.0 * np.exp(-grid.interior_nodes() ** 2).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="non-finite") as err:
                fixed_point_step(u, no_levels(u), F, p, grid, SolverSettings(), op)
        assert err.value.iterations == 5
        increments = err.value.increments
        assert len(increments) == 5
        assert all(math.isfinite(d) for d in increments[:4])
        # |z_5| >= increments[4] - |z_4|, and |z_4| <= |u| + the first four
        # increments: the fifth iterate is too large for its |z|^2 to be finite
        fifth = increments[4] - sum(increments[:4]) - np.max(np.abs(u))
        assert fifth > math.sqrt(np.finfo(float).max)

    @pytest.mark.parametrize("history", ["none", "empty"], ids=["none", "empty"])
    def test_first_level_starts_from_u_n(self, history):
        # no earlier level: the start is u^n, so the first right-hand side is
        # u - (tau/2)(kappa + i zeta)|u|^2 u, with no explicit operator product.
        # "none" passes a fresh array of zero rows; "empty" the run's level buffer
        # sliced to zero rows, its unread rows filled so that reading one would show
        grid = GridSpec(-10.0, 10.0, 60)
        op = make_operator(1.8, 60)
        tau = 0.05
        F = build_system_matrix(EXAMPLE_PARAMS, grid, tau, op)
        u = (1.0 + 0.5j) * gaussian(grid.interior_nodes())
        rhs = []
        solve = F.solve
        F.solve = lambda b: rhs.append(np.array(b)) or solve(b)
        if history == "none":
            history = no_levels(u)
        else:
            history = np.full((4, u.size), 1.0 + 1.0j)[:0]
        fixed_point_step(u, history, F, EXAMPLE_PARAMS, grid, SolverSettings(), op)
        cubic = EXAMPLE_PARAMS.kappa + 1j * EXAMPLE_PARAMS.zeta
        expected = u - (tau / 2.0) * cubic * np.abs(u) ** 2 * u
        assert np.max(np.abs(rhs[0] - expected)) <= 1e-15

    def test_history_of_the_wrong_length_rejected(self):
        grid = GridSpec(-5.0, 5.0, 40)
        op = make_operator(1.6, 40)
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.6)
        F = build_system_matrix(p, grid, 0.01, op)
        u = gaussian(grid.interior_nodes()).astype(complex)
        with pytest.raises(ValueError, match=r"^history must be a 2-D array of levels of 39 "):
            fixed_point_step(u, u[None, :-1], F, p, grid, SolverSettings(), op)

    @pytest.mark.parametrize(
        "history", [None, [], "levels"], ids=["none", "empty-list", "list-of-levels"]
    )
    def test_history_not_a_2d_array_rejected(self, history):
        # a list of correct levels is refused too: the run passes its own 2-D buffer
        grid = GridSpec(-5.0, 5.0, 40)
        op = make_operator(1.6, 40)
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.6)
        F = build_system_matrix(p, grid, 0.01, op)
        u = gaussian(grid.interior_nodes()).astype(complex)
        history = [u, u] if history == "levels" else history
        with pytest.raises(ValueError, match=r"^history must be a 2-D array of levels of 39 "):
            fixed_point_step(u, history, F, p, grid, SolverSettings(), op)

    def test_field_from_another_grid_rejected(self):
        # u_n is the values alone; those of another grid have another length
        grid = GridSpec(-5.0, 5.0, 32)
        op = make_operator(1.6, 32)
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.6)
        F = build_system_matrix(p, grid, 0.01, op)
        u = gaussian(GridSpec(-5.0, 5.0, 40).interior_nodes()).astype(complex)
        with pytest.raises(ValueError, match=r"shape \(39,\) is not one vector of the system size 31"):
            fixed_point_step(u, no_levels(u), F, p, grid, SolverSettings(), op)


class TestExtrapolatedStart:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_exact_up_to_the_history_length(self, length):
        # levels on a polynomial p of degree <= length in the level index:
        # the start is (p(n) + p(n+1)) / 2 to rounding, one degree more is off
        # by half the extrapolation error, -c (length + 1)! / 2 for leading coefficient c
        rng = np.random.default_rng(length)
        n = length
        coeffs = rng.standard_normal((length + 2, 7)) + 1j * rng.standard_normal((length + 2, 7))

        def p(t, degree):
            return sum(coeffs[d] * float(t) ** d for d in range(degree + 1))

        for degree in range(length + 1):
            levels = np.array([p(n - j, degree) for j in range(1, length + 1)])
            start = stepper_mod._extrapolated_start(p(n, degree), levels)
            expected = (p(n, degree) + p(n + 1, degree)) / 2
            assert np.max(np.abs(start - expected)) <= 1e-12 * np.max(np.abs(expected))
        degree = length + 1
        levels = np.array([p(n - j, degree) for j in range(1, length + 1)])
        start = stepper_mod._extrapolated_start(p(n, degree), levels)
        expected = (p(n, degree) + p(n + 1, degree)) / 2
        off = -coeffs[degree] * math.factorial(length + 1) / 2
        assert np.max(np.abs(off)) > 0.1
        assert np.max(np.abs(start - expected - off)) <= 1e-12 * np.max(np.abs(expected))

    def test_at_most_four_earlier_levels_count(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(6) + 0j
        levels = rng.standard_normal((6, 6)) + 0j
        start = stepper_mod._extrapolated_start(u, levels)
        assert np.array_equal(start, stepper_mod._extrapolated_start(u, levels[:4]))


class TestRunSimulation:
    def test_zero_steps_not_allowed_but_initial_recorded(self):
        # N >= 1 by construction; the trajectory always includes the t=0 state
        grid = GridSpec(-10.0, 10.0, 100)
        traj = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.05, 1), gaussian)
        x = grid.interior_nodes()
        expected = grid.h * np.sum(gaussian(x) ** 2)
        assert traj.norm_sq[0] == pytest.approx(expected, rel=1e-14)
        assert traj.iterations.size == traj.final_increments.size == traj.energy_residuals.size == 1

    def test_norm_monotone_for_dissipative_run(self):
        # gamma <= 0, kappa >= 0: the discrete norm cannot grow
        grid = GridSpec(-10.0, 10.0, 400)
        traj = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 20), gaussian)
        norms = np.sqrt(traj.norm_sq)
        assert np.all(norms[1:] <= norms[:-1] + 1e-10)

    def test_gamma_positive_bound(self):
        # tau = 0.05 <= 1/(2 gamma): ||u^n||^2 <= exp(4 gamma T) ||u^0||^2
        gamma = 3.0
        p = ModelParams(1.0, 1.0, 1.0, 2.0, gamma, alpha=1.8)
        grid = GridSpec(-10.0, 10.0, 400)
        T = 1.0
        traj = run_simulation(p, grid, TimeGrid(T, 20), gaussian)
        bound = np.exp(4 * gamma * T) * traj.norm_sq[0] * (1 + 1e-8)
        assert np.all(traj.norm_sq <= bound)

    def test_conservative_reduction_preserves_norm(self):
        # upsilon = kappa = gamma = 0: pure dispersive dynamics, norm constant
        p = ModelParams(0.0, 1.0, 0.0, -2.0, 0.0, alpha=1.5)
        grid = GridSpec(-10.0, 10.0, 128)
        traj = run_simulation(p, grid, TimeGrid(1.0, 100), gaussian)
        drift = np.abs(np.sqrt(traj.norm_sq) - np.sqrt(traj.norm_sq[0]))
        assert np.max(drift) < 1e-10

    def test_deterministic_reruns(self):
        grid = GridSpec(-10.0, 10.0, 120)
        t1 = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.5, 10), gaussian)
        t2 = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.5, 10), gaussian)
        assert np.array_equal(t1.final, t2.final)
        assert np.array_equal(t1.norm_sq, t2.norm_sq)

    def test_iteration_count_small_at_benchmark_scale(self):
        grid = GridSpec(-10.0, 10.0, 400)
        traj = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 50), gaussian)
        assert traj.iterations.max() <= 10

    def test_quadratic_start_keeps_the_fixed_point(self):
        # beyond _GS_SEED_ORDER: Gohberg-Semencul solves against a dense LU loop
        # started by linear extrapolation; same answer, fewer inner solves
        grid = GridSpec(-10.0, 10.0, 400)
        time = TimeGrid(1.0, 50)
        assert grid.M - 1 > stepper_mod._GS_SEED_ORDER
        traj = run_simulation(EXAMPLE_PARAMS, grid, time, gaussian)
        expected, oracle_iters = linear_predictor_run(EXAMPLE_PARAMS, grid, time, gaussian)
        assert np.max(np.abs(traj.final - expected)) <= 1e-12
        assert traj.iterations.sum() < oracle_iters

    def test_extrapolated_start_keeps_the_fixed_point_on_the_lu_path(self):
        # the test above at _GS_SEED_ORDER, where the run's own solves are LU solves
        grid = GridSpec(-10.0, 10.0, 100)
        time = TimeGrid(1.0, 50)
        assert grid.M - 1 <= stepper_mod._GS_SEED_ORDER
        traj = run_simulation(EXAMPLE_PARAMS, grid, time, gaussian)
        expected, oracle_iters = linear_predictor_run(EXAMPLE_PARAMS, grid, time, gaussian)
        assert np.max(np.abs(traj.final - expected)) <= 1e-12
        assert traj.iterations.sum() < oracle_iters

    def test_soliton_inner_iterations_bounded(self):
        # 200 small steps of the sech soliton: from the fifth level on the
        # quartic start leaves about one inner solve per step
        p = sech_soliton_model_params(alpha=1.6)
        grid = GridSpec(-16.0, 16.0, 320)
        traj = run_simulation(p, grid, TimeGrid(0.2, 200), lambda x: sech_soliton_solution(x, 0.0))
        assert traj.iterations.sum() <= 400

    def test_snapshots_recorded_at_grid_times(self):
        grid = GridSpec(-10.0, 10.0, 100)
        traj = run_simulation(
            EXAMPLE_PARAMS, grid, TimeGrid(1.0, 20), gaussian, snapshot_times=(0.0, 0.5, 1.0)
        )
        assert set(traj.snapshots) == {0.0, 0.5, 1.0}
        assert np.array_equal(traj.snapshots[1.0], traj.final)

    def test_final_shares_no_memory(self):
        # final, the snapshots and the caller's u0 are each their own array, so a
        # restart that works on traj.final in place leaves the others as they were
        grid = GridSpec(-10.0, 10.0, 100)
        u0 = gaussian(grid.interior_nodes()).astype(complex)
        kept = u0.copy()
        traj = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 20), u0, snapshot_times=(0.0, 1.0))
        last = traj.snapshots[1.0].copy()
        traj.final *= 2.0
        assert np.array_equal(traj.snapshots[1.0], last)
        assert np.array_equal(traj.snapshots[0.0], kept)
        assert np.array_equal(u0, kept)

    def test_off_grid_snapshot_rejected(self):
        grid = GridSpec(-10.0, 10.0, 100)
        with pytest.raises(ValueError, match="time grid"):
            run_simulation(
                EXAMPLE_PARAMS, grid, TimeGrid(1.0, 20), gaussian, snapshot_times=(0.503,)
            )

    @pytest.mark.parametrize("offset, on_grid", [(0.0, True), (2e-12, True), (2e-11, False)])
    def test_snapshot_judged_by_the_whole_step_rule(self, offset, on_grid):
        # step 5 at tau = 1e-3: 2e-12 is 2e-9 of a step off, inside the rule's
        # 1e-9 of the 5-step ratio, while 2e-11 is 2e-8 off; a rule that compared
        # times against 1e-9 max(1, T) admitted both
        time_grid, t = TimeGrid(0.01, 10), 0.005 + offset
        if on_grid:
            assert snapshot_steps(time_grid, (0.0, t)) == {0: 0.0, 5: t}
        else:
            with pytest.raises(ValueError, match="does not lie on the time grid"):
                snapshot_steps(time_grid, (t,))

    def test_two_snapshot_times_on_one_level_rejected(self):
        # 1e-10 is 2e-10 of a step off level 1, so both times lie on it, and one
        # snapshot would silently replace the other
        grid = GridSpec(-10.0, 10.0, 100)
        with pytest.raises(ValueError, match=r"0\.5 and 0\.5000000001 fall on one time level 1"):
            run_simulation(
                EXAMPLE_PARAMS, grid, TimeGrid(1.0, 2), gaussian, snapshot_times=(0.5, 0.5 + 1e-10)
            )
        assert snapshot_steps(TimeGrid(1.0, 2), (0.5, 1.0, 0.5)) == {1: 0.5, 2: 1.0}

    def test_nonconvergence_reports_step(self):
        p = ModelParams(1.0, 1.0, 8.0, 5.0, 0.0, alpha=1.8)
        grid = GridSpec(-10.0, 10.0, 50)
        with pytest.raises(NonConvergence) as err:
            run_simulation(
                p,
                grid,
                TimeGrid(10.0, 2),
                lambda x: 5.0 * gaussian(x),
                SolverSettings(max_iters=3),
            )
        assert err.value.step == 0

    def test_divergence_reported_at_its_step_without_warnings(self):
        # README coefficients at tau 1: the first step's iterate overflows
        # |z|^2 while its increment is still finite; that must not pass the
        # relative stopping test, nor raise numpy warnings on the way
        grid = GridSpec(-10.0, 10.0, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="non-finite") as err:
                run_simulation(
                    EXAMPLE_PARAMS, grid, TimeGrid(2.0, 2), lambda x: 2.0 * gaussian(x)
                )
        assert err.value.step == 0
        assert len(err.value.increments) == err.value.iterations
        assert math.isfinite(err.value.increments[-1])

    def test_readme_case_converges_at_tau_half(self):
        # the case above at tau 0.5: started from u^n, the first level's
        # iteration contracts, and the energy balances to rounding
        grid = GridSpec(-10.0, 10.0, 400)
        traj = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 2), lambda x: 2.0 * gaussian(x))
        assert traj.energy_residuals.size == 2
        assert np.max(np.abs(traj.energy_residuals)) <= 1e-10

    def test_initial_length_validated(self):
        grid = GridSpec(-10.0, 10.0, 100)
        with pytest.raises(ValueError, match="initial"):
            run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 10), np.zeros(50))

    def test_initial_field_from_another_grid_rejected(self):
        # u0 is a callable or values; those of another grid have another length
        grid = GridSpec(-5.0, 5.0, 32)
        u0 = gaussian(GridSpec(-5.0, 5.0, 40).interior_nodes())
        with pytest.raises(ValueError, match="initial data has 39 values, expected 31"):
            run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 10), u0)

    def test_initial_field_on_the_grid_accepted(self):
        # values sampled on the grid run as the callable does, and a restart
        # passes the final values of a run on the same grid
        grid = GridSpec(-5.0, 5.0, 32)
        values = gaussian(grid.interior_nodes())
        from_callable = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.2, 4), gaussian)
        from_values = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.2, 4), values)
        assert np.array_equal(from_callable.final, from_values.final)
        restart = run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(0.2, 4), from_values.final)
        assert restart.norm_sq[0] == from_values.norm_sq[-1]
        assert np.max(np.abs(restart.energy_residuals)) <= 1e-10

    @pytest.mark.parametrize(
        "u0",
        [np.full(99, np.nan), lambda x: np.where(x > 0.0, np.inf, gaussian(x))],
        ids=["nan-array", "inf-callable"],
    )
    def test_non_finite_initial_data_rejected(self, u0):
        # rejected before the first step, not as a NonConvergence at step 0
        grid = GridSpec(-10.0, 10.0, 100)
        with pytest.raises(ValueError, match="initial data must be finite"):
            run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 10), u0)

    @pytest.mark.parametrize(
        "u0",
        [lambda x: gaussian(x)[:, None], gaussian(np.linspace(-10.0, 10.0, 1025)[1:-1])[None]],
        ids=["column-callable", "row-array"],
    )
    def test_initial_data_not_1d_rejected_before_the_factor(self, u0, monkeypatch):
        # both have M - 1 values; a column once ran 1023-column solves, a row
        # failed inside the first solve, after the factor was built
        builds = []
        monkeypatch.setattr(stepper_mod, "build_system_matrix",
                            lambda *args: builds.append(args))
        grid = GridSpec(-10.0, 10.0, 1024)
        with pytest.raises(ValueError, match="field values must be a 1-D sequence"):
            run_simulation(EXAMPLE_PARAMS, grid, TimeGrid(1.0, 10), u0)
        assert builds == []

    def test_oversized_grid_rejected_before_allocating(self, monkeypatch):
        # M = 4e6 needs 0.477 GiB of Gohberg-Semencul spectra, more than a 0.25 GiB
        # host: rejected before the initial data or the operator, about 150 MiB
        # at this M, is built
        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 2**28)
        tracemalloc.start()
        try:
            expected = r"^M = 4000000 needs a 0\.477 GiB midpoint factor, more than the 0\.25 GiB"
            with pytest.raises(ValueError, match=expected):
                run_simulation(
                    EXAMPLE_PARAMS, GridSpec(-10.0, 10.0, 4_000_000), TimeGrid(1.0, 20), gaussian
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_time_step_checked_before_the_initial_data(self):
        def never(x):
            raise AssertionError("a run that may not start must not sample its initial data")

        p = ModelParams(1.0, 1.0, 1.0, 2.0, 40.0, alpha=1.8)
        with pytest.raises(ValueError, match=r"^tau \* gamma must be < 2"):
            run_simulation(p, GridSpec(-10.0, 10.0, 40), TimeGrid(1.0, 20), never)


class TestEnergyBalance:
    @settings(deadline=None, max_examples=40)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True),
        upsilon=st.floats(0.0, 2.0),
        eta=st.floats(-2.0, 2.0),
        kappa=st.floats(-2.0, 2.0),
        zeta=st.floats(-2.0, 2.0),
        gamma=st.floats(-2.0, 2.0),
        tau=st.floats(1e-4, 0.01),
        M=st.integers(3, 600),
        steps=st.integers(1, 10),
        amplitude=st.floats(0.1, 1.0),
        wavenumber=st.floats(-2.0, 2.0),
    )
    def test_residual_at_most_1e_10(
        self, alpha, upsilon, eta, kappa, zeta, gamma, tau, M, steps, amplitude, wavenumber
    ):
        # tau gamma <= 0.02, and with |u0| <= 1 over t <= 0.1 the cubic term
        # cannot blow up, so every draw is a valid, convergent run
        p = ModelParams(upsilon, eta, kappa, zeta, gamma, alpha=alpha)
        traj = run_simulation(
            p,
            GridSpec(-10.0, 10.0, M),
            TimeGrid(tau * steps, steps),
            lambda x: amplitude * np.exp(-x * x + 1j * wavenumber * x),
        )
        assert np.max(np.abs(traj.energy_residuals)) <= 1e-10
