"""Benchmark machinery: exact solution, error norms, studies, restriction and
the verification suite."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fgle.experiments import (
    ExactReference,
    FineGridReference,
    convergence_grids,
    convergence_study,
    error_norms,
    inviscid_limit_study,
    norm_decay_study,
    restrict_to_coarse,
    sech_soliton_coefficients,
    sech_soliton_model_params,
    sech_soliton_solution,
    verify_suite,
)
from fgle.linalg import ComplexField, _cosine_moments
from fgle.stepper import GridSpec, ModelParams, TimeGrid
from fgle.wsgd import WsgdWeights, assemble_operator, symbol_f, wsgd_weights
from oracles import operator_refinement_orders


def gaussian(x):
    return np.exp(-2.0 * x * x)


class TestSechSoliton:
    def test_modulus_at_origin(self):
        c = sech_soliton_coefficients(0.3)
        u = sech_soliton_solution(0.0, 0.0, 0.3)
        assert abs(u) == pytest.approx(c.amplitude, rel=1e-14)

    def test_modulus_time_independent(self):
        x = np.linspace(-3, 3, 11)
        m0 = np.abs(sech_soliton_solution(x, 0.0, 0.3))
        m1 = np.abs(sech_soliton_solution(x, 1.7, 0.3))
        assert np.allclose(m0, m1, rtol=1e-14)

    def test_constants_match_high_precision_oracle(self):
        # frozen from a 40-digit arbitrary-precision evaluation at upsilon = 0.3
        c = sech_soliton_coefficients(0.3)
        assert c.chirp == pytest.approx(0.27698396494843349029, rel=1e-15)
        assert c.kappa == pytest.approx(-0.13337568346479610049, rel=1e-15)
        assert c.amplitude == pytest.approx(1.1004206059658791327, rel=1e-15)
        assert c.omega == pytest.approx(-0.62783032054978257799, rel=1e-15)

    def test_model_params_wired_to_benchmark(self):
        p = sech_soliton_model_params()
        assert (p.upsilon, p.eta, p.zeta, p.gamma, p.alpha) == (0.3, 0.5, -1.0, 0.0, 2.0)
        assert p.kappa == pytest.approx(sech_soliton_coefficients(0.3).kappa)

    def test_solves_classical_equation(self):
        # residual of u_t + (up + i eta)(-u_xx) + (kappa + i zeta)|u|^2 u
        # via high-order finite differences in t and x at a probe point
        p = sech_soliton_model_params()
        d = 1e-4

        def u(x, t):
            return sech_soliton_solution(x, t, 0.3)

        x0, t0 = 0.7, 0.5
        ut = (u(x0, t0 + d) - u(x0, t0 - d)) / (2 * d)
        uxx = (u(x0 + d, t0) - 2 * u(x0, t0) + u(x0 - d, t0)) / d**2
        val = u(x0, t0)
        res = ut + (p.upsilon + 1j * p.eta) * (-uxx) + (p.kappa + 1j * p.zeta) * abs(val) ** 2 * val
        assert abs(res) < 1e-6


class TestErrorNorms:
    def test_identical_fields(self):
        u = ComplexField(np.ones(8), h=0.5)
        assert error_norms(u, u) == (0.0, 0.0)

    def test_single_node_offset(self):
        h = 0.25
        u = ComplexField(np.zeros(8), h)
        vals = np.zeros(8, dtype=complex)
        vals[3] = 0.7j
        v = ComplexField(vals, h)
        l2, linf = error_norms(u, v)
        assert linf == pytest.approx(0.7, rel=1e-15)
        assert l2 == pytest.approx(math.sqrt(h) * 0.7, rel=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(30)
        h = 0.2
        u = ComplexField(rng.standard_normal(16) + 1j * rng.standard_normal(16), h)
        v = ComplexField(rng.standard_normal(16) + 1j * rng.standard_normal(16), h)
        l2, linf = error_norms(u, v)
        diffs = [abs(a - b) for a, b in zip(u.values, v.values)]
        assert l2 == pytest.approx(math.sqrt(h * sum(d * d for d in diffs)), rel=1e-14)
        assert linf == pytest.approx(max(diffs), rel=1e-14)

    def test_grid_mismatch(self):
        u = ComplexField(np.ones(8), 0.5)
        with pytest.raises(ValueError, match="field lengths differ: 8 vs 9"):
            error_norms(u, ComplexField(np.ones(9), 0.5))
        with pytest.raises(ValueError, match="field spacings differ: 0.5 vs 0.25"):
            error_norms(u, ComplexField(np.ones(8), 0.25))


class TestRestriction:
    def test_restrict_picks_shared_nodes(self):
        # fine interior values are f(x); restriction must equal f on coarse nodes
        a, b, m_fine, ratio = -2.0, 2.0, 32, 4
        fine_grid = GridSpec(a, b, m_fine)
        vals = np.sin(fine_grid.interior_nodes())
        coarse_grid = GridSpec(a, b, m_fine // ratio)
        expected = np.sin(coarse_grid.interior_nodes())
        assert np.allclose(restrict_to_coarse(vals, ratio), expected, atol=0)

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            restrict_to_coarse(np.zeros(10), 4)

    @pytest.mark.parametrize("ratio", [0, -2, 2.5, True])
    def test_ratio_must_be_a_count(self, ratio):
        message = f"ratio must be an integer >= 1, got {ratio!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            restrict_to_coarse(np.zeros(15), ratio)


class TestConvergenceStudy:
    def test_single_level_has_no_orders(self):
        p = sech_soliton_model_params()
        ref = ExactReference(lambda x, t: sech_soliton_solution(x, t, 0.3))
        rows = convergence_study(p, (-16.0, 16.0), 1.0, 0.1, 0.4, 1, ref)
        assert len(rows) == 1
        assert rows[0].order1 is None and rows[0].order2 is None

    def test_orders_are_hand_computed_log2_ratios(self):
        p = sech_soliton_model_params()
        ref = ExactReference(lambda x, t: sech_soliton_solution(x, t, 0.3))
        rows = convergence_study(p, (-16.0, 16.0), 1.0, 0.1, 0.4, 3, ref)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.order1 == pytest.approx(math.log2(prev.err_l2 / cur.err_l2), abs=0)
            assert cur.order2 == pytest.approx(math.log2(prev.err_linf / cur.err_linf), abs=0)
        # second order in both time and space for the classical benchmark
        assert rows[-1].order1 == pytest.approx(2.0, abs=0.3)

    def test_fine_reference_requires_nesting(self):
        p = sech_soliton_model_params()
        with pytest.raises(ValueError, match="multiple"):
            convergence_study(
                p,
                (-16.0, 16.0),
                1.0,
                0.1,
                0.4,
                2,
                FineGridReference(h_ref=0.15, tau_ref=0.05),
                u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
            )

    @pytest.mark.parametrize(
        "h_ref, tau_ref", [(0.0, 0.1), (-0.1, 0.1), (0.1, math.nan), (0.1, math.inf)]
    )
    def test_fine_reference_steps_positive_and_finite(self, h_ref, tau_ref):
        with pytest.raises(ValueError, match="must be positive and finite"):
            FineGridReference(h_ref, tau_ref)

    @pytest.mark.parametrize(
        "base_h, h_ref, tau_ref, message",
        [
            (0.4, 0.32, 0.025, "finest level grid: 0.2 is not an integer multiple of 0.32"),
            (0.6, 0.1, 0.025, "level 0 grid: 32.0 is not an integer multiple of 0.6"),
            (0.4, 0.2, 0.025, "h_ref must be at most half the finest level's 0.2"),
            (0.4, 0.1, 0.05, "tau_ref must be at most half the finest level's 0.05"),
            (0.4, 0.2, 0.02, "finest level time grid: 0.05 is not an integer multiple of 0.02"),
        ],
        ids=["finest-level-off-reference", "level-off-interval", "h_ref-not-finer",
             "tau_ref-not-finer", "divisibility-before-refinement"],
    )
    def test_no_run_before_every_grid_is_checked(self, monkeypatch, base_h, h_ref, tau_ref,
                                                 message):
        # the reference grid itself nests in [-16, 16] every time: the old
        # check ran the reference before it found the bad level grid. A
        # reference on the finest level's own grid left that level no error,
        # and the study's order then divided by zero
        import fgle.experiments as experiments

        calls = []
        monkeypatch.setattr(experiments, "run_simulation", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_study(
                sech_soliton_model_params(alpha=1.6),
                (-16.0, 16.0),
                0.5,
                0.1,
                base_h,
                2,
                FineGridReference(h_ref=h_ref, tau_ref=tau_ref),
                u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
            )
        assert calls == []

    @pytest.mark.parametrize(
        "memory, message",
        [
            (16 * 79**2 - 1, "level 1 grid: M = 80 needs a"),
            (64 * 3200 - 1, "reference grid: M = 1600 needs a"),
        ],
        ids=["level", "reference"],
    )
    def test_factor_beyond_physical_memory_rejected_before_any_run(
        self, monkeypatch, memory, message
    ):
        # levels at M = 40 and 80, dense LUs of 16 (M-1)^2 bytes, and reference at
        # M = 1600, Gohberg-Semencul spectra of 64 fft_length(2 (M-1) - 1) bytes;
        # one byte short of a factor rejects that grid
        import fgle.experiments as experiments
        import fgle.stepper as stepper

        calls = []
        monkeypatch.setattr(stepper, "_physical_memory", lambda: memory)
        monkeypatch.setattr(experiments, "run_simulation", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_study(
                sech_soliton_model_params(alpha=1.6),
                (-16.0, 16.0),
                0.5,
                0.1,
                0.8,
                2,
                FineGridReference(h_ref=0.02, tau_ref=0.025),
                u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
            )
        assert calls == []

    def test_factor_that_just_fits_accepted(self, monkeypatch):
        import fgle.experiments as experiments
        import fgle.stepper as stepper

        monkeypatch.setattr(stepper, "_physical_memory", lambda: 16 * 79**2)
        p = sech_soliton_model_params(alpha=1.6)
        runs, _ = experiments.convergence_grids(p, (-16.0, 16.0), 0.5, 0.1, 0.8, 2)
        assert [grid.M for _, _, grid, _ in runs] == [40, 80]

    def test_step_count_beyond_physical_memory_rejected_before_any_run(self, monkeypatch):
        # 500,000 steps keep 19.1 MiB of norms, times and diagnostics; the M = 40 factor fits
        import fgle.stepper as stepper

        monkeypatch.setattr(stepper, "_physical_memory", lambda: 2**20)
        with pytest.raises(ValueError, match=r"^level 0 grid: N = 500000 needs a .* GiB series"):
            convergence_grids(sech_soliton_model_params(), (-16.0, 16.0), 0.5, 1e-6, 0.8, 2)

    def test_reference_step_count_beyond_physical_memory_names_the_reference(self):
        # 10^12 reference steps keep 36.4 TiB of norms, times and diagnostics
        reference = FineGridReference(h_ref=0.1, tau_ref=1e-12)
        message = r"^reference time grid: N = 1000000000000 needs a 3\.73e\+04 GiB"
        with pytest.raises(ValueError, match=message):
            convergence_grids(sech_soliton_model_params(alpha=1.6), (-16.0, 16.0), 1.0, 0.2, 0.8, 2,
                              reference)

    @pytest.mark.parametrize("levels", [2.5, True, 0])
    def test_levels_must_be_an_integer(self, levels):
        message = f"levels must be an integer >= 1, got {levels!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_grids(sech_soliton_model_params(), (-16.0, 16.0), 0.5, 0.1, 0.8, levels)

    def test_time_step_of_level_zero_checked_before_the_reference_runs(self, monkeypatch):
        # gamma = 45 breaks tau gamma < 2 on level 0 only (tau = 0.05); the
        # M = 1280, 2000-step reference, which it does not break, must not run first
        import fgle.experiments as experiments

        calls = []
        monkeypatch.setattr(experiments, "run_simulation", lambda *a, **k: calls.append(a))
        p = dataclasses.replace(sech_soliton_model_params(alpha=1.6), gamma=45.0)
        message = "level 0 grid: tau * gamma must be < 2, got tau = 0.05, gamma = 45"
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_study(
                p,
                (-16.0, 16.0),
                1.0,
                0.05,
                0.2,
                2,
                FineGridReference(h_ref=0.025, tau_ref=0.0005),
                u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
            )
        assert calls == []

    def test_fine_reference_requires_initial_data(self):
        p = sech_soliton_model_params()
        with pytest.raises(ValueError, match="u0"):
            convergence_study(
                p, (-16.0, 16.0), 1.0, 0.1, 0.4, 2, FineGridReference(0.1, 0.05)
            )

    def test_fine_reference_self_convergence(self):
        # fractional alpha: no closed form, nested fine run as reference
        p = sech_soliton_model_params(alpha=1.6)
        rows = convergence_study(
            p,
            (-16.0, 16.0),
            0.5,
            0.1,
            0.8,
            2,
            FineGridReference(h_ref=0.1, tau_ref=0.025),
            u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
        )
        assert rows[1].order1 == pytest.approx(2.0, abs=0.4)


class TestNormDecayStudy:
    def test_gamma_ordering_and_initial_value(self):
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
        grid = GridSpec(-10.0, 10.0, 400)
        time = TimeGrid(1.0, 20)
        series = norm_decay_study(p, (-2.0, -4.0), grid, time, gaussian)
        t2, n2 = series[-2.0]
        t4, n4 = series[-4.0]
        assert n2[0] == pytest.approx(n4[0], rel=1e-14)
        assert np.all(n4[1:] <= n2[1:])

    def test_strong_damping_decays_tenfold(self):
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
        grid = GridSpec(-10.0, 10.0, 400)
        series = norm_decay_study(p, (-6.0,), grid, TimeGrid(1.0, 20), gaussian)
        _, norms = series[-6.0]
        assert norms[-1] < norms[0] / 10.0
        assert np.all(np.diff(norms) <= 1e-12)

    @pytest.mark.parametrize(
        "gammas, message",
        [
            ([], "gammas must list at least one value"),
            ([-2.0, 45.0], "tau = 0.05, gamma = 45, tau * gamma = 2.25"),
            ([-2.0, -2.0], "gammas: -2.0 is listed twice"),
        ],
        ids=["empty", "tau-gamma", "repeated"],
    )
    def test_every_gamma_checked_before_any_run(self, monkeypatch, gammas, message):
        import fgle.experiments as experiments

        calls = []
        run = experiments.run_simulation
        monkeypatch.setattr(
            experiments, "run_simulation", lambda *a, **k: calls.append(a) or run(*a, **k)
        )
        p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
        with pytest.raises(ValueError, match=re.escape(message)):
            norm_decay_study(p, gammas, GridSpec(-10.0, 10.0, 40), TimeGrid(1.0, 20), gaussian)
        assert calls == []


class TestInviscidLimit:
    def test_zero_pair_has_zero_deviation(self):
        p = ModelParams(0.0, 1.0, 0.0, -2.0, 0.0, alpha=1.5)
        grid = GridSpec(-10.0, 10.0, 200)
        out = inviscid_limit_study(p, [(0.0, 0.0)], grid, TimeGrid(0.5, 10), gaussian)
        assert out[0][2] == 0.0

    def test_deviations_decrease_with_coefficients(self):
        p = ModelParams(0.1, 1.0, 0.1, -2.0, 0.0, alpha=1.5)
        grid = GridSpec(-10.0, 10.0, 400)
        pairs = [(0.1, 0.1), (0.01, 0.01), (0.001, 0.001)]
        out = inviscid_limit_study(p, pairs, grid, TimeGrid(1.0, 20), gaussian)
        devs = [d for _, _, d in out]
        assert devs[0] > devs[1] > devs[2] > 0.0

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "pairs must list at least one value"),
            ([(0.1, 0.1), (-1.0, 0.0)], "upsilon must be >= 0, got -1.0"),
        ],
        ids=["empty", "negative-upsilon"],
    )
    def test_every_pair_checked_before_any_run(self, monkeypatch, pairs, message):
        import fgle.experiments as experiments

        calls = []
        run = experiments.run_simulation
        monkeypatch.setattr(
            experiments, "run_simulation", lambda *a, **k: calls.append(a) or run(*a, **k)
        )
        p = ModelParams(0.1, 1.0, 0.1, -2.0, 0.0, alpha=1.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            inviscid_limit_study(p, pairs, GridSpec(-10.0, 10.0, 40), TimeGrid(0.5, 10), gaussian)
        assert calls == []


@pytest.mark.parametrize(
    "study, values",
    [(norm_decay_study, (-2.0,)), (inviscid_limit_study, ((0.1, 0.1),))],
    ids=["decay", "inviscid"],
)
def test_oversized_grid_rejected_before_allocating(study, values, monkeypatch):
    # M = 4e6 needs 0.477 GiB of Gohberg-Semencul spectra, more than a 0.25 GiB
    # host: rejected before the operator or the initial data, about 120 MiB at
    # this M, is built
    import fgle.stepper as stepper

    monkeypatch.setattr(stepper, "_physical_memory", lambda: 2**28)
    p = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"M = 4000000 needs a 0\.477 GiB midpoint factor"):
            study(p, values, GridSpec(-10.0, 10.0, 4_000_000), TimeGrid(1.0, 20), gaussian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestOperatorRefinementOrders:
    @pytest.mark.parametrize("alpha", (1.3, 1.6, 1.9))
    def test_fractional_second_order(self, alpha):
        res = operator_refinement_orders(alpha, (-10.0, 10.0), 0.1, gaussian)
        assert 1.8 <= res.richardson_order <= 2.2

    def test_alpha2_matches_analytic_second_derivative(self):
        exact = lambda x: (4.0 - 16.0 * x * x) * np.exp(-2.0 * x * x)
        res = operator_refinement_orders(2.0, (-10.0, 10.0), 0.1, gaussian, exact=exact)
        assert 1.8 <= res.richardson_order <= 2.2
        for order in res.analytic_orders:
            assert 1.8 <= order <= 2.2


class TestVerifySuite:
    def test_default_alpha_grid_passes(self):
        report = verify_suite(grid_points=32, n_vectors=6)
        assert report.passed, [c.line() for c in report.failures()]

    def test_alphas_near_one_pass(self):
        # cos(alpha pi / 2) vanishes at alpha = 1: the column, the symbol and C_alpha
        # stay accurate there, where dividing by it failed operator_symbol at 1.00001
        report = verify_suite(alphas=(1 + 1e-9, 1.00001))
        assert report.passed, [c.line() for c in report.failures()]

    def test_oversized_grid_rejected_before_any_work(self, monkeypatch):
        # the energy-balance run at M = 400 keeps 51.2 kB of Gohberg-Semencul
        # spectra; without the check first, the suite reached a 3.9 MiB peak before the run's
        import fgle.stepper as stepper

        monkeypatch.setattr(stepper, "_physical_memory", lambda: 50_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^M = 400 needs a 4\.77e-05 GiB midpoint factor"):
                verify_suite(alphas=(1.5,), grid_points=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_suite_forms_no_dense_matrix(self):
        # the dense C alone is 8 (M-1)^2 bytes, 10.97 MiB at M = 1200
        tracemalloc.start()
        try:
            report = verify_suite(alphas=(1.5,), grid_points=1200, n_vectors=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 11 * 2**20

    @pytest.mark.parametrize("alphas, shown", [((1.5, 1.5), "1.5"), ((2, 1.5, 2.0), "2.0")])
    def test_repeated_alpha_rejected(self, alphas, shown):
        # every check of that alpha would run twice; 2 and 2.0 are one alpha
        with pytest.raises(ValueError, match=re.escape(f"alphas: {shown} is listed twice")):
            verify_suite(alphas=alphas, grid_points=32, n_vectors=4)

    def test_empty_alphas_rejected(self):
        # an empty suite would pass with no checks at all
        with pytest.raises(ValueError, match="alphas"):
            verify_suite(alphas=(), grid_points=32, n_vectors=4)
        with pytest.raises(ValueError, match="alphas"):
            verify_suite(alphas=np.array([]), grid_points=32, n_vectors=4)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"alphas": (1.5, 0.9)}, r"alphas: alpha must lie in \(1, 2\], got 0.9"),
            ({"n_vectors": 0}, "vectors must be an integer >= 1, got 0"),
            ({"grid_points": 2}, "grid_points must be an integer >= 3, got 2"),
            ({"n_vectors": 2.5}, "vectors must be an integer >= 1, got 2.5"),
            ({"n_vectors": True}, "vectors must be an integer >= 1, got True"),
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"grid_points": 16.0}, "grid_points must be an integer >= 3, got 16.0"),
            ({"weight_length": True}, "weight_length must be an integer >= 3, got True"),
        ],
    )
    def test_arguments_checked_as_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            verify_suite(**{"grid_points": 32, "n_vectors": 4, **kwargs})

    def test_alpha_array_accepted(self):
        report = verify_suite(alphas=np.array([1.5, 1.7]), grid_points=32, n_vectors=4)
        assert {c.alpha for c in report.checks} == {1.5, 1.7}
        assert report.passed

    def test_alpha2_symbol_constancy_checked(self):
        report = verify_suite(alphas=(2.0,), grid_points=32, n_vectors=4)
        names = {c.name for c in report.checks}
        assert "symbol_constant" in names
        assert report.passed

    def test_injected_perturbation_names_property(self, monkeypatch):
        import fgle.experiments as experiments_mod

        check = experiments_mod.check_weight_properties

        def check_tampered(w):
            bad = WsgdWeights(w.alpha, w.w.copy())
            bad.w[0] = -bad.w[0]
            return check(bad)

        monkeypatch.setattr(experiments_mod, "check_weight_properties", check_tampered)
        report = verify_suite(alphas=(1.5,), grid_points=32, n_vectors=4)
        assert not report.passed
        bad = [c for c in report.checks if c.name == "coefficient_properties"][0]
        assert not bad.passed
        assert "w0_positive" in bad.detail


class TestOperatorSymbol:
    @pytest.mark.parametrize("m", (3, 64, 1025))
    @pytest.mark.parametrize("alpha", (1.1, 1.3, 1.6, 1.9, 1.999))
    def test_column_matches_the_symbol(self, alpha, m):
        column = assemble_operator(wsgd_weights(alpha, m), m).column
        coefficients = _cosine_moments(alpha, m - 1, lambda t: symbol_f(alpha, t) / t**alpha)
        assert np.max(np.abs(column - coefficients)) <= 1e-12 * np.max(np.abs(coefficients))

    def test_column_scaled_by_1e_10_fails(self, monkeypatch):
        import fgle.experiments as experiments_mod

        def scaled(weights, M):
            operator = assemble_operator(weights, M)
            operator.column *= 1.0 + 1e-10
            return operator

        monkeypatch.setattr(experiments_mod, "assemble_operator", scaled)
        report = verify_suite(alphas=(1.5,), grid_points=64, n_vectors=4)
        assert [c.name for c in report.failures()] == ["operator_symbol"]
