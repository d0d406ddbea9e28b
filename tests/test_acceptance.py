"""Acceptance suite: every gate of the build runs here at its stated
tolerance, one criterion per test, one printed pass/fail line each.

Criterion 7 asserts the published coefficient inequalities literally,
including the leading partial sum w0 + w1 < 0. That inequality is provably
false for alpha < sqrt(6) - 1 (about 1.44949), so the criterion fails for
small alpha with the true weight sequence; see README ("Note on one known
property"). The checker itself, and every property that actually holds,
are verified green elsewhere in this file and in the unit suites.
"""

import math

import numpy as np

from fgle.experiments import (
    ExactReference,
    FineGridReference,
    convergence_study,
    inviscid_limit_study,
    sech_soliton_model_params,
    sech_soliton_solution,
)
from fgle.spectral import energy_equivalence_margins
from fgle.stepper import GridSpec, ModelParams, TimeGrid, run_simulation
from fgle.wsgd import assemble_operator, check_weight_properties, h_function, wsgd_weights
from oracles import cholesky, operator_refinement_orders


def gaussian(x):
    return np.exp(-2.0 * x * x)


def report(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance] criterion {num:2d} {status}: {label}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: " + " | ".join(failures)


TABLE1 = {
    # (tau, h) -> (err_l2, err_linf); observed orders between consecutive rows
    0: (5.5462e-3, 5.5486e-3),
    1: (1.3766e-3, 1.3691e-3),
    2: (3.4353e-4, 3.4117e-4),
}
TABLE1_ORDERS = {1: (2.0104, 2.0190), 2: (2.0026, 2.0046)}

TABLE2 = {
    1.3: ((1.2966e-2, 1.8415e-2), (3.1803e-3, 4.4581e-3)),
    1.6: ((1.0519e-2, 1.3001e-2), (2.5499e-3, 3.0928e-3)),
    1.9: ((6.7430e-3, 7.0782e-3), (1.6458e-3, 1.7127e-3)),
}


def test_criterion_01_exact_solution_convergence_table():
    params = sech_soliton_model_params()
    rows = convergence_study(
        params,
        (-16.0, 16.0),
        1.0,
        base_tau=0.02,
        base_h=0.2,
        levels=3,
        reference=ExactReference(lambda x, t: sech_soliton_solution(x, t, 0.3)),
    )
    failures = []
    for i, row in enumerate(rows):
        exp_l2, exp_linf = TABLE1[i]
        if abs(row.err_l2 - exp_l2) > 5e-3 * exp_l2:
            failures.append(f"row {i} l2 error {row.err_l2:.4e}, published {exp_l2:.4e}")
        if abs(row.err_linf - exp_linf) > 5e-3 * exp_linf:
            failures.append(f"row {i} linf error {row.err_linf:.4e}, published {exp_linf:.4e}")
        if i in TABLE1_ORDERS:
            o1, o2 = TABLE1_ORDERS[i]
            if abs(row.order1 - o1) > 0.02:
                failures.append(f"row {i} order1 {row.order1:.4f}, published {o1}")
            if abs(row.order2 - o2) > 0.02:
                failures.append(f"row {i} order2 {row.order2:.4f}, published {o2}")
    report(1, "classical-limit errors and orders reproduce the published table", failures)


def test_criterion_02_fractional_self_convergence():
    failures = []
    for alpha, published in TABLE2.items():
        params = sech_soliton_model_params(alpha=alpha)
        rows = convergence_study(
            params,
            (-16.0, 16.0),
            1.0,
            base_tau=0.02,
            base_h=0.2,
            levels=2,
            reference=FineGridReference(h_ref=0.025, tau_ref=0.0005),
            u0=lambda x: sech_soliton_solution(x, 0.0, 0.3),
        )
        for i, row in enumerate(rows):
            exp_l2, exp_linf = published[i]
            if not (exp_l2 / 2 <= row.err_l2 <= exp_l2 * 2):
                failures.append(
                    f"alpha={alpha} row {i} l2 {row.err_l2:.4e} vs published {exp_l2:.4e}"
                )
            if not (exp_linf / 2 <= row.err_linf <= exp_linf * 2):
                failures.append(
                    f"alpha={alpha} row {i} linf {row.err_linf:.4e} vs published {exp_linf:.4e}"
                )
        if not (1.85 <= rows[1].order1 <= 2.25):
            failures.append(f"alpha={alpha} order1 {rows[1].order1:.4f} outside [1.85, 2.25]")
        if not (1.85 <= rows[1].order2 <= 2.25):
            failures.append(f"alpha={alpha} order2 {rows[1].order2:.4f} outside [1.85, 2.25]")
    report(2, "fractional-order errors and orders against the nested fine reference", failures)


def test_criterion_03_discrete_energy_identity():
    params = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=1.8)
    traj = run_simulation(params, GridSpec(-10.0, 10.0, 400), TimeGrid(1.0, 20), gaussian)
    worst = float(np.max(np.abs(traj.energy_residuals)))
    failures = [] if worst <= 1e-10 else [f"max residual {worst:.3e} > 1e-10"]
    report(3, "per-step energy balance residual below 1e-10", failures)


def test_criterion_04_a_priori_bound():
    failures = []
    base = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=1.8)
    grid = GridSpec(-10.0, 10.0, 400)
    traj = run_simulation(base, grid, TimeGrid(1.0, 20), gaussian)
    norms = np.sqrt(traj.norm_sq)
    if not np.all(norms[1:] <= norms[:-1] + 1e-10):
        failures.append("norm grew on a dissipative (gamma = 0, kappa > 0) run")

    gamma = 3.0
    grown = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=gamma, alpha=1.8)
    traj = run_simulation(grown, grid, TimeGrid(1.0, 20), gaussian)  # tau = 0.05 <= 1/(2 gamma)
    bound = math.exp(4 * gamma * 1.0) * traj.norm_sq[0] * (1 + 1e-8)
    if not np.all(traj.norm_sq <= bound):
        failures.append("norm exceeded exp(4 gamma T) ||u0||^2 under tau <= 1/(2 gamma)")
    report(4, "a priori norm bounds (monotone decay and gamma > 0 growth cap)", failures)


def test_criterion_05_spectral_equivalence_margins():
    rng = np.random.default_rng(1405)
    failures = []
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for m in (32, 128):
            h = 20.0 / m
            op = assemble_operator(wsgd_weights(alpha, m), m)
            fields = rng.standard_normal((m - 1, 100)) + 1j * rng.standard_normal((m - 1, 100))
            lower, upper, sem = energy_equivalence_margins(fields, alpha, h, operator=op)
            tol = 1e-9 * sem
            bad_low = int(np.sum(lower < -tol))
            bad_up = int(np.sum(upper < -tol))
            if bad_low or bad_up:
                failures.append(
                    f"alpha={alpha} M={m}: {bad_low} lower / {bad_up} upper margins below -1e-9 |u|^2"
                )
    report(5, "two-sided spectral equivalence margins for 100 random vectors per case", failures)


def test_criterion_06_symbol_monotonicity_and_endpoints():
    failures = []
    omega = np.linspace(0.0, math.pi, 1000)
    for alpha in np.linspace(1.05, 2.0, 20):
        alpha = float(alpha)
        vals = h_function(alpha, omega)
        e0 = abs(vals[0] - math.cos(alpha * math.pi / 2))
        e1 = abs(vals[-1] - (1 - alpha * alpha) / 3)
        if max(e0, e1) > 1e-14:
            failures.append(f"alpha={alpha:.4f} endpoint error {max(e0, e1):.2e} > 1e-14")
        if np.min(np.diff(vals)) < -1e-12:
            failures.append(f"alpha={alpha:.4f} monotonicity violated")
    const = np.max(np.abs(h_function(2.0, omega) + 1.0))
    if const > 1e-14:
        failures.append(f"h(2, .) deviates from -1 by {const:.2e}")
    report(6, "symbol endpoint identities and sampled monotonicity", failures)


def test_criterion_07_coefficient_inequalities_literal():
    # Literal published property set, including the leading partial sum
    # w0 + w1 < 0. That sum equals lambda1 (1 - alpha) + lambda0 and is
    # positive for alpha < sqrt(6) - 1, so this criterion cannot pass as
    # stated on an unbiased sample of (1, 2); the failure below is the
    # true behavior of the correct weight sequence, not a code defect.
    failures = []
    for alpha in np.linspace(1.05, 1.95, 20):
        rep = check_weight_properties(wsgd_weights(float(alpha), 2048))
        if not rep.passed:
            failures.append(f"alpha={alpha:.4f}: " + ", ".join(rep.failures()))
        if not (-rep.tail_bound < rep.total_sum <= 0.0):
            failures.append(f"alpha={alpha:.4f}: total sum outside (-tail bound, 0]")
    report(7, "published coefficient inequalities, taken literally", failures)


def test_criterion_08_factorized_operator_identity():
    rng = np.random.default_rng(1408)
    failures = []
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for m in (32, 128):
            h = 20.0 / m
            op = assemble_operator(wsgd_weights(alpha, m), m)
            fields = rng.standard_normal((m - 1, 20)) + 1j * rng.standard_normal((m - 1, 20))
            qf = h ** (1 - alpha) * np.real(np.sum(np.conj(fields) * (op.C @ fields), axis=0))
            lam = h ** (1 - alpha) * np.sum(np.abs(cholesky(op.C) @ fields) ** 2, axis=0)
            rel = float(np.max(np.abs(qf - lam) / lam))
            if rel > 1e-10:
                failures.append(f"alpha={alpha} M={m}: identity off by {rel:.2e} relative")
        try:
            cholesky(assemble_operator(wsgd_weights(alpha, 1024), 1024).C)
        except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
            failures.append(f"alpha={alpha}: Cholesky failed at M=1024: {exc}")
    report(8, "quadratic form equals factored norm; Cholesky up to M=1024", failures)


def test_criterion_09_operator_spatial_order():
    failures = []
    for alpha in (1.3, 1.6, 1.9):
        res = operator_refinement_orders(alpha, (-10.0, 10.0), 0.1, gaussian)
        if not (1.8 <= res.richardson_order <= 2.2):
            failures.append(f"alpha={alpha}: observed order {res.richardson_order:.3f}")
    exact = lambda x: (4.0 - 16.0 * x * x) * np.exp(-2.0 * x * x)
    res = operator_refinement_orders(2.0, (-10.0, 10.0), 0.1, gaussian, exact=exact)
    for order in res.analytic_orders:
        if not (1.8 <= order <= 2.2):
            failures.append(f"alpha=2 analytic-error order {order:.3f} outside [1.8, 2.2]")
    report(9, "second-order spatial accuracy of the discrete operator", failures)


def test_criterion_10_inviscid_limit():
    failures = []
    grid = GridSpec(-10.0, 10.0, 400)
    time = TimeGrid(1.0, 20)
    pairs = [(0.1, 0.1), (0.01, 0.01), (0.001, 0.001)]
    for alpha in (1.1, 1.4, 1.7, 2.0):
        params = ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=-2.0, gamma=0.0, alpha=alpha)
        out = inviscid_limit_study(params, pairs, grid, time, gaussian)
        devs = [d for _, _, d in out]
        if not (devs[0] > devs[1] > devs[2] > 0.0):
            failures.append(f"alpha={alpha}: deviations {devs} not strictly decreasing")
    report(10, "deviations from the dispersive limit shrink with the coefficients", failures)


def test_criterion_11_exact_solution_table_to_its_printed_digits():
    # criterion 1 at the published precision: each error rounds to its printed
    # four-decimal mantissa and each order to its printed four decimals
    rows = convergence_study(
        sech_soliton_model_params(),
        (-16.0, 16.0),
        1.0,
        base_tau=0.02,
        base_h=0.2,
        levels=3,
        reference=ExactReference(lambda x, t: sech_soliton_solution(x, t, 0.3)),
    )
    failures = []
    for i, row in enumerate(rows):
        for name, value, printed in zip(("l2", "linf"), (row.err_l2, row.err_linf), TABLE1[i]):
            if f"{value:.4e}" != f"{printed:.4e}":
                failures.append(f"row {i} {name} error {value:.6e}, printed {printed:.4e}")
        for name, value, printed in zip(("order1", "order2"), (row.order1, row.order2),
                                        TABLE1_ORDERS.get(i, ())):
            if f"{value:.4f}" != f"{printed:.4f}":
                failures.append(f"row {i} {name} {value:.6f}, printed {printed:.4f}")
    report(11, "classical-limit table to its printed digits", failures)
