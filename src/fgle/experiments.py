"""Benchmark studies: convergence tables, norm decay, inviscid limit,
spatial-order checks for the discrete fractional Laplacian, and the
verification suite of the discrete properties the paper's proofs use."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import ComplexField, _check_pair, _check_positive, _cosine_moments, l2_h, linf_h
from .spectral import energy_equivalence_margins
from .stepper import (
    GridSpec,
    ModelParams,
    SolverSettings,
    TimeGrid,
    _check_run,
    _exact_division,
    run_simulation,
)
from .wsgd import (
    _check_alpha,
    _check_count,
    assemble_operator,
    c_alpha,
    check_weight_properties,
    h_function,
    symbol_f,
    wsgd_weights,
)

__all__ = [
    "ConvergenceRow",
    "ExactReference",
    "FineGridReference",
    "SolitonCoefficients",
    "sech_soliton_coefficients",
    "sech_soliton_solution",
    "sech_soliton_model_params",
    "error_norms",
    "restrict_to_coarse",
    "convergence_grids",
    "convergence_study",
    "norm_decay_study",
    "inviscid_limit_study",
    "operator_refinement_orders",
    "VerifySettings",
    "SuiteCheck",
    "VerificationReport",
    "verify_suite",
]


@dataclass(frozen=True)
class SolitonCoefficients:
    """Derived constants of the decaying-sech benchmark solution."""

    kappa: float
    chirp: float
    amplitude: float
    omega: float


def sech_soliton_coefficients(upsilon: float) -> SolitonCoefficients:
    """Constants of the classical (alpha = 2) chirped-sech solution.

    With eta = 1/2, zeta = -1, gamma = 0 and the matching cubic coefficient
    kappa, the profile F sech(x) exp(i d ln(F sech x) - i omega t) solves the
    equation exactly.
    """
    if not upsilon > 0:
        raise ValueError(f"upsilon must be positive, got {upsilon}")
    s = math.sqrt(1.0 + 4.0 * upsilon * upsilon)
    d = (s - 1.0) / (2.0 * upsilon)
    kappa = -upsilon * (3.0 * s - 1.0) / (2.0 * (2.0 + 9.0 * upsilon * upsilon))
    amplitude = math.sqrt(d * s / (-2.0 * kappa))
    omega = -d * (1.0 + 4.0 * upsilon * upsilon) / (2.0 * upsilon)
    return SolitonCoefficients(kappa=kappa, chirp=d, amplitude=amplitude, omega=omega)


def sech_soliton_solution(x, t: float, upsilon: float = 0.3) -> np.ndarray:
    c = sech_soliton_coefficients(upsilon)
    a = c.amplitude / np.cosh(np.asarray(x, dtype=float))
    return a * np.exp(1j * (c.chirp * np.log(a) - c.omega * t))


def sech_soliton_model_params(upsilon: float = 0.3, alpha: float = 2.0) -> ModelParams:
    c = sech_soliton_coefficients(upsilon)
    return ModelParams(upsilon=upsilon, eta=0.5, kappa=c.kappa, zeta=-1.0, gamma=0.0, alpha=alpha)


def _gaussian(x: np.ndarray) -> np.ndarray:
    """exp(-2 x^2): the default initial data, and ``verify_suite``'s too."""
    return np.exp(-2.0 * x * x)


def _initial_data(name: str, upsilon: float) -> Callable[[np.ndarray], np.ndarray]:
    """The initial data named ``name`` for a model with this upsilon: 'gaussian'
    (``_gaussian``) or 'soliton', the sech soliton at t = 0, which is built from
    upsilon and needs it positive. Anything else is a ValueError."""
    if name == "gaussian":
        return _gaussian
    if name != "soliton":
        raise ValueError(f"initial must be 'gaussian' or 'soliton', got '{name}'")
    try:
        sech_soliton_coefficients(upsilon)
    except ValueError as exc:
        raise ValueError(f"initial = soliton: {exc}") from None
    return lambda x: sech_soliton_solution(x, 0.0, upsilon)


def error_norms(u: ComplexField, v: ComplexField) -> tuple[float, float]:
    """(l2_h, linf_h) norms of u - v on a shared grid."""
    _check_pair(u, v)
    e = ComplexField(u.values - v.values, u.h)
    return l2_h(e), linf_h(e)


@dataclass(frozen=True)
class ExactReference:
    """Closed-form reference solution, called as solution(x, t)."""

    solution: Callable[[np.ndarray, float], np.ndarray]


def _sech_soliton_reference(model: ModelParams, initial: str) -> ExactReference:
    """The sech soliton as the exact reference of ``model`` from the initial data named
    ``initial``: a ValueError, in run-config keys, unless both are the soliton's own."""
    if model.alpha != 2.0:
        raise ValueError("reference = exact requires alpha = 2")
    soliton = sech_soliton_model_params(model.upsilon, alpha=2.0)
    for f in fields(ModelParams):
        want, got = getattr(soliton, f.name), getattr(model, f.name)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                f"reference = exact requires the sech soliton's [model] "
                f"{f.name} = {want!r} at upsilon = {model.upsilon!r}, got {got!r}"
            )
    if initial != "soliton":
        raise ValueError("reference = exact requires [model] initial = soliton")
    return ExactReference(lambda x, t: sech_soliton_solution(x, t, model.upsilon))


@dataclass(frozen=True)
class FineGridReference:
    """Numerical reference on a nested fine grid (index-subsampled, never
    interpolated, so no extra error enters the measured orders)."""

    h_ref: float
    tau_ref: float

    def __post_init__(self):
        for name in ("h_ref", "tau_ref"):
            _check_positive(name, getattr(self, name))

    def grids(self, interval, t_final, finest_h, finest_tau) -> tuple[GridSpec, TimeGrid]:
        """The reference's grids; a ValueError unless the finest level nests in
        them, and then every coarser level, a multiple of it, nests too, and
        unless the reference's norms, times and diagnostics fit (``stepper.TimeGrid``)."""
        a, b = interval
        m = _exact_division(b - a, self.h_ref, "reference grid")
        n = _exact_division(t_final, self.tau_ref, "reference time grid")
        _exact_division(finest_h, self.h_ref, "finest level grid")
        _exact_division(finest_tau, self.tau_ref, "finest level time grid")
        try:
            return GridSpec(a, b, m), TimeGrid(t_final, n)
        except ValueError as exc:
            raise ValueError(f"reference time grid: {exc}") from None


@dataclass
class ConvergenceRow:
    tau: float
    h: float
    err_l2: float
    err_linf: float
    order1: float | None = None
    order2: float | None = None


def _check_listed(name: str, values, check) -> list:
    """What ``check`` returns for each entry of a study's list of inputs, which must not be
    empty (its study would run nothing or pass no checks); an entry's error names the list."""
    if len(values) == 0:
        raise ValueError(f"{name} must list at least one value")
    try:
        return [check(value) for value in values]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _check_distinct(name: str, values: list) -> None:
    """A ValueError if an entry of a study's list repeats an earlier one, whose
    run or check would be made twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name}: {value!r} is listed twice")


def _decay_models(params: ModelParams, gammas, grid: GridSpec, time_grid: TimeGrid) -> list:
    """``norm_decay_study``'s model of each run, each one checked by ``stepper._check_run``.
    A repeated gamma, whose run would be made twice and kept once, is a ValueError."""
    models = _check_listed("gammas", gammas, lambda gamma: _check_run(
        replace(params, gamma=float(gamma)), grid, time_grid.tau))
    _check_distinct("gammas", [model.gamma for model in models])
    return models


def _inviscid_models(params: ModelParams, pairs, grid, time_grid, name: str = "pairs") -> list:
    """``inviscid_limit_study``'s model of each pair's run, each one checked by
    ``stepper._check_run``; its limit run shares their gamma, grid and step."""
    return _check_listed(name, pairs, lambda pair: _check_run(
        replace(params, upsilon=float(pair[0]), kappa=float(pair[1])), grid, time_grid.tau))


def restrict_to_coarse(fine_values: np.ndarray, ratio: int) -> np.ndarray:
    """Interior values on a nested coarse grid: coarse node j is fine node j*ratio.
    ``ratio`` is a count (``wsgd._check_count``), at least 1."""
    _check_count("ratio", ratio, 1)
    fine_values = np.asarray(fine_values)
    m_fine = fine_values.size + 1
    if m_fine % ratio:
        raise ValueError(f"fine grid with {m_fine} cells is not {ratio}-times a coarse grid")
    m_coarse = m_fine // ratio
    return fine_values[ratio * np.arange(1, m_coarse) - 1]


def convergence_grids(
    params: ModelParams,
    interval: tuple[float, float],
    t_final: float,
    base_tau: float,
    base_h: float,
    levels: int,
    reference: ExactReference | FineGridReference | None = None,
) -> tuple[list[tuple[float, float, GridSpec, TimeGrid]], tuple[GridSpec, TimeGrid] | None]:
    """The (tau, h, grid, time grid) of each ``convergence_study`` level, and
    the grids of a fine reference (None for an exact reference or none).

    A ValueError unless every level's h divides the interval and its tau
    divides t_final (``stepper._exact_division``), the finest level nests in
    a fine reference, and a run of ``params`` may start on every level and on
    that reference (``stepper._check_run``), whose norms, times and diagnostics
    fit (``stepper.TimeGrid``).
    """
    _check_count("levels", levels, 1)
    a, b = interval
    steps = []
    for lvl in range(levels):
        tau, h = math.ldexp(base_tau, -lvl), math.ldexp(base_h, -lvl)
        m = _exact_division(b - a, h, f"level {lvl} grid")
        n = _exact_division(t_final, tau, f"level {lvl} time grid")
        steps.append((tau, h, GridSpec(a, b, m), n))
    ref_grids = None
    checked = [(f"level {lvl} grid", grid, tau, n) for lvl, (tau, _, grid, n) in enumerate(steps)]
    if isinstance(reference, FineGridReference):
        ref_grids = reference.grids(interval, t_final, h, tau)
        checked.append(("reference grid", ref_grids[0], ref_grids[1].tau, ref_grids[1].N))
    # each time grid is made here, so its size rule (``TimeGrid``) comes after
    # every level's divisibility, level by level with the factor's
    time_grids = []
    for what, grid, step, n in checked:
        try:
            time_grids.append(TimeGrid(t_final, n))
            _check_run(params, grid, step)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
    runs = [(tau, h, grid, time_grid) for (tau, h, grid, _), time_grid in zip(steps, time_grids)]
    return runs, ref_grids


def convergence_study(
    params: ModelParams,
    interval: tuple[float, float],
    t_final: float,
    base_tau: float,
    base_h: float,
    levels: int,
    reference: ExactReference | FineGridReference,
    u0: Callable[[np.ndarray], np.ndarray] | None = None,
    settings: SolverSettings | None = None,
) -> list[ConvergenceRow]:
    """Errors and observed orders under simultaneous halving of tau and h.

    Level l runs with (tau, h) = (base_tau, base_h) / 2^l and measures the
    error against the reference at t_final. Orders are the log2 ratios of
    consecutive errors and are left unset on the first row. Before the first
    run, every level's and the reference's grids, time step and factor size
    are checked (``convergence_grids``). ``params`` is used as given.
    """
    if u0 is None:
        if not isinstance(reference, ExactReference):
            raise ValueError("u0 is required when the reference is a fine-grid run")
        u0 = lambda x: reference.solution(x, 0.0)

    runs, ref_grids = convergence_grids(params, interval, t_final, base_tau, base_h, levels,
                                        reference)
    if ref_grids is not None:
        ref_final = run_simulation(params, *ref_grids, u0, settings).final

    rows: list[ConvergenceRow] = []
    for tau, h, grid, time_grid in runs:
        traj = run_simulation(params, grid, time_grid, u0, settings)
        if isinstance(reference, ExactReference):
            target = ComplexField(reference.solution(grid.interior_nodes(), t_final), grid.h)
        else:
            ratio = ref_grids[0].M // grid.M
            target = ComplexField(restrict_to_coarse(ref_final.values, ratio), grid.h)
        err_l2, err_linf = error_norms(target, traj.final)
        rows.append(ConvergenceRow(tau=tau, h=h, err_l2=err_l2, err_linf=err_linf))

    for prev, cur in zip(rows, rows[1:]):
        cur.order1 = math.log2(prev.err_l2 / cur.err_l2)
        cur.order2 = math.log2(prev.err_linf / cur.err_linf)
    return rows


def norm_decay_study(
    params: ModelParams,
    gammas: Sequence[float],
    grid: GridSpec,
    time_grid: TimeGrid,
    u0,
    settings: SolverSettings | None = None,
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Sequences (t_n, ||u^n||^2_h) for each linear-gain coefficient gamma, which
    overwrites ``params.gamma``. Every gamma's run is checked before the first
    (``_decay_models``: time step and factor size); an empty list is a ValueError."""
    models = _decay_models(params, gammas, grid, time_grid)
    operator = assemble_operator(wsgd_weights(params.alpha, grid.M), grid.M)
    out: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for model in models:
        traj = run_simulation(model, grid, time_grid, u0, settings, operator=operator)
        out[model.gamma] = (traj.times, traj.norm_sq)
    return out


def inviscid_limit_study(
    params: ModelParams,
    pairs: Sequence[tuple[float, float]],
    grid: GridSpec,
    time_grid: TimeGrid,
    u0,
    settings: SolverSettings | None = None,
) -> list[tuple[float, float, float]]:
    """Deviation from the dispersive (upsilon = kappa = 0) limit at t = T.

    Returns (upsilon, kappa, ||u - u_limit||_h) for each pair, which overwrites
    ``params.upsilon`` and ``params.kappa`` (both 0 in the limit run). Every pair's
    model, time step and factor size are checked before the first run
    (``_inviscid_models``); an empty list is a ValueError.
    """
    models = _inviscid_models(params, pairs, grid, time_grid)
    operator = assemble_operator(wsgd_weights(params.alpha, grid.M), grid.M)
    limit = run_simulation(
        replace(params, upsilon=0.0, kappa=0.0), grid, time_grid, u0, settings, operator=operator
    ).final
    out = []
    for model in models:
        traj = run_simulation(model, grid, time_grid, u0, settings, operator=operator)
        deviation, _ = error_norms(traj.final, limit)
        out.append((model.upsilon, model.kappa, deviation))
    return out


@dataclass
class RefinementOrders:
    alpha: float
    h_values: tuple[float, ...]
    richardson_order: float
    analytic_orders: tuple[float, ...] | None = None


def operator_refinement_orders(
    alpha: float,
    interval: tuple[float, float],
    base_h: float,
    func: Callable[[np.ndarray], np.ndarray],
    exact: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RefinementOrders:
    """Observed spatial order of the discrete operator on a smooth function.

    Applies the operator on grids h, h/2, h/4 and Richardson-compares
    successive differences on shared nodes. When ``exact`` supplies the true
    operator image (available for alpha = 2), per-level error orders against
    it are reported as well.
    """
    a, b = interval
    images = []
    grids = []
    for lvl in range(3):
        h = base_h / 2**lvl
        m = _exact_division(b - a, h, f"level {lvl} grid")
        grid = GridSpec(a, b, m)
        op = assemble_operator(wsgd_weights(alpha, m), m)
        x = grid.interior_nodes()
        images.append(op.apply(np.asarray(func(x), dtype=complex), grid.h))
        grids.append(grid)

    diffs = [
        l2_h(ComplexField(images[lvl] - restrict_to_coarse(images[lvl + 1], 2), grids[lvl].h))
        for lvl in range(2)
    ]
    richardson = math.log2(diffs[0] / diffs[1])

    analytic = None
    if exact is not None:
        errs = [
            l2_h(ComplexField(images[lvl] - exact(grids[lvl].interior_nodes()), grids[lvl].h))
            for lvl in range(3)
        ]
        analytic = tuple(math.log2(errs[i] / errs[i + 1]) for i in range(2))

    return RefinementOrders(
        alpha=alpha,
        h_values=tuple(g.h for g in grids),
        richardson_order=richardson,
        analytic_orders=analytic,
    )


@dataclass(frozen=True)
class VerifySettings:
    """The ``[verify]`` settings; their defaults are also ``verify_suite``'s."""

    alphas: tuple[float, ...] = (1.1, 1.3, 1.5, 1.7, 1.9, 2.0)
    weight_length: int = 2048
    grid_points: int = 64
    vectors: int = 20
    seed: int = 1234

    def __post_init__(self):
        _check_distinct("alphas", _check_listed("alphas", self.alphas, _check_alpha))
        for name, least in (("weight_length", 3), ("grid_points", 3), ("vectors", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)


@dataclass
class SuiteCheck:
    name: str
    alpha: float
    passed: bool
    margin: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}[alpha={self.alpha:g}] margin={self.margin:.3e}{extra}"


@dataclass
class VerificationReport:
    checks: list[SuiteCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[SuiteCheck]:
        return [c for c in self.checks if not c.passed]


def _balance_runs(settings: VerifySettings) -> list[tuple[ModelParams, GridSpec, TimeGrid]]:
    """``verify_suite``'s energy-balance run (model, grid, time grid) of each alpha, each
    one checked by ``stepper._check_run``. Its gamma != 0, so a wrong sign of tau gamma / 2
    on A's diagonal breaks the balance."""
    grid, time_grid = GridSpec(-10.0, 10.0, settings.grid_points), TimeGrid(0.5, 10)
    models = (ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=-1.0, alpha=alpha)
              for alpha in settings.alphas)
    return [(_check_run(model, grid, time_grid.tau), grid, time_grid) for model in models]


def verify_suite(
    alphas: Sequence[float] = VerifySettings.alphas,
    weight_length: int = VerifySettings.weight_length,
    grid_points: int = VerifySettings.grid_points,
    n_vectors: int = VerifySettings.vectors,
    seed: int = VerifySettings.seed,
) -> VerificationReport:
    """Run the full operator/spectral invariant suite over a grid of alphas.

    The arguments are checked as ``VerifySettings``: an empty ``alphas``, whose
    suite would pass with no checks at all, is a ValueError, and so is an alpha listed
    twice. So is a ``grid_points`` at which an energy-balance run may not start
    (``_balance_runs``), before any work."""
    runs = _balance_runs(VerifySettings(alphas, weight_length, grid_points, n_vectors, seed))
    rng = np.random.default_rng(seed)
    checks: list[SuiteCheck] = []
    omega = np.linspace(0.0, math.pi, 1000)
    theta = np.linspace(0.0, math.pi, 101)[1:]

    for alpha, (params, grid, time_grid) in zip(alphas, runs):
        # each property is judged against the status it is expected to have
        # (the leading pair w0 + w1 changes sign), so correct weights pass
        report = check_weight_properties(wsgd_weights(alpha, weight_length))
        wrong = [c.name for c in report.checks if c.passed != c.expected]
        worst = min(c.margin if c.expected else -c.margin for c in report.checks)
        detail = ""
        if wrong:
            detail = "violated: " + ", ".join(wrong)
        elif not all(c.expected for c in report.checks):
            detail = "leading pair sum positive, expected below threshold alpha"
        checks.append(SuiteCheck("coefficient_properties", alpha, not wrong, worst, detail))

        hvals = h_function(alpha, omega)
        end_err = max(
            abs(float(hvals[0]) - math.cos(alpha * math.pi / 2.0)),
            abs(float(hvals[-1]) - (1.0 - alpha * alpha) / 3.0),
        )
        checks.append(SuiteCheck("symbol_endpoints", alpha, end_err <= 1e-14, 1e-14 - end_err))
        mono = float(np.min(np.diff(hvals)))
        checks.append(SuiteCheck("symbol_monotone", alpha, mono >= -1e-12, mono + 1e-12))
        if alpha == 2.0:
            const = float(np.max(np.abs(hvals + 1.0)))
            checks.append(SuiteCheck("symbol_constant", alpha, const <= 1e-14, 1e-14 - const))

        closed = symbol_f(alpha, theta)
        power = theta**alpha
        slack = 1e-12 * np.maximum(1.0, power)
        lo = closed - c_alpha(alpha) * power
        hi = power - closed
        ok = bool(np.all(lo >= -slack) and np.all(hi >= -slack))
        checks.append(SuiteCheck("symbol_bounds", alpha, ok, float(min(lo.min(), hi.min()))))

        m, h = grid.M, grid.h
        op = assemble_operator(wsgd_weights(alpha, m), m)
        fields = rng.standard_normal((m - 1, n_vectors)) + 1j * rng.standard_normal(
            (m - 1, n_vectors)
        )
        lower, upper, sem = energy_equivalence_margins(fields, alpha, h, operator=op)
        tol = 1e-12 * sem
        ok = bool(np.all(lower >= -tol) and np.all(upper >= -tol))
        checks.append(SuiteCheck("energy_equivalence", alpha, ok, float(min(lower.min(), upper.min()))))

        coefficients = _cosine_moments(alpha, m - 1, lambda t: symbol_f(alpha, t) / t**alpha)
        gap = float(np.max(np.abs(op.column - coefficients)) / np.max(np.abs(coefficients)))
        checks.append(SuiteCheck("operator_symbol", alpha, gap <= 1e-12, 1e-12 - gap))

        traj = run_simulation(params, grid, time_grid, _gaussian, operator=op)
        res = float(np.max(np.abs(traj.energy_residuals)))
        checks.append(SuiteCheck("step_energy_balance", alpha, res <= 1e-10, 1e-10 - res))

    return VerificationReport(checks)
