"""Implicit midpoint time stepping of the truncated fractional Ginzburg-Landau
equation via a linearized fixed-point iteration.

Each step solves the midpoint system for z = (u^{n+1} + u^n)/2 by lagging
the cubic term:  A z_(s+1) = u^n - (tau/2)(kappa + i zeta) |z_(s)|^2 z_(s),
with A = (1 - tau gamma / 2) I + (tau/2)(upsilon + i eta) h^(-alpha) C complex
symmetric Toeplitz, factorized once per run (``build_system_matrix``). Each
level's iteration starts from a polynomial extrapolation of the newest levels
(``fixed_point_step``), never from the stiff operator applied explicitly. The
energy balance takes upsilon ||Lambda z||^2_h as upsilon (Delta_h z, z)_h, one
FFT by Parseval (``OperatorMatrix.quadratic_form``). The rules every run obeys
are stated here once: the time step and the factor's size, which ``_check_run``
asks of every run, a whole number of steps (``_exact_division``), and the memory
rule (``_check_fits``) that the factor and ``TimeGrid``'s step count share.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ComplexField, FactorizedSystem, _check_positive, _field_values, fft_length, lu_factor,
    symmetric_toeplitz,
)
from .wsgd import (
    OperatorMatrix, _check_alpha, _check_count, _check_operator, assemble_operator, wsgd_weights
)

__all__ = [
    "ModelParams",
    "GridSpec",
    "TimeGrid",
    "SolverSettings",
    "StepDiagnostics",
    "Trajectory",
    "NonConvergence",
    "build_system_matrix",
    "factor_nbytes",
    "fixed_point_step",
    "snapshot_steps",
    "run_simulation",
]


class NonConvergence(RuntimeError):
    """Fixed-point iteration failed (iteration cap hit or non-finite iterate).

    ``increments`` holds the sup-norm increment of every iteration made.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        iterations: int | None = None,
        increments: tuple[float, ...] = (),
    ):
        super().__init__(message)
        self.step = step
        self.iterations = iterations
        self.increments = increments


@dataclass(frozen=True)
class ModelParams:
    """Real coefficients of u_t + (upsilon + i eta) (-lap)^(alpha/2) u
    + (kappa + i zeta) |u|^2 u - gamma u = 0.

    upsilon = 0 is admitted so the same stepper covers the dispersive
    (Schrodinger) reduction; kappa may take any sign.
    """

    upsilon: float
    eta: float
    kappa: float
    zeta: float
    gamma: float
    alpha: float

    def __post_init__(self):
        for name in ("upsilon", "eta", "kappa", "zeta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.upsilon < 0:
            raise ValueError(f"upsilon must be >= 0, got {self.upsilon}")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class GridSpec:
    """Truncation interval [a, b] split into M cells; solution is zero outside."""

    a: float
    b: float
    M: int

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"need finite b > a, got [{self.a}, {self.b}]")
        _check_count("M", self.M, 3)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def interior_nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.M)


@dataclass(frozen=True)
class TimeGrid:
    """N steps over [0, T]. A run keeps 16 (N + 1) bytes of norms and times and 24 N
    of step diagnostics (``Trajectory``), which must fit in physical memory (``_check_fits``)."""

    T: float
    N: int

    def __post_init__(self):
        _check_positive("T", self.T)
        _check_count("N", self.N, 1)
        _check_fits(f"N = {self.N}", 40 * self.N + 16, "series of norms, times and diagnostics")

    @property
    def tau(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class SolverSettings:
    iter_tol: float = 1e-14
    max_iters: int = 100

    def __post_init__(self):
        _check_positive("iter_tol", self.iter_tol)
        _check_count("max_iters", self.max_iters, 1)


@dataclass
class StepDiagnostics:
    iterations: int
    final_increment: float
    energy_identity_residual: float
    norm_sq: float


@dataclass
class Trajectory:
    """A run's ``times`` and ``norm_sq`` per level, and its steps' diagnostics, step n + 1 at n."""

    grid: GridSpec
    times: np.ndarray
    norm_sq: np.ndarray
    iterations: np.ndarray
    final_increments: np.ndarray
    energy_residuals: np.ndarray
    snapshots: dict[float, ComplexField] = field(default_factory=dict)
    final: ComplexField | None = None


# Largest order of A's leading section that a run LU-factors: the section is A
# itself up to this many unknowns, and beyond it seeds the Gohberg-Semencul generator.
_GS_SEED_ORDER = 99


def factor_nbytes(M: int) -> int:
    """Bytes of the factor that ``build_system_matrix`` keeps for M cells: the dense
    complex128 LU of A up to _GS_SEED_ORDER unknowns, beyond it the four complex128
    Gohberg-Semencul spectra of length ``fft_length(2 (M-1) - 1)``."""
    n = M - 1
    return 16 * n * n if n <= _GS_SEED_ORDER else 64 * fft_length(2 * n - 1)


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(subject: str, need: int, what: str) -> None:
    """The package's one memory rule: ``need`` bytes fit in physical memory, or a
    ValueError says '<subject> needs a <GiB> GiB <what>, more than the <GiB> ...'."""
    memory = _physical_memory()
    if need > memory:
        raise ValueError(
            f"{subject} needs a {need / 2**30:.3g} GiB {what}, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )


def _check_factor_fits(M: int) -> None:
    """The size rule of every run: the midpoint factor of a run on M cells
    (``factor_nbytes``) fits in physical memory (``_check_fits``)."""
    _check_fits(f"M = {M}", factor_nbytes(M), "midpoint factor")


def _exact_division(num: float, den: float, what: str, least: int = 1) -> int:
    """The package's one rule for a whole number of steps or cells: num / den as an integer
    >= ``least``, to 1e-9 of the ratio (relative above 1), or a ValueError after ``what``."""
    ratio = num / den if den != 0 else math.inf
    r = round(ratio) if math.isfinite(ratio) else least - 1
    if r < least or abs(ratio - r) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"{what}: {num} is not an integer multiple of {den}")
    return r


def _check_time_step(tau: float, gamma: float) -> None:
    """The package's one condition on the time step of a run with linear gain gamma:
    tau positive and finite, and tau gamma < 2, which keeps Re A positive definite."""
    _check_positive("tau", tau)
    if not tau * gamma < 2.0:
        raise ValueError(
            f"tau * gamma must be < 2, got tau = {tau:g}, gamma = {gamma:g}, "
            f"tau * gamma = {tau * gamma:g}"
        )


def _check_run(params: ModelParams, grid: GridSpec, tau: float) -> ModelParams:
    """``params`` if a run of it on ``grid`` with step tau may start: the time step
    (``_check_time_step``), then the midpoint factor's size (``_check_factor_fits``).
    Every entry point that starts runs asks it for all of them before any work."""
    _check_time_step(tau, params.gamma)
    _check_factor_fits(grid.M)
    return params


# Highest degree of the extrapolation that starts the inner iteration.
_START_ORDER = 4


def _start_weights(k: int) -> np.ndarray:
    """Weights of u^n, u^{n-1}, ..., u^{n-k} in (u^n + p(n+1)) / 2, with p the
    degree-k polynomial through those levels: p(n+1) = sum_j (-1)^j C(k+1, j+1) u^{n-j}."""
    w = np.array([(-1) ** j * math.comb(k + 1, j + 1) for j in range(k + 1)]) / 2.0
    w[0] += 0.5
    return w


# indexed by the number of earlier levels used, 0 (start from u^n) to _START_ORDER
_START_WEIGHTS = {k: _start_weights(k) for k in range(_START_ORDER + 1)}


def build_system_matrix(
    params: ModelParams, grid: GridSpec, tau: float, operator: OperatorMatrix
) -> FactorizedSystem:
    """Factorize A = (1 - tau gamma/2) I + (tau/2)(upsilon + i eta) h^(-alpha) C.

    Checks that the run may start (``_check_run``) before it allocates: tau gamma
    < 2 makes Re A positive definite, so A is invertible and Re x_0 > 0 for
    x = A^{-1} e_1, and the factor fits in physical memory. Every run
    LU-factors A's leading section of order min(M - 1, _GS_SEED_ORDER), a
    dense buffer of at most 0.15 MiB. Up to _GS_SEED_ORDER (99) unknowns that
    section is A, and its LU is the solve. Beyond it A is never formed: the
    section's LU seeds the Gohberg-Semencul inverse, refined against A's
    column to one correction past rounding level
    (``FactorizedSystem.with_gohberg_semencul``), through which every solve
    goes; set-up and memory are then O(M log M) and O(M). An inverse whose
    refinement stalls or that fails its gate raises
    ``linalg.SingularMatrixError``.
    """
    _check_run(params, grid, tau)
    _check_operator(operator, params.alpha, grid.M)
    col = (tau / 2.0) * (params.upsilon + 1j * params.eta) * grid.h ** (-params.alpha) * operator.column
    col[0] += 1.0 - tau * params.gamma / 2.0
    system = lu_factor(symmetric_toeplitz(col[:_GS_SEED_ORDER]))
    if col.size > _GS_SEED_ORDER:
        system = system.with_gohberg_semencul(col)
    return dataclasses.replace(system, tau=tau)


def _extrapolated_start(u: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Midpoint of u^n and the extrapolation of u^{n+1} from u^n and ``levels``
    (u^{n-1}, u^{n-2}, ..., newest first), of which the first _START_ORDER count."""
    k = min(len(levels), _START_ORDER)
    w = _START_WEIGHTS[k]
    # einsum, not @: `@` is a BLAS gemv that wakes the idle BLAS threads every
    # step, which cost about 3 ms a step at M = 2560 on a 2-core host
    return w[0] * u + np.einsum("j,jm->m", w[1:], levels[:k])


def fixed_point_step(
    u_n: np.ndarray,
    history: np.ndarray,
    system: FactorizedSystem,
    params: ModelParams,
    grid: GridSpec,
    settings: SolverSettings,
    operator: OperatorMatrix,
) -> tuple[np.ndarray, StepDiagnostics]:
    """Advance one level: returns (u^{n+1} values, diagnostics).

    ``u_n`` is the values of u^n, and ``history`` a 2-D array of the earlier levels u^{n-1},
    u^{n-2}, ..., newest first, one per row, with no rows on a run's first step; another form
    or width is a ValueError. The start iterate is the midpoint of u^n and the degree-k
    polynomial extrapolation of u^{n+1} through u^n and the k newest earlier levels,
    k = min(len(history), 4) (``_start_weights``). The step is ``system.tau``. Iterates until
    the sup-norm increment falls below iter_tol * max(1, |z|_inf). |z|^2 is formed once per
    iterate and serves the cubic term, that scale and the energy residual. An iterate whose
    increment or |z|^2 is not finite raises NonConvergence, without numpy overflow warnings.
    A ``system`` with no time step, one not made by ``build_system_matrix``, is a ValueError.
    """
    tau = system.tau
    if tau is None:
        raise ValueError("system has no time step; build it with build_system_matrix")
    h = grid.h
    u = _field_values(u_n)
    cubic = params.kappa + 1j * params.zeta
    if not isinstance(history, np.ndarray) or history.ndim != 2 or history.shape[1] != u.size:
        raise ValueError(f"history must be a 2-D array of levels of {u.size} values, "
                         f"got a {type(history).__name__} of shape {np.shape(history)}")
    z = _extrapolated_start(u, history)

    increments: list[float] = []
    # a diverging iterate overflows; that shows below as a non-finite
    # increment or |z|^2, which the relative stopping test would otherwise pass
    with np.errstate(over="ignore", invalid="ignore"):
        zsq = z.real**2 + z.imag**2
        for it in range(1, settings.max_iters + 1):
            z_new = system.solve(u - (tau / 2.0) * cubic * (zsq * z))
            increment = float(np.max(np.abs(z_new - z)))
            increments.append(increment)
            z = z_new
            zsq = z.real**2 + z.imag**2
            zsq_max = float(np.max(zsq))
            if not (math.isfinite(increment) and math.isfinite(zsq_max)):
                raise NonConvergence(
                    "iterate became non-finite (NaN/Inf, or |z|^2 overflowed)",
                    iterations=it,
                    increments=tuple(increments),
                )
            if increment <= settings.iter_tol * max(1.0, math.sqrt(zsq_max)):
                break
        else:
            raise NonConvergence(
                f"no convergence within {settings.max_iters} iterations "
                f"(last increment {increment:.3e})",
                iterations=settings.max_iters,
                increments=tuple(increments),
            )

    u_next = 2.0 * z - u
    nsq_next = h * float(np.sum(np.abs(u_next) ** 2))
    nsq_prev = h * float(np.sum(np.abs(u) ** 2))
    # Real part of the scheme tested against z: exact balance up to the
    # iteration and rounding error.
    dissip = params.upsilon * operator.quadratic_form(z, h) if params.upsilon != 0.0 else 0.0
    residual = (
        (nsq_next - nsq_prev) / (2.0 * tau)
        + dissip
        + params.kappa * h * float(np.sum(zsq * zsq))
        - params.gamma * h * float(np.sum(zsq))
    )
    return u_next, StepDiagnostics(
        iterations=it,
        final_increment=increment,
        energy_identity_residual=residual,
        norm_sq=nsq_next,
    )


def snapshot_steps(time_grid: TimeGrid, snapshot_times) -> dict[int, float]:
    """The time level of each snapshot time, keyed by step index. A time outside
    [0, T], not a whole number of steps (``_exact_division``), or on the level of
    another time is a ValueError."""
    tau = time_grid.tau
    steps: dict[int, float] = {}
    for t in snapshot_times:
        if not (0.0 <= t <= time_grid.T * (1 + 1e-12)):
            raise ValueError(f"snapshot time {t} outside [0, {time_grid.T}]")
        try:
            n = _exact_division(t, tau, "snapshot time", least=0)
        except ValueError:
            raise ValueError(f"snapshot time {t} does not lie on the time grid (tau={tau})") from None
        if steps.get(n, t) != t:
            raise ValueError(f"snapshot times {steps[n]!r} and {t!r} fall on one time level {n}")
        steps[n] = t
    return steps


def run_simulation(
    params: ModelParams,
    grid: GridSpec,
    time_grid: TimeGrid,
    u0,
    settings: SolverSettings | None = None,
    snapshot_times=(),
    operator: OperatorMatrix | None = None,
) -> Trajectory:
    """Advance N implicit midpoint steps from the sampled initial data.

    u0 is a callable evaluated on the interior nodes or their values (a restart passes
    ``Trajectory.final.values``), a finite 1-D sequence of M - 1, checked before the operator
    and the factor are built. Snapshot times must coincide with time-grid levels.
    ``_check_run`` comes first, before the initial data is sampled. Raises NonConvergence
    (tagged with the failing step) if an inner iteration stalls.
    """
    _check_run(params, grid, time_grid.tau)
    settings = settings or SolverSettings()
    tau = time_grid.tau
    u = _field_values(u0(grid.interior_nodes()) if callable(u0) else u0)
    if u.size != grid.M - 1:
        raise ValueError(f"initial data has {u.size} values, expected {grid.M - 1}")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")

    snap_steps = snapshot_steps(time_grid, snapshot_times)

    if operator is None:
        operator = assemble_operator(wsgd_weights(params.alpha, grid.M), grid.M)
    system = build_system_matrix(params, grid, tau, operator)

    h, steps = grid.h, time_grid.N
    traj = Trajectory(grid, tau * np.arange(steps + 1), np.empty(steps + 1),
                      np.empty(steps, dtype=np.int64), np.empty(steps), np.empty(steps))
    traj.norm_sq[0] = h * float(np.sum(np.abs(u) ** 2))
    if 0 in snap_steps:
        traj.snapshots[snap_steps[0]] = ComplexField(u.copy(), h)

    # earlier levels u^{n-1}, ..., u^{n-4}, newest first; the first n rows are filled
    levels = np.zeros((_START_ORDER, u.size), dtype=complex)
    for n in range(steps):
        try:
            u_next, diag = fixed_point_step(
                u, levels[:n], system, params, grid, settings, operator
            )
        except NonConvergence as exc:
            exc.step = n
            raise
        levels[1:] = levels[:-1]
        levels[0] = u
        u = u_next
        traj.iterations[n], traj.final_increments[n] = diag.iterations, diag.final_increment
        traj.energy_residuals[n], traj.norm_sq[n + 1] = diag.energy_identity_residual, diag.norm_sq
        if n + 1 in snap_steps:
            traj.snapshots[snap_steps[n + 1]] = ComplexField(u.copy(), h)
    traj.final = ComplexField(u, h)
    return traj
