"""Reference implementations and measurements the tests check the library against."""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.linalg

from fgle.experiments import restrict_to_coarse
from fgle.linalg import ComplexField, SingularMatrixError, l2_h
from fgle.stepper import GridSpec, SolverSettings, _exact_division
from fgle.wsgd import WsgdWeights, assemble_operator, wsgd_weights


def cholesky(matrix) -> np.ndarray:
    """Factor a symmetric positive definite matrix as C = L^T L, L lower.

    A non-positive pivot is reported as ``SingularMatrixError`` ("not SPD"), and a
    non-finite entry as a ValueError.

    The lower factor with C = L^T L (rather than the usual L L^T) comes
    from factoring the index-reversed matrix and flipping back.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ValueError("cholesky expects a finite square matrix")
    try:
        m = np.linalg.cholesky(a[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    return np.ascontiguousarray(m.T[::-1, ::-1])


def apply_fractional_laplacian(u: ComplexField, weights: WsgdWeights) -> ComplexField:
    """Apply the discrete fractional Laplacian by direct double summation.

    Independent of the operator's column: each node sums the left- and
    right-shifted weight convolutions against the zero-extended field.
    Agrees with h^(-alpha) C u to machine precision.
    """
    vals = u.values
    M = vals.size + 1
    if weights.w.size < M + 1:
        raise ValueError(f"need weights w_0..w_{M}, got only {weights.w.size} entries")
    w = weights.w
    ext = np.zeros(M + 1, dtype=complex)
    ext[1:M] = vals
    scale = u.h ** (-weights.alpha) / (2.0 * math.cos(weights.alpha * math.pi / 2.0))
    out = np.empty(M - 1, dtype=complex)
    for j in range(1, M):
        left = np.dot(w[: j + 2], ext[j + 1 :: -1])
        right = np.dot(w[: M - j + 2], ext[j - 1 : M + 1])
        out[j - 1] = scale * (left + right)
    return ComplexField(out, u.h)


def symbol_series(alpha: float, theta, L: int):
    """The weights' L-term cosine series 1/cos(alpha pi/2) * sum_{l<=L} w_l cos((l-1) theta).

    Independent of ``wsgd.symbol_f``, which is its closed-form limit: it sums
    the WSGD weights themselves. theta may be a scalar or an array.
    """
    w = wsgd_weights(alpha, L).w
    l = np.arange(L + 1, dtype=float)
    series = np.cos(np.multiply.outer(np.asarray(theta, dtype=float), l - 1.0)) @ w
    return series / math.cos(alpha * math.pi / 2.0)


@functools.lru_cache(maxsize=8)
def cosine_moments_by_quad(b: float, count: int) -> np.ndarray:
    """(1/pi) int_0^pi t^b cos(k t) dt for k < count, by QUADPACK's rule for the
    algebraic weight t^b (``scipy.integrate.quad``, weight "alg").

    Independent of ``linalg._cosine_moments``. QUADPACK's error estimate is
    pessimistic (a tighter request warns of roundoff), but the moments hold to
    about 4e-15 of the largest for k below 130; they lose accuracy as k grows.
    Cached, so the array is read-only.
    """
    def moment(k):
        return scipy.integrate.quad(lambda t: math.cos(k * t), 0.0, math.pi, weight="alg",
                                    wvar=(b, 0.0), epsabs=1e-13, epsrel=1e-13, limit=2000)[0]

    moments = np.array([moment(k) for k in range(count)]) / math.pi
    moments.flags.writeable = False
    return moments


def gaussian_packet_seminorm(a: float, c: float, d: float, sigma: float) -> float:
    """int |k|^(2 sigma) |u_hat(k)|^2 dk over the real line for u = exp(-a (x - c)^2 + i d x).

    |u_hat(k)|^2 = exp(-(k - d)^2 / (2 a)) / (2 a) in closed form, whatever c, and
    ``scipy.integrate.quad`` integrates it on either side of the kink at k = 0.
    """
    def integrand(k):
        return abs(k) ** (2.0 * sigma) * math.exp(-((k - d) ** 2) / (2.0 * a)) / (2.0 * a)

    return sum(scipy.integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))


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
        images.append(grid.h ** (-alpha) * (op.C @ np.asarray(func(x), dtype=complex)))
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


def linear_predictor_run(params, grid, time_grid, u0):
    """u^N and the total inner iterations of the midpoint scheme, started by linear extrapolation.

    Independent of ``stepper.run_simulation``: the dense midpoint matrix is
    LU-factored once and every inner solve is a dense triangular solve. The
    first level starts from the explicit half step, every later one from
    1.5 u^n - 0.5 u^{n-1}; the stopping rule is the library's, with the
    default ``SolverSettings``.
    """
    settings = SolverSettings()
    h, tau = grid.h, time_grid.tau
    diffusion = params.upsilon + 1j * params.eta
    cubic = params.kappa + 1j * params.zeta
    lap = h ** (-params.alpha) * assemble_operator(wsgd_weights(params.alpha, grid.M), grid.M).C
    A = (1.0 - tau * params.gamma / 2.0) * np.eye(grid.M - 1) + (tau / 2.0) * diffusion * lap
    factors = scipy.linalg.lu_factor(A)
    u = np.asarray(u0(grid.interior_nodes()), dtype=complex)
    u_prev = None
    total = 0
    for _ in range(time_grid.N):
        if u_prev is None:
            z = u - (tau / 2.0) * (
                diffusion * (lap @ u) + cubic * np.abs(u) ** 2 * u - params.gamma * u
            )
        else:
            z = 1.5 * u - 0.5 * u_prev
        for it in range(1, settings.max_iters + 1):
            z_new = scipy.linalg.lu_solve(factors, u - (tau / 2.0) * cubic * np.abs(z) ** 2 * z)
            increment = np.max(np.abs(z_new - z))
            z = z_new
            if increment <= settings.iter_tol * max(1.0, np.max(np.abs(z))):
                break
        else:
            raise RuntimeError(f"no convergence within {settings.max_iters} iterations")
        total += it
        u_prev, u = u, 2.0 * z - u
    return u, total
