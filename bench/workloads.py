"""The benchmark's workloads.

Each workload makes its inputs from a seed, calls into fgle's public API
once, and checks the output against a correctness gate taken from the
acceptance suite. Every field has the full-size value as its default;
smaller instances of the same classes serve the benchmark's own tests.
What no instance varies is a class constant, so a gate's reference values
cannot drift away from the problem they belong to.

Calls go through module attributes (``experiments.convergence_study``,
not a name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from fgle import cli, experiments, stepper

_CLI_VERIFY = cli.VerifySettings()


def _phase(seed: int) -> complex:
    """Global phase of the initial data. The equation is invariant under it,
    so every seed costs the same work and meets the same gate."""
    return complex(np.exp(2j * math.pi * np.random.default_rng(seed).random()))


@dataclass(frozen=True)
class SetupCase:
    """One operator assembly and one midpoint factorization."""

    grid: stepper.GridSpec
    params: stepper.ModelParams
    tau: float


@dataclass(frozen=True)
class FineReference:
    """Table 2 at one alpha: a convergence study against a nested fine grid."""

    name: ClassVar[str] = "fine_reference"
    alpha: ClassVar[float] = 1.6
    a: ClassVar[float] = -16.0
    b: ClassVar[float] = 16.0
    levels: ClassVar[int] = 2
    # published (err_l2, err_linf) per level at alpha = 1.6
    published: ClassVar[tuple] = ((1.0519e-2, 1.3001e-2), (2.5499e-3, 3.0928e-3))
    t_final: float = 1.0
    base_tau: float = 0.02
    base_h: float = 0.2
    h_ref: float = 0.025
    tau_ref: float = 0.0005

    def run(self, seed: int):
        phase = _phase(seed)
        return experiments.convergence_study(
            experiments.sech_soliton_model_params(alpha=self.alpha),
            (self.a, self.b),
            self.t_final,
            base_tau=self.base_tau,
            base_h=self.base_h,
            levels=self.levels,
            reference=experiments.FineGridReference(h_ref=self.h_ref, tau_ref=self.tau_ref),
            u0=lambda x: phase * experiments.sech_soliton_solution(x, 0.0, 0.3),
        )

    def gate(self, rows) -> list[str]:
        """Criterion 2: errors within 2x of the published values, orders in [1.85, 2.25]."""
        failures = []
        if len(rows) != self.levels:
            return [f"{len(rows)} rows, expected {self.levels}"]
        for i, row in enumerate(rows):
            exp_l2, exp_linf = self.published[i]
            if not exp_l2 / 2 <= row.err_l2 <= exp_l2 * 2:
                failures.append(f"row {i} l2 {row.err_l2:.4e} vs published {exp_l2:.4e}")
            if not exp_linf / 2 <= row.err_linf <= exp_linf * 2:
                failures.append(f"row {i} linf {row.err_linf:.4e} vs published {exp_linf:.4e}")
        for row in rows[1:]:
            for order in (row.order1, row.order2):
                if not 1.85 <= order <= 2.25:
                    failures.append(f"order {order:.4f} outside [1.85, 2.25]")
        return failures

    def setup_case(self) -> SetupCase:
        m_ref = round((self.b - self.a) / self.h_ref)
        return SetupCase(
            stepper.GridSpec(self.a, self.b, m_ref),
            experiments.sech_soliton_model_params(alpha=self.alpha),
            self.tau_ref,
        )

    def expected_counts(self) -> dict[str, int]:
        runs = self.levels + 1
        steps = round(self.t_final / self.tau_ref) + sum(
            round(self.t_final * 2**lvl / self.base_tau) for lvl in range(self.levels)
        )
        return {
            "experiments.convergence_study": 1,
            "stepper.run": runs,
            "stepper.step": steps,
            "linalg.lu_factor": runs,
            "wsgd.assemble": runs,
        }


@dataclass(frozen=True)
class InviscidSweep:
    """Criterion 10 at one alpha on a large grid: one shared operator, one
    factorization per (upsilon, kappa) pair plus the dispersive limit."""

    name: ClassVar[str] = "sweep"
    alpha: ClassVar[float] = 1.6
    a: ClassVar[float] = -16.0
    b: ClassVar[float] = 16.0
    t_final: ClassVar[float] = 0.1
    n_steps: ClassVar[int] = 5
    zeta: ClassVar[float] = -2.0
    m: int = 2560
    pairs: tuple = ((0.1, 0.1), (0.01, 0.01), (0.001, 0.001))

    def _params(self) -> stepper.ModelParams:
        return stepper.ModelParams(
            upsilon=1.0, eta=1.0, kappa=1.0, zeta=self.zeta, gamma=0.0, alpha=self.alpha
        )

    def run(self, seed: int):
        phase = _phase(seed)
        return experiments.inviscid_limit_study(
            self._params(),
            self.pairs,
            stepper.GridSpec(self.a, self.b, self.m),
            stepper.TimeGrid(self.t_final, self.n_steps),
            lambda x: phase * np.exp(-2.0 * x * x),
        )

    def gate(self, out) -> list[str]:
        """Criterion 10: deviations from the limit strictly decrease, and stay positive."""
        devs = [d for _, _, d in out]
        if len(devs) != len(self.pairs):
            return [f"{len(devs)} deviations, expected {len(self.pairs)}"]
        if all(x > y for x, y in zip(devs, devs[1:])) and devs[-1] > 0.0:
            return []
        return [f"deviations {devs} not strictly decreasing to a positive value"]

    def setup_case(self) -> SetupCase:
        return SetupCase(
            stepper.GridSpec(self.a, self.b, self.m),
            self._params(),
            self.t_final / self.n_steps,
        )

    def expected_counts(self) -> dict[str, int]:
        runs = len(self.pairs) + 1
        return {
            "experiments.inviscid_limit_study": 1,
            "stepper.run": runs,
            "stepper.step": runs * self.n_steps,
            "linalg.lu_factor": runs,
            "wsgd.assemble": 1,
        }


@dataclass(frozen=True)
class VerifySuite:
    """``fgle verify`` with the CLI defaults; the seed draws the random vectors."""

    name: ClassVar[str] = "verify"
    weight_length: ClassVar[int] = _CLI_VERIFY.weight_length
    alphas: tuple = _CLI_VERIFY.alphas
    grid_points: int = _CLI_VERIFY.grid_points
    vectors: int = _CLI_VERIFY.vectors

    def run(self, seed: int):
        return cli.verify_suite(
            alphas=tuple(self.alphas),
            weight_length=self.weight_length,
            grid_points=self.grid_points,
            n_vectors=self.vectors,
            seed=seed,
        )

    def checks(self) -> int:
        # seven checks per alpha, plus the symbol's constancy at alpha = 2
        return 7 * len(self.alphas) + sum(1 for a in self.alphas if a == 2.0)

    def gate(self, report) -> list[str]:
        """Every check of the suite passes, and none is missing."""
        failures = [c.line() for c in report.failures()]
        if len(report.checks) != self.checks():
            failures.append(f"{len(report.checks)} checks, expected {self.checks()}")
        return failures

    def setup_case(self) -> SetupCase:
        alpha = self.alphas[0]
        return SetupCase(
            stepper.GridSpec(-10.0, 10.0, self.grid_points),
            stepper.ModelParams(upsilon=1.0, eta=1.0, kappa=1.0, zeta=2.0, gamma=0.0, alpha=alpha),
            0.05,
        )

    def expected_counts(self) -> dict[str, int]:
        n = len(self.alphas)
        return {
            "cli.verify_suite": 1,
            "spectral.margins": n,
            "stepper.run": n,
            "linalg.lu_factor": n,
        }


WORKLOADS = {w.name: w for w in (FineReference, InviscidSweep, VerifySuite)}


def from_spec(spec: dict):
    """The workload a worker process receives as ``{"name", "fields"}``."""
    return WORKLOADS[spec["name"]](**spec["fields"])
