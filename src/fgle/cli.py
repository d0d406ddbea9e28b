"""Command-line front end: strict key-value run configs, study dispatch and
deterministic CSV artifacts.

Config schema (INI-style sections, '#' comments; lists are space-separated;
see README for the full reference):

    [run]          mode = simulate | convergence | decay | inviscid | verify
    [model]        alpha upsilon eta kappa zeta gamma [initial]
    [grid]         a b m            (m optional for convergence runs)
    [time]         t_final steps    (steps optional for convergence runs)
    [solver]       iter_tol max_iters                          (optional)
    [output]       dir snapshot_times                          (optional)
    [convergence]  base_tau base_h levels reference [h_ref tau_ref]
    [decay]        gammas
    [inviscid]     upsilon_kappa
    [verify]       alphas weight_length grid_points vectors seed
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .experiments import (
    ConvergenceRow,
    ExactReference,
    FineGridReference,
    VerifySettings,
    convergence_study,
    inviscid_limit_study,
    norm_decay_study,
    sech_soliton_solution,
    verify_suite,
)
from .stepper import GridSpec, ModelParams, NonConvergence, SolverSettings, TimeGrid, run_simulation

__all__ = [
    "ConfigError",
    "RunConfig",
    "ConvergenceSettings",
    "VerifySettings",
    "parse_config",
    "serialize_config",
    "write_csv",
    "main",
]

FULL_SCALE_REFERENCE = FineGridReference(h_ref=0.0125, tau_ref=0.0001)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ConvergenceSettings:
    base_tau: float
    base_h: float
    levels: int
    reference: str  # "exact" | "fine"
    h_ref: float | None = None
    tau_ref: float | None = None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    model: ModelParams | None = None
    grid: GridSpec | None = None
    time: TimeGrid | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    initial: str = "gaussian"
    output_dir: str | None = None
    snapshot_times: tuple[float, ...] = ()
    convergence: ConvergenceSettings | None = None
    decay_gammas: tuple[float, ...] | None = None
    inviscid_pairs: tuple[tuple[float, float], ...] | None = None
    verify: VerifySettings = field(default_factory=VerifySettings)


_MODES = ("simulate", "convergence", "decay", "inviscid", "verify")

_SCHEMA: dict[str, set[str]] = {
    "run": {"mode"},
    "model": {"alpha", "upsilon", "eta", "kappa", "zeta", "gamma", "initial"},
    "grid": {"a", "b", "m"},
    "time": {"t_final", "steps"},
    "solver": {"iter_tol", "max_iters"},
    "output": {"dir", "snapshot_times"},
    "convergence": {"base_tau", "base_h", "levels", "reference", "h_ref", "tau_ref"},
    "decay": {"gammas"},
    "inviscid": {"upsilon_kappa"},
    "verify": {"alphas", "weight_length", "grid_points", "vectors", "seed"},
}


class _Section:
    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def _raw(self, key: str, required: bool) -> str | None:
        if key not in self.items:
            if required:
                raise ConfigError(f"section [{self.name}] is missing required key '{key}'")
            return None
        return self.items[key]

    def _finite(self, key: str, text: str, raw: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected a number, got '{raw}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} must be finite, got '{raw}'")
        return value

    def get_float(self, key: str, required: bool = True, default: float | None = None):
        raw = self._raw(key, required)
        return default if raw is None else self._finite(key, raw, raw)

    def get_int(self, key: str, required: bool = True, default: int | None = None):
        raw = self._raw(key, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected an integer, got '{raw}'") from None

    def get_str(self, key: str, required: bool = True, default: str | None = None):
        raw = self._raw(key, required)
        return default if raw is None else raw.strip()

    def get_floats(self, key: str, required: bool = True, default=None) -> tuple[float, ...] | None:
        raw = self._raw(key, required)
        if raw is None:
            return default
        return tuple(self._finite(key, p, raw) for p in raw.replace(",", " ").split())


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration; unknown keys are errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    def section(name: str, required: bool = False) -> _Section | None:
        if name not in cp:
            if required:
                raise ConfigError(f"missing required section [{name}]")
            return None
        return _Section(name, dict(cp[name]))

    run = section("run", required=True)
    mode = run.get_str("mode")
    if mode not in _MODES:
        raise ConfigError(f"[run] mode must be one of {', '.join(_MODES)}, got '{mode}'")

    needs_model = mode != "verify"
    model = grid = time_grid = None
    initial = "gaussian"
    conv = None

    if mode == "convergence":
        cs = section("convergence", required=True)
        reference = cs.get_str("reference")
        if reference not in ("exact", "fine"):
            raise ConfigError(f"[convergence] reference must be 'exact' or 'fine', got '{reference}'")
        conv = ConvergenceSettings(
            base_tau=cs.get_float("base_tau"),
            base_h=cs.get_float("base_h"),
            levels=cs.get_int("levels"),
            reference=reference,
            h_ref=cs.get_float("h_ref", required=(reference == "fine")),
            tau_ref=cs.get_float("tau_ref", required=(reference == "fine")),
        )
        if conv.levels < 1:
            raise ConfigError("[convergence] levels must be >= 1")
        if conv.base_tau <= 0 or conv.base_h <= 0:
            raise ConfigError("[convergence] base_tau and base_h must be positive")

    if needs_model:
        ms = section("model", required=True)
        coeffs = {k: ms.get_float(k) for k in ("upsilon", "eta", "kappa", "zeta", "gamma", "alpha")}
        try:
            model = ModelParams(**coeffs)
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from None
        initial = ms.get_str("initial", required=False, default="gaussian")
        if initial not in ("gaussian", "soliton"):
            raise ConfigError(f"[model] initial must be 'gaussian' or 'soliton', got '{initial}'")

        gs = section("grid", required=True)
        a = gs.get_float("a")
        b = gs.get_float("b")
        m = gs.get_int("m", required=(mode != "convergence"))
        if m is None:
            m = round((b - a) / conv.base_h)
        ts = section("time", required=True)
        t_final = ts.get_float("t_final")
        steps = ts.get_int("steps", required=(mode != "convergence"))
        if steps is None:
            steps = max(1, round(t_final / conv.base_tau))
        try:
            grid = GridSpec(a=a, b=b, M=m)
            time_grid = TimeGrid(T=t_final, N=steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    solver = SolverSettings()
    ss = section("solver")
    if ss is not None:
        iter_tol = ss.get_float("iter_tol", required=False, default=1e-14)
        max_iters = ss.get_int("max_iters", required=False, default=100)
        try:
            solver = SolverSettings(iter_tol=iter_tol, max_iters=max_iters)
        except ValueError as exc:
            raise ConfigError(f"[solver] {exc}") from None

    output_dir = None
    snapshot_times: tuple[float, ...] = ()
    os_ = section("output")
    if os_ is not None:
        output_dir = os_.get_str("dir", required=False)
        snapshot_times = os_.get_floats("snapshot_times", required=False) or ()
        if time_grid is not None:
            for t in snapshot_times:
                if not (0.0 <= t <= time_grid.T * (1 + 1e-12)):
                    raise ConfigError(
                        f"[output] snapshot time {t:g} outside [0, {time_grid.T:g}]"
                    )

    decay_gammas = None
    if mode == "decay":
        ds = section("decay", required=True)
        decay_gammas = ds.get_floats("gammas")
        if not decay_gammas:
            raise ConfigError("[decay] gammas must list at least one value")

    if needs_model:
        # build_system_matrix needs tau * gamma < 2 for every run the mode makes
        tau = conv.base_tau if conv is not None else time_grid.tau
        if decay_gammas is not None:
            gammas = [(f"[decay] gammas entry {g:g}", g) for g in decay_gammas]
        else:
            gammas = [(f"[model] gamma = {model.gamma:g}", model.gamma)]
        for what, gamma in gammas:
            if not tau * gamma < 2.0:
                raise ConfigError(
                    f"{what} with tau = {tau:g}: tau * gamma = {tau * gamma:g} must be < 2"
                )

    inviscid_pairs = None
    if mode == "inviscid":
        vs = section("inviscid", required=True)
        seq = vs.get_floats("upsilon_kappa")
        if not seq:
            raise ConfigError("[inviscid] upsilon_kappa must list at least one value")
        if any(v < 0 for v in seq):
            raise ConfigError("[inviscid] upsilon_kappa values must be >= 0")
        inviscid_pairs = tuple((v, v) for v in seq)

    verify = VerifySettings()
    vf = section("verify")
    if vf is not None:
        defaults = VerifySettings()
        alphas = vf.get_floats("alphas", required=False, default=defaults.alphas)
        if not alphas:
            raise ConfigError("[verify] alphas must list at least one value")
        for a_ in alphas:
            if not (1.0 < a_ <= 2.0):
                raise ConfigError(f"[verify] alphas: alpha must lie in (1, 2], got {a_}")
        ints = {}
        for key, least in (("weight_length", 3), ("grid_points", 3), ("vectors", 1), ("seed", 0)):
            ints[key] = vf.get_int(key, required=False, default=getattr(defaults, key))
            if ints[key] < least:
                raise ConfigError(f"[verify] {key} must be >= {least}, got {ints[key]}")
        verify = VerifySettings(alphas=tuple(alphas), **ints)

    return RunConfig(
        mode=mode,
        model=model,
        grid=grid,
        time=time_grid,
        solver=solver,
        initial=initial,
        output_dir=output_dir,
        snapshot_times=snapshot_times,
        convergence=conv,
        decay_gammas=decay_gammas,
        inviscid_pairs=inviscid_pairs,
        verify=verify,
    )


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    lines = ["[run]", f"mode = {cfg.mode}", ""]
    if cfg.model is not None:
        m = cfg.model
        lines += [
            "[model]",
            f"alpha = {_f17(m.alpha)}",
            f"upsilon = {_f17(m.upsilon)}",
            f"eta = {_f17(m.eta)}",
            f"kappa = {_f17(m.kappa)}",
            f"zeta = {_f17(m.zeta)}",
            f"gamma = {_f17(m.gamma)}",
            f"initial = {cfg.initial}",
            "",
            "[grid]",
            f"a = {_f17(cfg.grid.a)}",
            f"b = {_f17(cfg.grid.b)}",
            f"m = {cfg.grid.M}",
            "",
            "[time]",
            f"t_final = {_f17(cfg.time.T)}",
            f"steps = {cfg.time.N}",
            "",
        ]
    lines += [
        "[solver]",
        f"iter_tol = {_f17(cfg.solver.iter_tol)}",
        f"max_iters = {cfg.solver.max_iters}",
        "",
    ]
    if cfg.output_dir is not None or cfg.snapshot_times:
        lines.append("[output]")
        if cfg.output_dir is not None:
            lines.append(f"dir = {cfg.output_dir}")
        if cfg.snapshot_times:
            lines.append("snapshot_times = " + " ".join(_f17(t) for t in cfg.snapshot_times))
        lines.append("")
    if cfg.convergence is not None:
        c = cfg.convergence
        lines += [
            "[convergence]",
            f"base_tau = {_f17(c.base_tau)}",
            f"base_h = {_f17(c.base_h)}",
            f"levels = {c.levels}",
            f"reference = {c.reference}",
        ]
        if c.h_ref is not None:
            lines.append(f"h_ref = {_f17(c.h_ref)}")
        if c.tau_ref is not None:
            lines.append(f"tau_ref = {_f17(c.tau_ref)}")
        lines.append("")
    if cfg.decay_gammas is not None:
        lines += ["[decay]", "gammas = " + " ".join(_f17(g) for g in cfg.decay_gammas), ""]
    if cfg.inviscid_pairs is not None:
        lines += [
            "[inviscid]",
            "upsilon_kappa = " + " ".join(_f17(v) for v, _ in cfg.inviscid_pairs),
            "",
        ]
    v = cfg.verify
    lines += [
        "[verify]",
        "alphas = " + " ".join(_f17(a) for a in v.alphas),
        f"weight_length = {v.weight_length}",
        f"grid_points = {v.grid_points}",
        f"vectors = {v.vectors}",
        f"seed = {v.seed}",
        "",
    ]
    return "\n".join(lines)


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Deterministic CSV: header row, floats at 17 significant digits,
    empty cell for missing values."""

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return _f17(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    with Path(path).open("w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _initial_sampler(cfg: RunConfig) -> Callable[[np.ndarray], np.ndarray]:
    if cfg.initial == "soliton":
        upsilon = cfg.model.upsilon
        return lambda x: sech_soliton_solution(x, 0.0, upsilon)
    return lambda x: np.exp(-2.0 * x * x).astype(complex)


def _write_trajectory(traj, outdir: Path) -> None:
    write_csv(outdir / "norms.csv", ["t", "norm_sq"], zip(traj.times, traj.norm_sq))
    write_csv(
        outdir / "diagnostics.csv",
        ["n", "iterations", "increment", "identity_residual"],
        (
            (n + 1, d.iterations, d.final_increment, d.energy_identity_residual)
            for n, d in enumerate(traj.diagnostics)
        ),
    )
    x = traj.grid.interior_nodes()
    for t, snap in sorted(traj.snapshots.items()):
        write_csv(
            outdir / f"snapshot_t{t:g}.csv",
            ["x", "re", "im", "abs"],
            zip(x, snap.values.real, snap.values.imag, np.abs(snap.values)),
        )


def _convergence_rows(rows: list[ConvergenceRow]):
    for r in rows:
        yield (r.tau, r.h, r.err_l2, r.err_linf, r.order1, r.order2)


def run_simulate(cfg: RunConfig, outdir: Path) -> int:
    traj = run_simulation(
        cfg.model, cfg.grid, cfg.time, _initial_sampler(cfg), cfg.solver, cfg.snapshot_times
    )
    _write_trajectory(traj, outdir)
    return 0


def run_convergence(cfg: RunConfig, outdir: Path, full_reference: bool = False) -> int:
    c = cfg.convergence
    upsilon = cfg.model.upsilon
    if c.reference == "exact":
        if cfg.model.alpha != 2.0:
            raise ConfigError("[convergence] reference = exact requires alpha = 2")
        reference = ExactReference(lambda x, t: sech_soliton_solution(x, t, upsilon))
    elif full_reference:
        reference = FULL_SCALE_REFERENCE
    else:
        reference = FineGridReference(h_ref=c.h_ref, tau_ref=c.tau_ref)
    rows = convergence_study(
        cfg.model,
        (cfg.grid.a, cfg.grid.b),
        cfg.time.T,
        c.base_tau,
        c.base_h,
        c.levels,
        reference,
        u0=lambda x: sech_soliton_solution(x, 0.0, upsilon),
        settings=cfg.solver,
    )
    write_csv(
        outdir / "convergence.csv",
        ["tau", "h", "err_l2", "err_linf", "order1", "order2"],
        _convergence_rows(rows),
    )
    return 0


def run_decay(cfg: RunConfig, outdir: Path) -> int:
    series = norm_decay_study(
        cfg.model, cfg.decay_gammas, cfg.grid, cfg.time, _initial_sampler(cfg), cfg.solver
    )
    for gamma, (times, norms) in series.items():
        write_csv(outdir / f"norms_gamma{gamma:g}.csv", ["t", "norm_sq"], zip(times, norms))
    return 0


def run_inviscid(cfg: RunConfig, outdir: Path) -> int:
    rows = inviscid_limit_study(
        cfg.model, cfg.inviscid_pairs, cfg.grid, cfg.time, _initial_sampler(cfg), cfg.solver
    )
    write_csv(outdir / "inviscid.csv", ["upsilon", "kappa", "deviation_l2"], rows)
    return 0


def run_verify(cfg: RunConfig, outdir: Path) -> int:
    v = cfg.verify
    report = verify_suite(
        alphas=v.alphas,
        weight_length=v.weight_length,
        grid_points=v.grid_points,
        n_vectors=v.vectors,
        seed=v.seed,
    )
    for check in report.checks:
        print(check.line())
    write_csv(
        outdir / "verify.csv",
        ["check", "alpha", "passed", "margin", "detail"],
        ((c.name, c.alpha, c.passed, c.margin, c.detail) for c in report.checks),
    )
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fgle",
        description="Fractional Ginzburg-Landau solver: simulations, convergence "
        "studies and operator verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        sp = sub.add_parser(name, help=f"run a '{name}' configuration")
        sp.add_argument("--config", required=True, help="path to the run configuration")
        sp.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        if name == "convergence":
            sp.add_argument(
                "--full-reference",
                action="store_true",
                help="use the full-scale fine reference (h=0.0125, tau=0.0001)",
            )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        if cfg.mode != args.command:
            raise ConfigError(
                f"config declares mode '{cfg.mode}' but the '{args.command}' command was invoked"
            )
        outdir = Path(args.out or cfg.output_dir or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return run_simulate(cfg, outdir)
        if args.command == "convergence":
            return run_convergence(cfg, outdir, full_reference=args.full_reference)
        if args.command == "decay":
            return run_decay(cfg, outdir)
        if args.command == "inviscid":
            return run_inviscid(cfg, outdir)
        return run_verify(cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: step {exc.step + 1}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
