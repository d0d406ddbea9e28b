"""Command-line front end: strict key-value run configs, study dispatch and
deterministic CSV artifacts.

A config has INI-style sections, '#' comments and space-separated lists. The
admitted sections and keys are those of ``_KEYS``; README has the reference.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .experiments import (
    ConvergenceRow,
    FineGridReference,
    VerifySettings,
    _check_listed,
    _sech_soliton_reference,
    convergence_grids,
    convergence_study,
    inviscid_limit_study,
    norm_decay_study,
    sech_soliton_coefficients,
    sech_soliton_solution,
    verify_suite,
)
from .linalg import SingularMatrixError
from .stepper import (
    GridSpec,
    ModelParams,
    NonConvergence,
    SolverSettings,
    TimeGrid,
    _check_time_step,
    run_simulation,
    snapshot_steps,
)
from .wsgd import _check_count

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

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ConvergenceSettings:
    levels: int
    reference: str  # "exact" | "fine"
    h_ref: float | None = None
    tau_ref: float | None = None

    def __post_init__(self):
        if self.reference not in ("exact", "fine"):
            raise ValueError(f"reference must be 'exact' or 'fine', got '{self.reference}'")
        _check_count("levels", self.levels, 1)
        if self.reference == "exact" and (self.h_ref, self.tau_ref) != (None, None):
            raise ValueError("h_ref and tau_ref apply to reference = fine only")


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


# The sections each mode reads besides [run]; all but _OPTIONAL are required.
_STUDY = ("model", "grid", "time", "solver", "output")
_MODES: dict[str, tuple[str, ...]] = {
    "simulate": _STUDY,
    "convergence": (*_STUDY, "convergence"),
    "decay": (*_STUDY, "decay"),
    "inviscid": (*_STUDY, "inviscid"),
    "verify": ("output", "verify"),
}
_OPTIONAL = ("solver", "output", "verify")

# Every admitted key, by section, with its kind: float, int, str, or tuple
# (a list of finite floats). Where a section builds a settings dataclass,
# keys named like its fields are passed to it as they are.
_KEYS: dict[str, dict[str, type]] = {
    "run": {"mode": str},
    "model": {
        "alpha": float,
        "upsilon": float,
        "eta": float,
        "kappa": float,
        "zeta": float,
        "gamma": float,
        "initial": str,
    },
    "grid": {"a": float, "b": float, "m": int},
    "time": {"t_final": float, "steps": int},
    "solver": {"iter_tol": float, "max_iters": int},
    "output": {"dir": str, "snapshot_times": tuple},
    "convergence": {
        "levels": int,
        "reference": str,
        "h_ref": float,
        "tau_ref": float,
    },
    "decay": {"gammas": tuple},
    "inviscid": {"upsilon_kappa": tuple},
    "verify": {
        "alphas": tuple,
        "weight_length": int,
        "grid_points": int,
        "vectors": int,
        "seed": int,
    },
}


def _convert(section: str, key: str, raw: str, kind: type):
    """The value of ``key = raw`` as its kind; numbers must be finite."""
    if kind is str:
        return raw.strip()
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected an integer, got '{raw}'") from None
    values = []
    for part in raw.replace(",", " ").split() if kind is tuple else [raw]:
        try:
            value = float(part)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected a number, got '{raw}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got '{raw}'")
        values.append(value)
    return tuple(values) if kind is tuple else values[0]


def _checked(where: str, check: Callable, *args, **kwargs):
    """``check(*args, **kwargs)``, its ValueError reported after ``where``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _build(section: str, cls, **values):
    """``cls(**values)``; a missing required field or a ValueError is reported
    against ``[section]``."""
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"section [{section}] is missing required key '{f.name}'")
    return _checked(f"[{section}]", cls, **values)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration; unknown keys are errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections: dict[str, dict] = {}
    for name in cp.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in cp[name]:
            if key not in _KEYS[name]:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")
        sections[name] = {k: _convert(name, k, v, _KEYS[name][k]) for k, v in cp[name].items()}

    def section(name: str, *required: str) -> dict:
        if name not in sections and name not in _OPTIONAL:
            raise ConfigError(f"missing required section [{name}]")
        values = sections.get(name, {})
        for key in required:
            if key not in values:
                raise ConfigError(f"section [{name}] is missing required key '{key}'")
        return values

    mode = section("run", "mode")["mode"]
    if mode not in _MODES:
        raise ConfigError(f"[run] mode must be one of {', '.join(_MODES)}, got '{mode}'")
    for name in sections:
        if name != "run" and name not in _MODES[mode]:
            raise ConfigError(f"section [{name}] is not read by mode = {mode}")

    model = grid = time_grid = conv = None
    initial = "gaussian"
    if "model" in _MODES[mode]:
        coeffs = dict(section("model"))
        initial = coeffs.pop("initial", initial)
        model = _build("model", ModelParams, **coeffs)
        if initial not in ("gaussian", "soliton"):
            raise ConfigError(f"[model] initial must be 'gaussian' or 'soliton', got '{initial}'")
        if initial == "soliton":
            _checked("[model] initial = soliton:", sech_soliton_coefficients, model.upsilon)
        gs = section("grid", "a", "b", "m")
        ts = section("time", "t_final", "steps")
        grid = _build("grid", GridSpec, a=gs["a"], b=gs["b"], M=gs["m"])
        time_grid = _build("time", TimeGrid, T=ts["t_final"], N=ts["steps"])

    solver = _build("solver", SolverSettings, **section("solver"))

    output = section("output")
    snapshot_times = output.get("snapshot_times", ())
    if mode == "simulate":
        _checked("[output]", snapshot_steps, time_grid, snapshot_times)
    elif "snapshot_times" in output:
        raise ConfigError(f"[output] snapshot_times is not read by mode = {mode}")

    decay_gammas = None
    if mode == "decay":
        decay_gammas = section("decay", "gammas")["gammas"]
        _checked("[decay]", _check_listed, "gammas", decay_gammas,
                 lambda gamma: _check_time_step(time_grid.tau, gamma))
    elif model is not None:
        # later convergence levels have smaller tau, so level 0's is the one to check
        _checked("[model] gamma:", _check_time_step, time_grid.tau, model.gamma)

    if mode == "convergence":
        conv = _build("convergence", ConvergenceSettings, **section("convergence"))
        fine = None
        if conv.reference == "exact":
            _checked("[convergence]", _sech_soliton_reference, model, initial)
        else:
            section("convergence", "h_ref", "tau_ref")
            fine = _checked("[convergence]", FineGridReference, conv.h_ref, conv.tau_ref)
        _checked("[convergence]", convergence_grids, (grid.a, grid.b), time_grid.T,
                 time_grid.tau, grid.h, conv.levels, fine)

    inviscid_pairs = None
    if mode == "inviscid":
        seq = section("inviscid", "upsilon_kappa")["upsilon_kappa"]
        _checked("[inviscid]", _check_listed, "upsilon_kappa", seq,
                 lambda v: replace(model, upsilon=v, kappa=v))
        inviscid_pairs = tuple((v, v) for v in seq)

    return RunConfig(
        mode=mode,
        model=model,
        grid=grid,
        time=time_grid,
        solver=solver,
        initial=initial,
        output_dir=output.get("dir"),
        snapshot_times=snapshot_times,
        convergence=conv,
        decay_gammas=decay_gammas,
        inviscid_pairs=inviscid_pairs,
        verify=_build("verify", VerifySettings, **section("verify")),
    )


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of the sections ``cfg.mode`` reads;
    parse(serialize(parse(text))) == parse(text)."""
    sections: dict[str, dict] = {"run": {"mode": cfg.mode}}
    if cfg.model is not None:
        sections["model"] = {**asdict(cfg.model), "initial": cfg.initial}
        sections["grid"] = {"a": cfg.grid.a, "b": cfg.grid.b, "m": cfg.grid.M}
        sections["time"] = {"t_final": cfg.time.T, "steps": cfg.time.N}
    sections["solver"] = asdict(cfg.solver)
    sections["output"] = {"dir": cfg.output_dir, "snapshot_times": cfg.snapshot_times}
    if cfg.convergence is not None:
        sections["convergence"] = asdict(cfg.convergence)
    if cfg.decay_gammas is not None:
        sections["decay"] = {"gammas": cfg.decay_gammas}
    if cfg.inviscid_pairs is not None:
        sections["inviscid"] = {"upsilon_kappa": tuple(v for v, _ in cfg.inviscid_pairs)}
    sections["verify"] = asdict(cfg.verify)

    lines = []
    for name in ("run", *_MODES[cfg.mode]):
        entries = []
        for key, kind in _KEYS[name].items():
            value = sections[name][key]
            if kind is tuple:
                value = " ".join(_f17(v) for v in value) or None
            elif kind is float and value is not None:
                value = _f17(value)
            if value is not None:
                entries.append(f"{key} = {value}")
        if entries:
            lines += [f"[{name}]", *entries, ""]
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


def run_convergence(cfg: RunConfig, outdir: Path) -> int:
    c = cfg.convergence
    if c.reference == "exact":
        reference = _sech_soliton_reference(cfg.model, cfg.initial)
    else:
        reference = FineGridReference(h_ref=c.h_ref, tau_ref=c.tau_ref)
    rows = convergence_study(
        cfg.model,
        (cfg.grid.a, cfg.grid.b),
        cfg.time.T,
        cfg.time.tau,
        cfg.grid.h,
        c.levels,
        reference,
        u0=_initial_sampler(cfg),
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
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        if cfg.mode != args.command:
            raise ConfigError(
                f"config declares mode '{cfg.mode}' but the '{args.command}' command was invoked"
            )
        outdir = Path(args.out or cfg.output_dir or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        runs = {"simulate": run_simulate, "convergence": run_convergence, "decay": run_decay,
                "inviscid": run_inviscid, "verify": run_verify}
        return runs[args.command](cfg, outdir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: step {exc.step + 1}: {exc}", file=sys.stderr)
        return 3
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
