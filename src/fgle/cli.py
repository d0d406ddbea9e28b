"""Command-line front end: strict key-value run configs, study dispatch and
deterministic CSV artifacts.

A config has INI-style sections, '#' comments and space-separated lists. The
admitted sections and keys are those of ``_KEYS``; README has the reference.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .experiments import (
    FineGridReference,
    VerifySettings,
    _balance_runs,
    _decay_models,
    _initial_data,
    _inviscid_models,
    _sech_soliton_reference,
    convergence_grids,
    convergence_study,
    inviscid_limit_study,
    norm_decay_study,
    verify_suite,
)
from .linalg import SingularMatrixError
from .stepper import (
    GridSpec,
    ModelParams,
    NonConvergence,
    SolverSettings,
    TimeGrid,
    _check_factor_fits,
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
        if self.reference == "fine" and None in (self.h_ref, self.tau_ref):
            raise ValueError("reference = fine requires both h_ref and tau_ref")


def _reference(conv: ConvergenceSettings, model: ModelParams, initial: str):
    """The reference ``conv`` names: the sech soliton (an ExactReference), which ``model``
    and the initial data named ``initial`` must be, or a nested fine-grid run."""
    if conv.reference == "exact":
        return _sech_soliton_reference(model, initial)
    return FineGridReference(conv.h_ref, conv.tau_ref)


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


# Sections a mode may omit; every other one it reads (``_MODES``) is required.
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


def _unread_keys(mode: str, initial: str) -> dict[str, tuple[str, ...]]:
    """The keys of sections ``mode`` reads that it does not read: snapshot times outside
    simulate, and the [model] coefficients its study sets for each run itself. Inviscid
    reads upsilon with initial = soliton, as that profile is built from it."""
    inviscid = ("kappa",) if initial == "soliton" else ("upsilon", "kappa")
    model = {"decay": ("gamma",), "inviscid": inviscid}.get(mode, ())
    return {"model": model, "output": () if mode == "simulate" else ("snapshot_times",)}


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
    for part in raw.split() if kind is tuple else [raw]:
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
    read, _ = _MODES[mode]
    for name in sections:
        if name != "run" and name not in read:
            raise ConfigError(f"section [{name}] is not read by mode = {mode}")
    initial = sections.get("model", {}).get("initial", "gaussian")
    unread = _unread_keys(mode, initial)
    for name, keys in unread.items():
        for key in keys:
            if key in sections.get(name, {}):
                raise ConfigError(f"[{name}] {key} is not read by mode = {mode}")

    model = grid = time_grid = conv = None
    if "model" in read:
        # a coefficient the study sets for each run is 0.0, as in inviscid's limit run
        coeffs = {**dict.fromkeys(unread["model"], 0.0), **section("model")}
        coeffs.pop("initial", None)
        model = _build("model", ModelParams, **coeffs)
        _checked("[model]", _initial_data, initial, model.upsilon)
        gs = section("grid", "a", "b", "m")
        ts = section("time", "t_final", "steps")
        grid = _build("grid", GridSpec, a=gs["a"], b=gs["b"], M=gs["m"])
        _checked("[grid]", _check_factor_fits, grid.M)
        time_grid = _build("time", TimeGrid, T=ts["t_final"], N=ts["steps"])
        _checked("[model] gamma:", _check_time_step, time_grid.tau, model.gamma)

    solver = _build("solver", SolverSettings, **section("solver"))

    output = section("output")
    snapshot_times = output.get("snapshot_times", ())
    if mode == "simulate":
        _checked("[output] snapshot_times:", _check_distinct_files, "snapshot_t", snapshot_times)
        _checked("[output]", snapshot_steps, time_grid, snapshot_times)

    decay_gammas = None
    if mode == "decay":
        decay_gammas = section("decay", "gammas")["gammas"]
        _checked("[decay]", _decay_models, model, decay_gammas, grid, time_grid)
        _checked("[decay] gammas:", _check_distinct_files, "norms_gamma", decay_gammas)

    if mode == "convergence":
        conv = _build("convergence", ConvergenceSettings, **section("convergence"))
        reference = _checked("[convergence]", _reference, conv, model, initial)
        _checked("[convergence]", convergence_grids, model, (grid.a, grid.b), time_grid.T,
                 time_grid.tau, grid.h, conv.levels, reference)

    inviscid_pairs = None
    if mode == "inviscid":
        seq = section("inviscid", "upsilon_kappa")["upsilon_kappa"]
        inviscid_pairs = tuple((v, v) for v in seq)
        _checked("[inviscid]", _inviscid_models, model, inviscid_pairs, grid, time_grid,
                 "upsilon_kappa")

    verify = _build("verify", VerifySettings, **section("verify"))
    if mode == "verify":
        _checked("[verify]", _balance_runs, verify)

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
        verify=verify,
    )


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def _csv_name(stem: str, value: float) -> str:
    """The file that the series of one list entry is written to: ``stem`` and the
    value to 6 significant digits."""
    return f"{stem}{value:g}.csv"


def _check_distinct_files(stem: str, values) -> None:
    """A ValueError if two entries of ``values`` would write one file (``_csv_name``)."""
    seen: dict[str, float] = {}
    for value in values:
        name = _csv_name(stem, value)
        if name in seen:
            raise ValueError(f"{seen[name]!r} and {value!r} both write {name}")
        seen[name] = value


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Deterministic CSV: header row, floats at 17 significant digits,
    empty cell for missing values; a cell holding ``,`` or ``"`` is quoted."""

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

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)


def run_simulate(cfg: RunConfig, outdir: Path) -> int:
    u0 = _initial_data(cfg.initial, cfg.model.upsilon)
    traj = run_simulation(cfg.model, cfg.grid, cfg.time, u0, cfg.solver, cfg.snapshot_times)
    write_csv(outdir / "norms.csv", ["t", "norm_sq"], zip(traj.times, traj.norm_sq))
    write_csv(
        outdir / "diagnostics.csv",
        ["n", "iterations", "increment", "identity_residual"],
        zip(range(1, traj.iterations.size + 1), traj.iterations, traj.final_increments,
            traj.energy_residuals),
    )
    x = traj.grid.interior_nodes()
    for t, snap in sorted(traj.snapshots.items()):
        write_csv(
            outdir / _csv_name("snapshot_t", t),
            ["x", "re", "im", "abs"],
            zip(x, snap.real, snap.imag, np.abs(snap)),
        )
    return 0


def run_convergence(cfg: RunConfig, outdir: Path) -> int:
    rows = convergence_study(
        cfg.model,
        (cfg.grid.a, cfg.grid.b),
        cfg.time.T,
        cfg.time.tau,
        cfg.grid.h,
        cfg.convergence.levels,
        _reference(cfg.convergence, cfg.model, cfg.initial),
        u0=_initial_data(cfg.initial, cfg.model.upsilon),
        settings=cfg.solver,
    )
    write_csv(
        outdir / "convergence.csv",
        ["tau", "h", "err_l2", "err_linf", "order1", "order2"],
        ((r.tau, r.h, r.err_l2, r.err_linf, r.order1, r.order2) for r in rows),
    )
    return 0


def run_decay(cfg: RunConfig, outdir: Path) -> int:
    u0 = _initial_data(cfg.initial, cfg.model.upsilon)
    series = norm_decay_study(cfg.model, cfg.decay_gammas, cfg.grid, cfg.time, u0, cfg.solver)
    for gamma, (times, norms) in series.items():
        write_csv(outdir / _csv_name("norms_gamma", gamma), ["t", "norm_sq"], zip(times, norms))
    return 0


def run_inviscid(cfg: RunConfig, outdir: Path) -> int:
    u0 = _initial_data(cfg.initial, cfg.model.upsilon)
    rows = inviscid_limit_study(cfg.model, cfg.inviscid_pairs, cfg.grid, cfg.time, u0, cfg.solver)
    write_csv(outdir / "inviscid.csv", ["upsilon", "kappa", "deviation_l2"], rows)
    return 0


def run_verify(cfg: RunConfig, outdir: Path) -> int:
    report = verify_suite(*astuple(cfg.verify))  # VerifySettings lists the suite's arguments
    for check in report.checks:
        print(check.line())
    write_csv(
        outdir / "verify.csv",
        ["check", "alpha", "passed", "margin", "detail"],
        ((c.name, c.alpha, c.passed, c.margin, c.detail) for c in report.checks),
    )
    return 0 if report.passed else 1


# Each mode: the sections it reads besides [run] (all but _OPTIONAL required), and its runner.
_STUDY = ("model", "grid", "time", "solver", "output")
_MODES: dict[str, tuple[tuple[str, ...], Callable[[RunConfig, Path], int]]] = {
    "simulate": (_STUDY, run_simulate),
    "convergence": ((*_STUDY, "convergence"), run_convergence),
    "decay": ((*_STUDY, "decay"), run_decay),
    "inviscid": ((*_STUDY, "inviscid"), run_inviscid),
    "verify": (("output", "verify"), run_verify),
}


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
        _, run = _MODES[cfg.mode]
        return run(cfg, outdir)
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
