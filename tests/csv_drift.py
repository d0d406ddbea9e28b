"""How far the CSVs of the five ``fgle`` modes move between two source trees.

    python tests/csv_drift.py OLD_TREE NEW_TREE --threads 1

Runs ``fgle verify``, ``simulate``, ``inviscid``, ``decay`` and ``convergence``
from the fixed configs below, once with each tree's ``src`` on PYTHONPATH and
OPENBLAS_NUM_THREADS set to ``--threads``, each run in a fresh interpreter.
The grids span both solver paths: up to 99 unknowns the LU of A is the solve,
beyond that the Gohberg-Semencul formula. For every CSV it prints
"byte-identical", or the largest absolute difference of each numeric column
that moved; a ``diagnostics.csv`` also gets both trees' iteration totals and
the number of steps whose count differs. Every output goes to one temporary
directory, removed at the end; nothing else is written.

Run by hand: it is not collected by pytest and takes about a minute.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# README's coefficients; a study does not read the ones it sets for each run
COEFFS = {"alpha": 1.8, "upsilon": 1.0, "eta": 1.0, "kappa": 1.0, "zeta": 2.0, "gamma": 0.0}
UNREAD = {"simulate": (), "decay": ("gamma",), "inviscid": ("upsilon", "kappa")}
SOLITON = {"upsilon": 0.3, "eta": 0.5, "kappa": -0.13337568346479610, "zeta": -1.0,
           "gamma": 0.0, "initial": "soliton"}


def _config(mode: str, model: dict, a: float, b: float, m: int, steps: int, extra: str) -> str:
    keys = "".join(f"{k} = {v}\n" for k, v in model.items())
    return (f"[run]\nmode = {mode}\n[model]\n{keys}[grid]\na = {a}\nb = {b}\nm = {m}\n"
            f"[time]\nt_final = 1.0\nsteps = {steps}\n{extra}\n")


def _readme(mode: str, m: int, extra: str) -> str:
    model = {k: v for k, v in COEFFS.items() if k not in UNREAD[mode]}
    return _config(mode, model, -10.0, 10.0, m, 20, extra)


def _soliton(alpha: float, convergence: str) -> str:
    return _config("convergence", {"alpha": alpha, **SOLITON}, -16.0, 16.0, 40, 5,
                   f"[convergence]\n{convergence}")


# (case name, mode, config): one CSV directory per case
CASES = [
    ("verify-defaults", "verify", "[run]\nmode = verify\n"),
    ("verify-M200", "verify",
     "[run]\nmode = verify\n[verify]\nalphas = 1.5 2.0\ngrid_points = 200\n"),
    *[(f"simulate-M{m}", "simulate", _readme("simulate", m, "[output]\nsnapshot_times = 0.5 1.0"))
      for m in (64, 100, 101, 200, 400)],
    *[(f"inviscid-M{m}", "inviscid", _readme("inviscid", m, "[inviscid]\nupsilon_kappa = 0.1 0.01"))
      for m in (64, 200, 400)],
    *[(f"decay-M{m}", "decay", _readme("decay", m, "[decay]\ngammas = -2 -4 -6"))
      for m in (64, 200, 400)],
    ("convergence-exact-M40-160", "convergence", _soliton(2.0, "levels = 3\nreference = exact")),
    ("convergence-fine-M320", "convergence",
     _soliton(1.6, "levels = 2\nreference = fine\nh_ref = 0.1\ntau_ref = 0.05")),
    ("convergence-fine-M640", "convergence",
     _soliton(1.6, "levels = 2\nreference = fine\nh_ref = 0.05\ntau_ref = 0.025")),
]


def run_case(tree: Path, mode: str, config: str, out: Path, threads: str) -> None:
    out.mkdir(parents=True)
    cfg = out / "run.cfg"
    cfg.write_text(config)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": threads,
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "fgle.cli", mode, "--config", str(cfg),
                           "--out", str(out / "csv")], env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a verify gate failed, which is output too
        raise SystemExit(f"{tree}: {mode} exited {proc.returncode}: {proc.stderr.strip()}")


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def drift(old: Path, new: Path) -> str:
    """'byte-identical', or the largest absolute difference of each numeric column that moved."""
    if old.read_bytes() == new.read_bytes():
        return "byte-identical"
    a, b = _rows(old), _rows(new)
    if a[0] != b[0] or len(a) != len(b):
        return f"shape differs: {len(a) - 1} rows of {a[0]} against {len(b) - 1} of {b[0]}"
    moved = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for name, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                moved[name] = "text differs"
                continue
            if not isinstance(moved.get(name), str):
                moved[name] = max(moved.get(name, 0.0), gap)
    parts = [f"{k} {v:.1e}" if not isinstance(v, str) else f"{k} {v}" for k, v in moved.items()]
    if "iterations" in a[0]:
        col = a[0].index("iterations")
        its = [[int(r[col]) for r in rows[1:]] for rows in (a, b)]
        steps = sum(x != y for x, y in zip(*its))
        parts.append(f"iterations {sum(its[0])} -> {sum(its[1])} ({steps} steps differ)")
    return ", ".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree to compare from")
    parser.add_argument("new", type=Path, help="source tree to compare to")
    parser.add_argument("--threads", default="1", help="OPENBLAS_NUM_THREADS for every run")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode, config in CASES:
            dirs = []
            for label, tree in (("old", args.old), ("new", args.new)):
                out = Path(tmp, label, name)
                run_case(tree.resolve(), mode, config, out, args.threads)
                dirs.append(out / "csv")
            files = sorted({p.relative_to(d) for d in dirs for p in d.glob("*.csv")})
            for rel in files:
                pair = [d / rel for d in dirs]
                verdict = drift(*pair) if all(p.exists() for p in pair) else "in one tree only"
                print(f"{name} {rel}: {verdict}")


if __name__ == "__main__":
    main()
