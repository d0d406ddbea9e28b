"""Spans around calls into fgle's layers, recorded from outside the package.

fgle's modules import each other's functions by name (``stepper`` binds
``lu_factor`` and ``assemble_operator``; ``experiments`` and ``cli`` bind
``run_simulation`` and others), so a wrapper replaces every binding of a
function in every fgle module, and ``FactorizedSystem.solve`` on its class.
Spans stay in memory; the benchmark writes them out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from fgle import spectral

MIB = 1024.0 * 1024.0


def _quad_evals(args, result) -> dict:
    fields = args["fields"]
    nodes = fields.shape[0]
    vectors = fields.shape[1] if fields.ndim == 2 else 1
    panels = args.get("quadrature_points") or max(16 * nodes, spectral.QUADRATURE_FLOOR)
    return {"quad_evals": panels * nodes * vectors}


def _operator_mib(result) -> float:
    chol = getattr(result, "chol", None)
    return (result.C.nbytes + (chol.nbytes if chol is not None else 0)) / MIB


# (span name, "module[:class]" owning the function, attribute, attributes read
# from the bound call arguments and the result)
TARGETS = (
    ("wsgd.weights", "fgle.wsgd", "wsgd_weights", None),
    ("wsgd.assemble", "fgle.wsgd", "assemble_operator",
     lambda a, r: {"M": a["M"], "mib": _operator_mib(r)}),
    ("wsgd.symbol", "fgle.wsgd", "symbol_f", None),
    ("linalg.lu_factor", "fgle.linalg", "lu_factor",
     lambda a, r: {"M": r.size + 1, "mib": (r.lu.nbytes + r.piv.nbytes) / MIB}),
    ("linalg.solve", "fgle.linalg:FactorizedSystem", "solve",
     lambda a, r: {"M": a["self"].size + 1}),
    ("stepper.build_system", "fgle.stepper", "build_system_matrix",
     lambda a, r: {"M": a["grid"].M}),
    ("stepper.step", "fgle.stepper", "fixed_point_step",
     lambda a, r: {"M": a["grid"].M, "iters": r[1].iterations}),
    ("stepper.run", "fgle.stepper", "run_simulation", lambda a, r: {"M": a["grid"].M}),
    ("spectral.margins", "fgle.spectral", "energy_equivalence_margins", _quad_evals),
    ("experiments.convergence_study", "fgle.experiments", "convergence_study", None),
    ("experiments.inviscid_limit_study", "fgle.experiments", "inviscid_limit_study", None),
    ("cli.verify_suite", "fgle.cli", "verify_suite",
     lambda a, r: {"checks": len(r.checks), "failed": len(r.failures())}),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    restore = []
    modules = [m for n, m in list(sys.modules.items()) if n == "fgle" or n.startswith("fgle.")]
    try:
        for name, owner_path, attr, describe in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, describe)
            # a class attribute has one binding; a module function has one per importer
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, key, original))
                        setattr(holder, key, wrapped)
        yield tracer
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def check_wiring(spans: list[dict], expected: dict[str, int]) -> list[str]:
    """Span counts that differ from the counts the workload implies.

    Every inner iteration of a step makes exactly one solve, so the solve
    count must also equal the iterations the steps report.
    """
    counts = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    problems = [
        f"{name}: {counts[name]} spans, expected {n}"
        for name, n in expected.items()
        if counts[name] != n
    ]
    iters = sum(s.get("iters", 0) for s in spans if s["name"] == "stepper.step")
    if counts["linalg.solve"] != iters:
        problems.append(
            f"linalg.solve: {counts['linalg.solve']} spans, steps report {iters} iterations"
        )
    return problems


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals, counts and self times from one run's spans."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)

    def total(name):
        return sum(_duration(s) for s in by_name[name])

    def self_time(*names):
        return sum(_duration(s) - child_time[s["id"]] for n in names for s in by_name[n])

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def attr_max(name, key):
        return max((s[key] for s in by_name[name] if key in s), default=0.0)

    def ms_at_largest_m(name):
        sized = [s for s in by_name[name] if "M" in s]
        if not sized:
            return 0.0
        m = max(s["M"] for s in sized)
        return 1e3 * median(_duration(s) for s in sized if s["M"] == m)

    # the fine-grid reference is the finest run_simulation a convergence study makes
    studies = {s["id"] for s in by_name["experiments.convergence_study"]}
    reference = 0.0
    for sid in studies:
        runs = [s for s in by_name["stepper.run"] if s["parent"] == sid]
        if runs:
            finest = max(s.get("M", 0) for s in runs)
            reference += sum(_duration(s) for s in runs if s.get("M") == finest)

    steps = len(by_name["stepper.step"])
    inner = attr_sum("stepper.step", "iters")
    return {
        "wsgd.weights_s": total("wsgd.weights"),
        "wsgd.assemble_s": total("wsgd.assemble"),
        "wsgd.assemble_calls": len(by_name["wsgd.assemble"]),
        "wsgd.operator_mb": attr_max("wsgd.assemble", "mib"),
        "wsgd.symbol_s": total("wsgd.symbol"),
        "wsgd.symbol_calls": len(by_name["wsgd.symbol"]),
        "linalg.lu_factor_s": total("linalg.lu_factor"),
        "linalg.lu_factor_calls": len(by_name["linalg.lu_factor"]),
        "linalg.factor_mb": attr_max("linalg.lu_factor", "mib"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.solve_calls": len(by_name["linalg.solve"]),
        "linalg.solve_ms.mmax": ms_at_largest_m("linalg.solve"),
        "stepper.build_system_s": total("stepper.build_system"),
        "stepper.run_s": total("stepper.run"),
        "stepper.runs": len(by_name["stepper.run"]),
        "stepper.step_s": total("stepper.step"),
        "stepper.steps": steps,
        "stepper.step_self_s": self_time("stepper.step"),
        "stepper.step_ms.mmax": ms_at_largest_m("stepper.step"),
        "stepper.inner_iters": inner,
        "stepper.iters_per_step": inner / steps if steps else 0.0,
        "spectral.margins_s": total("spectral.margins"),
        "spectral.margins_calls": len(by_name["spectral.margins"]),
        "spectral.quad_evals": attr_sum("spectral.margins", "quad_evals"),
        "experiments.reference_s": reference,
        "experiments.study_self_s": self_time(
            "experiments.convergence_study", "experiments.inviscid_limit_study"
        ),
        "cli.verify_suite_s": total("cli.verify_suite"),
        "cli.verify_self_s": self_time("cli.verify_suite"),
        "cli.verify_checks": attr_sum("cli.verify_suite", "checks"),
        "cli.verify_failed": attr_sum("cli.verify_suite", "failed"),
    }
