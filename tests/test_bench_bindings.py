"""The benchmark tracer still binds to the package.

``bench/tracer.py`` wraps package functions by module and name. A rename or
a changed call path would otherwise surface only when the benchmark runs;
here it fails in about a second.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fgle.cli as cli_mod
import fgle.stepper as stepper_mod
from fgle.stepper import GridSpec, ModelParams, TimeGrid

_TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_target_resolves():
    for name, owner_path, attr, _ in tracer.TARGETS:
        assert callable(getattr(tracer._owner(owner_path), attr)), name


def test_traced_run_passes_wiring_check():
    steps = 5
    grid = GridSpec(-10.0, 10.0, 400)
    params = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
    run_simulation = stepper_mod.run_simulation
    with tracer.installed(tracer.Tracer("bindings")) as t:
        stepper_mod.run_simulation(
            params, grid, TimeGrid(0.1, steps), lambda x: np.exp(-2.0 * x * x)
        )
    # the wrappers must not outlive the block, or later tests would run traced
    assert stepper_mod.run_simulation is run_simulation
    expected = {"stepper.run": 1, "linalg.lu_factor": 1, "stepper.step": steps}
    assert tracer.check_wiring(t.spans, expected) == []
    # the factor the run holds is the two half blocks in single precision,
    # about a quarter of a dense A
    (factor,) = [s for s in t.spans if s["name"] == "linalg.lu_factor"]
    assert factor["mib"] <= 0.3 * 16 * (grid.M - 1) ** 2 / 2**20


def test_traced_verify_suite_passes_wiring_check():
    # the verify workload calls the suite through the front end's binding
    with tracer.installed(tracer.Tracer("bindings")) as t:
        cli_mod.verify_suite(alphas=(1.5,), grid_points=16, n_vectors=2)
    expected = {
        "cli.verify_suite": 1,
        "spectral.margins": 1,
        "stepper.run": 1,
        "linalg.lu_factor": 1,
    }
    assert tracer.check_wiring(t.spans, expected) == []
