"""The benchmark's own calls still bind to the package.

``bench/tracer.py`` wraps package functions by module and name, and
``bench/worker.py`` and ``bench/workloads.py`` call the package directly. A
rename or a changed call path would otherwise surface only when the
benchmark runs; here it fails in seconds. The bench modules are loaded from
their files, so ``bench/`` is never put on ``sys.path``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fgle.cli as cli_mod
import fgle.stepper as stepper_mod
from fgle.experiments import verify_suite
from fgle.stepper import GridSpec, ModelParams, TimeGrid

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs, as an import would, so its dataclasses resolve
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("bench_tracer", "tracer.py")
workloads = _load("bench_workloads", "workloads.py")
worker = _load("bench_worker", "worker.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_worker_setup_succeeds(name, monkeypatch):
    # the worker imports its workloads by module name, as the benchmark's
    # worker process finds them beside it
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    workload = workloads.WORKLOADS[name]()
    spec = {"name": workload.name, "fields": dataclasses.asdict(workload)}
    reply = worker.setup({"mode": "setup", "workload": spec})
    assert reply["failures"] == []
    assert reply["setup_s"] > 0.0


def test_verify_suite_makes_the_gated_check_count():
    assert len(verify_suite().checks) == workloads.VerifySuite().checks() == 43


def test_every_target_resolves():
    for name, owner_path, attr, _ in tracer.TARGETS:
        assert callable(getattr(tracer._owner(owner_path), attr)), name


def test_traced_run_passes_wiring_check():
    steps = 5
    params = ModelParams(1.0, 1.0, 1.0, 2.0, 0.0, alpha=1.8)
    run_simulation = stepper_mod.run_simulation
    factor_mib = []
    for m in (400, 2560):
        with tracer.installed(tracer.Tracer("bindings")) as t:
            stepper_mod.run_simulation(
                params, GridSpec(-10.0, 10.0, m), TimeGrid(0.1, steps),
                lambda x: np.exp(-2.0 * x * x),
            )
        # the wrappers must not outlive the block, or later tests would run traced
        assert stepper_mod.run_simulation is run_simulation
        expected = {"stepper.run": 1, "linalg.lu_factor": 1, "stepper.step": steps}
        assert tracer.check_wiring(t.spans, expected) == []
        (factor,) = [s for s in t.spans if s["name"] == "linalg.lu_factor"]
        factor_mib.append(factor["mib"])
    # above the crossover the one LU a run makes is that of a fixed leading
    # section of A, whatever M: the seed of the Gohberg-Semencul generator
    assert factor_mib[0] == factor_mib[1]


def test_traced_sweep_workload_passes_wiring_check():
    # the full-size sweep (M = 2560, four runs) as the benchmark's per-layer mode traces it
    workload = workloads.InviscidSweep()
    with tracer.installed(tracer.Tracer("bindings")) as t:
        output = workload.run(seed=1)
    assert workload.gate(output) == []
    assert tracer.check_wiring(t.spans, workload.expected_counts()) == []
    layers = tracer.layer_metrics(t.spans)
    assert layers["linalg.lu_factor_calls"] == 4
    assert layers["linalg.factor_mb"] < 2.0


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
