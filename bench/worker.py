"""One measured process of the benchmark.

Reads a JSON request on stdin and prints a JSON reply as its last line of
standard output. Modes:

- ``setup``: time ``import fgle`` plus one operator assembly and one
  midpoint factorization at the workload's largest grid;
- ``run``: run the workload once, untraced, and apply its gate;
- ``trace``: the same with the tracer installed, replying with the spans,
  the per-layer metrics and the wiring check.

Each request runs in a fresh process, so ``peak_rss_mb`` is the workload's
own peak and ``setup_s`` pays the import.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _libraries() -> dict:
    """numpy and scipy versions, with the BLAS each was built against and the
    number of threads that BLAS runs in this process."""
    import ctypes

    import numpy
    import scipy

    info = {}
    for pkg in (numpy, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"version": pkg.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                getter = getattr(dll, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    entry["blas_threads"] = getter()
                    break
        info[pkg.__name__] = entry
    return info


def setup(request: dict) -> dict:
    t0 = time.perf_counter()
    import fgle

    import_s = time.perf_counter() - t0
    from workloads import from_spec

    case = from_spec(request["workload"]).setup_case()
    t1 = time.perf_counter()
    m = case.grid.M
    op = fgle.wsgd.assemble_operator(fgle.wsgd.wsgd_weights(case.params.alpha, m), m)
    fgle.stepper.build_system_matrix(case.params, case.grid, case.tau, op)
    build_s = time.perf_counter() - t1
    return {"setup_s": import_s + build_s, "import_s": import_s, "failures": []}


def run(request: dict) -> dict:
    from contextlib import nullcontext

    import tracer
    from workloads import from_spec

    workload = from_spec(request["workload"])
    traced = request["mode"] == "trace"
    recorder = tracer.Tracer(request["run_id"]) if traced else None
    error = None
    with tracer.installed(recorder) if traced else nullcontext():
        t0 = time.perf_counter()
        try:
            output = workload.run(request["seed"])
        except Exception as exc:  # a failed run is counted, never retried
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t0
    if error is None:
        try:
            failures = workload.gate(output)
        except Exception as exc:  # malformed output fails its gate
            failures = [f"gate raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    reply = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
    }
    if traced:
        reply["spans"] = recorder.spans
        reply["layers"] = tracer.layer_metrics(recorder.spans)
        # a run cut short by an exception has partial counts; it is already failed
        expected = workload.expected_counts()
        reply["wiring"] = [] if error else tracer.check_wiring(recorder.spans, expected)
    return reply


def main() -> int:
    request = json.loads(sys.stdin.read())
    reply = setup(request) if request["mode"] == "setup" else run(request)
    reply["libraries"] = _libraries()
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
