"""Benchmark of the fgle solver: end-to-end and per-layer metrics.

    python3 bench/run.py --workload fine_reference --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``fine_reference`` (step-bound),
``sweep`` (set-up- and memory-bound) and ``verify`` (quadrature-bound).

Both modes start with one discarded set-up. ``--trace 0`` measures for
``--seconds``: it alternates a set-up and a run of the workload, each in
a fresh process, until the time is used, with at least ``MIN_RUNS`` runs
and ``SETUP_REPEATS`` set-ups. It reports medians of ``wall_s`` (the
workload call), ``setup_s`` (``import fgle`` plus one assembly and one
factorization at the workload's largest grid) and ``peak_rss_mb``.

``--trace 1`` makes one untraced run, one traced run and one traced run
with BLAS on one thread, and reports the per-layer metrics of the traced
run, the tracing overhead, and a one-thread baseline (``blas1.*``).

Every run's output passes through the workload's gate; a run that fails
it or raises is counted in ``failed`` and in ``error_rate``, and is left
out of the medians of ``wall_s`` and ``peak_rss_mb``. The last line
of standard output is the JSON result. The run's metadata, every run's
raw figures and the spans are written once, at the end, to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 5
MIN_RUNS = 2
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "wsgd.weights_s": "s",
    "wsgd.assemble_s": "s",
    "wsgd.assemble_calls": "count",
    "wsgd.operator_mb": "MiB",
    "wsgd.symbol_s": "s",
    "wsgd.symbol_calls": "count",
    "linalg.lu_factor_s": "s",
    "linalg.lu_factor_calls": "count",
    "linalg.factor_mb": "MiB",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_ms.mmax": "ms",
    "stepper.build_system_s": "s",
    "stepper.run_s": "s",
    "stepper.runs": "count",
    "stepper.step_s": "s",
    "stepper.steps": "count",
    "stepper.step_self_s": "s",
    "stepper.step_ms.mmax": "ms",
    "stepper.inner_iters": "count",
    "stepper.iters_per_step": "iter/step",
    "spectral.margins_s": "s",
    "spectral.margins_calls": "count",
    "spectral.quad_evals": "count",
    "experiments.reference_s": "s",
    "experiments.study_self_s": "s",
    "cli.verify_suite_s": "s",
    "cli.verify_self_s": "s",
    "cli.verify_checks": "count",
    "cli.verify_failed": "count",
    "trace.overhead_s": "s",
    "blas1.wall_s": "s",
    "blas1.linalg.solve_s": "s",
    "blas1.linalg.lu_factor_s": "s",
    "blas1.stepper.step_self_s": "s",
    "blas1.wsgd.assemble_s": "s",
}
# the metric each ratio, median or remainder is taken over
BASES = {
    "linalg.solve_ms.mmax": "median over the solves at the largest M",
    "stepper.step_ms.mmax": "median over the steps at the largest M",
    "stepper.iters_per_step": "stepper.steps",
    "stepper.step_self_s": "stepper.step_s minus its child solves",
    "experiments.study_self_s": "study time minus its child spans",
    "cli.verify_self_s": "cli.verify_suite_s minus its child spans",
    "trace.overhead_s": "traced wall_s minus untraced wall_s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    # a packed ref has no file of its own; it is a "<sha> <ref>" line of packed-refs
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in packed:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def call_worker(mode: str, workload, seed: int, threads: int, run_id: str = "") -> dict:
    """Run one request in a fresh worker process; a crash becomes a failure."""
    spec = {"name": workload.name, "fields": asdict(workload)}
    request = {"mode": mode, "workload": spec, "seed": seed, "run_id": run_id}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            env=env,
            cwd=ROOT,
            check=False,
        )
    except subprocess.TimeoutExpired:
        reply = {"failures": [f"{mode} worker timed out after {WORKER_TIMEOUT_S} s"]}
    else:
        lines = proc.stdout.splitlines()
        if proc.returncode == 0 and lines:
            reply = json.loads(lines[-1])
        else:
            tail = proc.stderr.strip()[-600:]
            reply = {"failures": [f"{mode} worker exited with {proc.returncode}: {tail}"]}
    reply["process_s"] = time.perf_counter() - t0
    reply["threads"] = threads
    return reply


def _timed(runs: list) -> list:
    """The runs behind the medians of ``wall_s`` and ``peak_rss_mb``.

    A run that failed may have stopped early, so only passing runs count; if
    none passed, the result is failed anyway and the finished runs stand in.
    """
    finished = [r for r in runs if "wall_s" in r]
    return [r for r in finished if not r["failures"]] or finished


def _untraced(workload, seed: int, seconds: float, threads: int) -> tuple[dict, list, list]:
    def set_up():
        reply = call_worker("setup", workload, seed, threads)
        if reply["failures"]:
            raise RuntimeError(f"set-up failed: {reply['failures'][0]}")
        return reply

    # set-ups alternate with runs, so both sample the same stretch of time
    start = time.perf_counter()
    setups, runs = [], []
    while True:
        setups.append(set_up())
        runs.append(call_worker("run", workload, seed, threads))
        pair_s = setups[-1]["process_s"] + runs[-1]["process_s"]
        if len(runs) >= MIN_RUNS and time.perf_counter() - start + pair_s > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up())
    timed = _timed(runs)
    if not timed:
        raise RuntimeError(f"no run finished: {runs[-1]['failures'][0]}")
    metrics = {
        "wall_s": median(r["wall_s"] for r in timed),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
    }
    return metrics, runs, setups


def _traced(workload, seed: int, threads: int) -> tuple[dict, list, list]:
    run_id = f"{workload.name}-seed{seed}"
    plain = call_worker("run", workload, seed, threads)
    traced = call_worker("trace", workload, seed, threads, f"{run_id}-blas{threads}")
    single = call_worker("trace", workload, seed, 1, f"{run_id}-blas1")
    for r in (plain, traced, single):
        if "wall_s" not in r:
            raise RuntimeError(f"run did not finish: {r['failures'][0]}")
    for r in (traced, single):
        if r["wiring"]:
            raise RuntimeError("tracer wiring check failed: " + "; ".join(r["wiring"]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["blas1.wall_s"] = single["wall_s"]
    for name in PER_LAYER:
        if name.startswith("blas1.") and name != "blas1.wall_s":
            metrics[name] = single["layers"][name[len("blas1."):]]
    return metrics, [plain, traced, single], []


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result and everything behind it."""
    threads = nproc()
    # the first worker of a run starts cold; a discarded set-up keeps that out of every figure
    call_worker("setup", workload, seed, threads)
    if trace:
        metrics, runs, setups = _traced(workload, seed, threads)
    else:
        metrics, runs, setups = _untraced(workload, seed, seconds, threads)
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for r in runs if r["failures"])
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
        },
        "runs": runs,
        "setups": setups,
    }


def metadata(workload: str, seed: int, seconds: float, trace: bool, runs: list) -> dict:
    libraries = next((r["libraries"] for r in runs if "libraries" in r), {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "blas_threads": sorted({r["threads"] for r in runs}),
        "python": platform.python_version(),
        "numpy": libraries.get("numpy", {}),
        "scipy": libraries.get("scipy", {}),
        "commit": git_commit(),
    }


def report(measured: dict, meta: dict) -> None:
    result = measured["result"]
    runs = measured["runs"]
    print("meta " + json.dumps(meta))
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED run: {failure}")
    for name, m in result["metrics"].items():
        base = BASES.get(name, "")
        if name == "setup_s":
            base = f"median of {len(measured['setups'])} set-ups"
        elif name in END_TO_END:
            timed = _timed(runs)
            which = "failed" if timed[0]["failures"] else "passing"
            base = f"median of {len(timed)} {which} runs"
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  ({base})" if base else ""))
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate:.6g}  ({result['failed']} of {result['attempted']} runs failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fgle" / "__init__.py").is_file():
        print(f"error: no fgle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    trace = args.trace == 1
    measured = measure(WORKLOADS[args.workload](), args.seed, args.seconds, trace)
    meta = metadata(args.workload, args.seed, args.seconds, trace, measured["runs"])
    report(measured, meta)
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({"meta": meta, **measured}))
    print(json.dumps(measured["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
