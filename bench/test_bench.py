"""The benchmark's own tests, on small instances of each workload.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import FineReference, InviscidSweep, VerifySuite

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "fine_reference": FineReference(
        t_final=0.04, base_tau=0.02, base_h=1.0, h_ref=0.25, tau_ref=0.005
    ),
    "sweep": InviscidSweep(m=128),
    "verify": VerifySuite(alphas=(1.5, 2.0), grid_points=32, vectors=4),
}


def _printed(capsys, measured, trace):
    meta = run.metadata("tiny", 1, 0.0, trace, measured["runs"])
    run.report(measured, meta)
    return capsys.readouterr().out


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_printed_with_units(name, capsys):
    measured = run.measure(TINY[name], seed=3, seconds=0.0, trace=False)
    result = measured["result"]
    assert result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == set(run.END_TO_END)
    out = _printed(capsys, measured, False)
    for metric, unit in run.END_TO_END.items():
        assert re.search(rf"^{re.escape(metric)} = [0-9.e+-]+ {unit}\b", out, re.M), metric
        assert result["metrics"][metric]["value"] > 0
    assert re.search(r"^error_rate = ", out, re.M)
    if name != "fine_reference":  # published errors hold only at full size
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_passes_wiring(name, capsys):
    workload = TINY[name]
    measured = run.measure(workload, seed=3, seconds=0.0, trace=True)
    metrics = {k: v["value"] for k, v in measured["result"]["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    expected = workload.expected_counts()
    assert metrics["stepper.runs"] == expected["stepper.run"]
    assert metrics["linalg.lu_factor_calls"] == expected["linalg.lu_factor"]
    assert metrics["linalg.solve_calls"] == metrics["stepper.inner_iters"] > 0
    if name == "verify":
        assert metrics["cli.verify_checks"] == workload.checks()
        assert metrics["spectral.quad_evals"] > 0
    else:
        assert metrics["stepper.steps"] == expected["stepper.step"]
    out = _printed(capsys, measured, True)
    for metric, unit in run.PER_LAYER.items():
        assert re.search(rf"^{re.escape(metric)} = \S+ {re.escape(unit)}\b", out, re.M), metric


def test_full_size_wiring_counts():
    assert FineReference().expected_counts()["stepper.step"] == 2150
    assert FineReference().expected_counts()["stepper.run"] == 3
    sweep = InviscidSweep().expected_counts()
    assert (sweep["stepper.step"], sweep["stepper.run"], sweep["linalg.lu_factor"]) == (20, 4, 4)
    assert VerifySuite().checks() == 43


def test_wrong_gate_input_counts_in_error_rate():
    # pairs in increasing order: the deviations grow, which the gate rejects
    wrong = InviscidSweep(m=128, pairs=((0.001, 0.001), (0.01, 0.01), (0.1, 0.1)))
    result = run.measure(wrong, seed=3, seconds=0.0, trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS


def test_raising_run_counts_as_failed():
    # a negative upsilon makes ModelParams raise inside the study
    raising = InviscidSweep(m=128, pairs=((0.1, 0.1), (-0.1, 0.1)))
    measured = run.measure(raising, seed=3, seconds=0.0, trace=False)
    assert measured["result"]["failed"] == measured["result"]["attempted"]
    assert all("ValueError" in r["failures"][0] for r in measured["runs"])


def test_failed_runs_stay_out_of_the_medians():
    passing = {"wall_s": 20.0, "peak_rss_mb": 150.0, "failures": []}
    early = {"wall_s": 0.1, "peak_rss_mb": 90.0, "failures": ["NonConvergence: step 3"]}
    timed_out = {"failures": ["run worker timed out after 170 s"]}
    assert run._timed([early, passing, timed_out]) == [passing]
    assert run._timed([early, timed_out]) == [early]
    assert run._timed([timed_out]) == []


def test_git_commit_reads_loose_and_packed_refs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    git = tmp_path / ".git"
    assert run.git_commit() == "unknown"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        "1111111111111111111111111111111111111111 refs/heads/other\n"
        "2222222222222222222222222222222222222222 refs/heads/main\n"
    )
    assert run.git_commit() == "2" * 40
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert run.git_commit() == "3" * 40
    (git / "HEAD").write_text("4" * 40 + "\n")
    assert run.git_commit() == "4" * 40


def test_wiring_check_catches_a_missed_binding(monkeypatch):
    workload = TINY["sweep"]
    monkeypatch.setattr(
        tracer, "TARGETS", tuple(t for t in tracer.TARGETS if t[0] != "linalg.solve")
    )
    recorder = tracer.Tracer("missed")
    with tracer.installed(recorder):
        workload.run(3)
    problems = tracer.check_wiring(recorder.spans, workload.expected_counts())
    assert any(p.startswith("linalg.solve") for p in problems)


def test_tracer_restores_bindings():
    import fgle.experiments
    import fgle.linalg
    import fgle.stepper

    def bindings():
        return (
            fgle.stepper.lu_factor,
            fgle.experiments.run_simulation,
            fgle.linalg.FactorizedSystem.solve,
        )

    before = bindings()
    with tracer.installed(tracer.Tracer("restore")):
        assert all(now is not then for now, then in zip(bindings(), before))
    assert bindings() == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    args = ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
