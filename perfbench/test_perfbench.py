"""Tests of the benchmark's own machinery: each output check must reject a
deliberately corrupted result, the probe must leave the program as it found
it, and results from different environments must not be compared."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core.base import SyncResult
from repro.sparse import vector as sparse_vector
from repro.sparse.topk import top_k_indices
from repro.sparse.vector import SparseGradient

import checks
import compare
import gradients
import report
from layers import LayerProbe
from workloads import SyncWorkload, TrainWorkload

SYNC_SPECS = ["spardl?density=0.05&backend=sim:4",
              "ok-topk?density=0.05&bits=8&momentum=0.9&backend=sim:4"]


def _one_checked_step(spec):
    """Two steps of ``spec``; returns the second step's result and ledger
    inputs."""
    sync = api.make(spec, num_elements=400)
    rng = np.random.default_rng(3)
    residuals = sync.residuals
    for _ in range(2):
        gradients = {rank: rng.standard_normal(400) for rank in range(4)}
        before = residuals.total_residual()
        momentum_term = residuals.momentum * residuals.total_velocity()
        result = sync.synchronize(gradients)
    return (result, before, residuals.total_residual(),
            np.sum(list(gradients.values()), axis=0),
            momentum_term if residuals.momentum else None)


@pytest.mark.parametrize("spec", SYNC_SPECS)
def test_sync_checks_pass_on_a_real_step(spec):
    assert checks.sync_step_problems(*_one_checked_step(spec)) == []


@pytest.mark.parametrize("spec", SYNC_SPECS)
def test_sync_checks_reject_corrupted_results(spec):
    result, before, after, gradient_sum, momentum_term = _one_checked_step(spec)

    split = copy.deepcopy(result)
    split.global_gradients[1] = split.global_gradients[1] + 1e-3
    assert any("different" in problem for problem in checks.sync_step_problems(
        split, before, after, gradient_sum, momentum_term))

    poisoned = SyncResult({rank: np.full_like(grad, np.nan)
                           for rank, grad in result.global_gradients.items()},
                          result.stats)
    assert any("non-finite" in problem for problem in checks.sync_step_problems(
        poisoned, before, after, gradient_sum, momentum_term))

    leaked = after.copy()
    leaked[7] += 1e-6 * np.abs(gradient_sum).max()
    assert any("ledger" in problem for problem in checks.sync_step_problems(
        result, before, leaked, gradient_sum, momentum_term))

    if momentum_term is not None:
        assert any("ledger" in problem for problem in checks.sync_step_problems(
            result, before, after, gradient_sum, None))


def test_training_checks_reject_corrupted_runs():
    parameters = [np.arange(5.0), np.arange(5.0)]
    assert checks.training_problems([0.7, 0.6], parameters) == []
    assert checks.training_problems([0.7, np.nan], parameters)
    drifted = [parameters[0], parameters[1] + np.array([0, 0, 1e-12, 0, 0])]
    assert checks.training_problems([0.7, 0.6], drifted)


def test_digest_sees_one_ulp():
    values = np.linspace(0.0, 1.0, 9)
    nudged = values.copy()
    nudged[4] = np.nextafter(nudged[4], 2.0)
    assert checks.digest([values]) == checks.digest([values.copy()])
    assert checks.digest([values]) != checks.digest([nudged])


def test_probe_times_calls_and_restores_the_program():
    merge_many = SparseGradient.__dict__["merge_many"]
    with LayerProbe() as probe:
        assert sparse_vector.top_k_indices is not top_k_indices
        api.make("spardl?density=0.05&backend=sim:4", num_elements=400).synchronize(
            {rank: np.random.default_rng(rank).standard_normal(400)
             for rank in range(4)})
    assert probe.calls["sparse.top_k"] > 0
    assert probe.calls["sparse.merge"] > 0
    assert sparse_vector.top_k_indices is top_k_indices
    assert SparseGradient.__dict__["merge_many"] is merge_many


def _output(compiled_kernels: bool) -> str:
    facts = {"blas_threads": 1, "compiled_kernels": compiled_kernels,
             "nproc": 2, "numpy": "2.0", "peak_rss_reset": True, "python": "3.11"}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"step_ms.p50": {"value": 1.5, "unit": "ms"}}}
    return "\n".join(["workload tiny seed 1 trace 0",
                      "environment " + json.dumps(facts),
                      json.dumps(result)])


def test_compare_refuses_results_from_different_environments(capsys):
    assert compare.compare_outputs(_output(True), _output(True)) == 0
    assert compare.compare_outputs(_output(True), _output(False)) == 2
    assert "compiled_kernels differs" in capsys.readouterr().out


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_are_asked_of_the_library(threads):
    code = "import report; print(report.blas_threads())"
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(here.parent / "src"))
    answer = subprocess.run([sys.executable, "-c", code], cwd=here,
                            env=env, capture_output=True, text=True, check=True)
    if answer.stdout.strip() == "None":
        pytest.skip("numpy is linked against no known BLAS")
    assert int(answer.stdout) == threads


def test_peak_memory_counts_only_what_is_allocated_after_the_watch_starts():
    inputs = np.ones(64 * 2**20 // 8)
    memory = report.PeakMemory()
    work = np.ones(32 * 2**20 // 8)
    assert memory.reset
    assert 28 < memory.peak_mb() < 48
    del inputs, work


def test_synthetic_gradients_match_the_measured_statistics():
    rng = np.random.default_rng(1)
    step = gradients.synthetic_gradients(rng, 8, gradients.shared_scale(rng, 131072))
    found = gradients.gradient_statistics(list(step.values()))
    for name, measured in gradients.MEASURED.items():
        assert found[name] == pytest.approx(measured, abs=0.03), name


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(report, "MIN_TIMED_STEPS", 4)
    monkeypatch.setattr(report, "TRACE_MIN_STEPS", 4)


@pytest.mark.parametrize("traced", [False, True])
def test_sync_workload_reports_every_metric(short_runs, traced):
    workload = SyncWorkload("tiny-sync", "spardl?density=0.05",
                            num_workers=4, num_elements=2000, episode_steps=3)
    result = report.run_workload(workload, seed=1, seconds=0.01, traced=traced)
    units = report.PER_LAYER_UNITS if traced else report.END_TO_END_UNITS
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(units)
    if traced:
        assert result["metrics"]["core.pipeline.coverage_frac"]["value"] >= 0.95
        assert result["metrics"]["sparse.top_k_calls"]["value"] > 0


def test_train_workload_reports_every_layer(short_runs):
    workload = TrainWorkload("tiny-train", "spardl?density=0.05&buckets=auto",
                             case_id=5, num_workers=2, iterations=4)
    result = report.run_workload(workload, seed=1, seconds=0.01, traced=True)
    metrics = result["metrics"]
    assert result["correct"]
    assert metrics["nn.forward_ms"]["value"] > 0
    assert metrics["training.p1_step_ms"]["value"] > 0
    assert metrics["core.bucketed.buckets"]["value"] >= 1


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == report.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == report.PER_LAYER_UNITS
