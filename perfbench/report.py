"""Measure a workload's passes, derive its metrics and print the report."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import LayerProbe
from workloads import BATCH_PER_WORKER, TrainWorkload

#: Timed steps of the untraced pass: with at least 100 samples, p90 has ten
#: samples beyond it.
MIN_TIMED_STEPS = 100
#: Timed steps of each pass of a trace run.
TRACE_MIN_STEPS = 25

PIPELINE_STAGES = ("select", "compress", "exchange", "combine", "residual_update")

END_TO_END_UNITS = {
    "step_ms.p90": "ms",
    "steps_per_s": "1/s",
    "sim_step_ms": "ms_sim",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

#: Printed beside the end-to-end metrics but not reported as metrics: the
#: host alternates between two speed states, so a run's median step falls
#: in either mode (README.md, "Why not the median").
SHOWN_UNITS = {"step_ms.p50": "ms"}

PER_LAYER_UNITS = {
    **{f"core.pipeline.{stage}_ms": "ms" for stage in PIPELINE_STAGES},
    "core.pipeline.coverage_frac": "1",
    "sparse.top_k_ms": "ms",
    "sparse.top_k_calls": "count",
    "sparse.merge_ms": "ms",
    "sparse.merge_calls": "count",
    "sparse.to_dense_ms": "ms",
    "comm.exchange_ms": "ms",
    "comm.exchange_calls": "count",
    "comm.pack_ms": "ms",
    "comm.pack_calls": "count",
    "comm.messages_per_step": "count",
    "comm.wire_elems_per_step": "count",
    "comm.rounds_per_step": "count",
    "core.residuals.apply_ms": "ms",
    "core.residuals.collect_ms": "ms",
    "core.residuals.finalize_ms": "ms",
    "compression.quantize_ms": "ms",
    "compression.quantize_calls": "count",
    "core.srs.final_nnz_frac": "1",
    "baselines.ok_topk.selected_frac": "1",
    "core.fusion.plan_ms": "ms",
    "core.bucketed.buckets": "count",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim_ms": "ms",
    "training.sync_ms": "ms",
    "training.nn_share": "1",
    "training.hidden_comm_frac": "1",
    "training.p1_step_ms": "ms",
    "training.final_loss": "1",
    "obs.trace_comm_overhead_frac": "1",
    "trace.overhead_frac": "1",
}

#: Thread-count queries of the BLAS libraries numpy may be linked against.
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads")


def blas_threads() -> Optional[int]:
    """The thread count the BLAS library loaded into this process will use,
    asked of the library itself; ``None`` when no known BLAS is loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "blas" in line.lower() or "mkl" in line.lower()})
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for query in BLAS_THREAD_QUERIES:
            function = getattr(library, query, None)
            if function is not None:
                return int(function())
    return None


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


class PeakMemory:
    """Peak resident memory of this process above its resident set when the
    watch starts.  The kernel's high-water mark is reset to the current
    resident set (``5`` written to ``/proc/self/clear_refs``), so memory
    used before the watch, by input generation for instance, does not
    count.  Where the reset is refused the lifetime peak is used instead,
    and ``reset`` says so."""

    def __init__(self) -> None:
        gc.collect()
        try:
            with open("/proc/self/clear_refs", "w") as clear_refs:
                clear_refs.write("5")
            self.reset = True
        except OSError:
            self.reset = False
        self.baseline_mb = _status_mb("VmRSS")

    def peak_mb(self) -> float:
        if self.reset:
            return _status_mb("VmHWM") - self.baseline_mb
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - self.baseline_mb


def environment() -> Dict[str, object]:
    """The facts a result depends on besides the code.  Probing the kernels
    compiles them on first use, before anything is timed."""
    from repro.sparse import compiled_kernels_available
    return {
        "compiled_kernels": compiled_kernels_available(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def _episode(workload, inputs, **options):
    """One episode, after collecting the previous episode's garbage so the
    collector does not run inside this episode's timed steps."""
    gc.collect()
    return workload.episode(inputs, **options)


def _repeat(run_round: Callable[[], None], seconds: float,
            enough: Callable[[], bool]) -> None:
    """Call ``run_round`` until ``enough()`` holds and one more round, as
    long as the mean round so far, would end after ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        run_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if enough() and elapsed * (rounds + 1) / rounds > seconds:
            return


def measure(workload, inputs, seconds: float, min_steps: int) -> list:
    """Untraced episodes filling ``seconds``, at least ``min_steps`` steps."""
    episodes: list = []
    _repeat(lambda: episodes.append(_episode(workload, inputs)), seconds,
            lambda: len(step_times(episodes)) >= min_steps)
    return episodes


def step_times(episodes) -> np.ndarray:
    return np.concatenate([[]] + [episode.step_s for episode in episodes])


def mean_step_s(episodes) -> float:
    return float(np.mean(step_times(episodes)))


def _determinism_problems(episodes) -> List[Tuple[int, str]]:
    """``(episode index, problem)`` for every episode whose deterministic
    outputs differ from the first episode's: same inputs, same arithmetic."""
    first = episodes[0]
    found = []
    for index, episode in enumerate(episodes[1:], start=1):
        if episode.digest != first.digest:
            found.append((index, f"digest {episode.digest} != {first.digest}"))
        elif (episode.sim_step_ms != first.sim_step_ms
              or episode.comm != first.comm):
            found.append((index, "simulated time or comm counts differ"))
    return found


def end_to_end_metrics(episodes, peak_memory: PeakMemory) -> Dict[str, float]:
    times = step_times(episodes)
    steps_per_s = len(times) / float(times.sum())
    ok = sum(sum(episode.step_ok) for episode in episodes)
    return {
        "step_ms.p50": 1000.0 * float(np.percentile(times, 50)),
        "step_ms.p90": 1000.0 * float(np.percentile(times, 90)),
        "steps_per_s": steps_per_s,
        "sim_step_ms": episodes[0].sim_step_ms,
        "setup_s": statistics.median(episode.setup_s for episode in episodes),
        "peak_rss_mb": peak_memory.peak_mb(),
        "ok_frac": ok / len(times),
    }


def _useful_work(episodes, method: str, ratio) -> float:
    values = [ratio(info) for episode in episodes
              for name, info in episode.step_infos if name == method]
    return float(np.mean(values)) if values else 0.0


def per_layer_metrics(workload, inputs, plain, probed, comm_traced) -> Dict[str, float]:
    steps = sum(len(episode.step_s) for episode in probed)
    seconds: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    for episode in probed:
        for group, value in episode.layer_seconds.items():
            seconds[group] = seconds.get(group, 0.0) + value
        for group, value in episode.layer_calls.items():
            calls[group] = calls.get(group, 0) + value

    def ms(group: str) -> float:
        return 1000.0 * seconds.get(group, 0.0) / steps

    def per_step(group: str) -> float:
        return calls.get(group, 0) / steps

    step_seconds = float(step_times(probed).sum())
    stage_seconds = sum(seconds.get(f"core.pipeline.{stage}", 0.0)
                        for stage in PIPELINE_STAGES)
    sync_seconds = seconds.get("training.sync", step_seconds)
    nn_seconds = sum(seconds.get(group, 0.0)
                     for group in ("nn.forward", "nn.backward", "nn.optim"))
    first = probed[0]
    untraced = mean_step_s(plain)
    single_worker = getattr(workload, "single_worker_step_s", None)
    metrics = {f"core.pipeline.{stage}_ms": ms(f"core.pipeline.{stage}")
               for stage in PIPELINE_STAGES}
    metrics.update({
        "core.pipeline.coverage_frac": stage_seconds / sync_seconds,
        "sparse.top_k_ms": ms("sparse.top_k"),
        "sparse.top_k_calls": per_step("sparse.top_k"),
        "sparse.merge_ms": ms("sparse.merge"),
        "sparse.merge_calls": per_step("sparse.merge"),
        "sparse.to_dense_ms": ms("sparse.to_dense"),
        "comm.exchange_ms": ms("comm.exchange"),
        "comm.exchange_calls": per_step("comm.exchange"),
        "comm.pack_ms": ms("comm.pack"),
        "comm.pack_calls": per_step("comm.pack"),
        "comm.messages_per_step": first.comm["messages"],
        "comm.wire_elems_per_step": first.comm["wire_elems"],
        "comm.rounds_per_step": first.comm["rounds"],
        "core.residuals.apply_ms": ms("core.residuals.apply"),
        "core.residuals.collect_ms": ms("core.residuals.collect"),
        "core.residuals.finalize_ms": ms("core.residuals.finalize"),
        "compression.quantize_ms": ms("compression.quantize"),
        "compression.quantize_calls": per_step("compression.quantize"),
        "core.srs.final_nnz_frac": _useful_work(
            probed, "SparDLSynchronizer", lambda info: info["final_nnz"] / info["k"]),
        "baselines.ok_topk.selected_frac": _useful_work(
            probed, "OkTopkSynchronizer",
            lambda info: np.mean(list(info["selected_per_worker"].values())) / info["k"]),
        "core.fusion.plan_ms": 1000.0 * statistics.mean(
            episode.setup_layer_seconds.get("core.fusion.plan", 0.0)
            for episode in probed),
        "core.bucketed.buckets": first.extras.get("buckets", 1),
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.optim_ms": ms("nn.optim"),
        "training.sync_ms": ms("training.sync"),
        "training.nn_share": nn_seconds / step_seconds,
        "training.hidden_comm_frac": first.extras.get("hidden_comm_frac", 0.0),
        "training.p1_step_ms": (1000.0 * float(np.median(single_worker(inputs)))
                                if single_worker is not None else 0.0),
        "training.final_loss": first.extras.get("final_loss", 0.0),
        "obs.trace_comm_overhead_frac": mean_step_s(comm_traced) / untraced - 1.0,
        "trace.overhead_frac": mean_step_s(probed) / untraced - 1.0,
    })
    return metrics


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run ``workload``, print its report block, and return its result."""
    facts = environment()
    print(f"workload {workload.name} seed {seed} trace {int(traced)}", flush=True)
    inputs = workload.prepare(seed)
    peak_memory = PeakMemory()
    facts["peak_rss_reset"] = peak_memory.reset
    print("environment " + json.dumps(facts, sort_keys=True), flush=True)
    if traced:
        # The three passes take turns episode by episode, so drift of the
        # host over the run does not masquerade as tracing overhead.
        plain, probed, comm_traced = [], [], []
        probe = LayerProbe()

        def run_round() -> None:
            plain.append(_episode(workload, inputs))
            with probe:
                probed.append(_episode(workload, inputs, probe=probe))
            comm_traced.append(_episode(workload, inputs, trace_level="comm"))

        _repeat(run_round, seconds,
                lambda: len(step_times(plain)) >= TRACE_MIN_STEPS)
        episodes = plain + probed + comm_traced
        metrics = per_layer_metrics(workload, inputs, plain, probed, comm_traced)
        units = PER_LAYER_UNITS
    else:
        episodes = measure(workload, inputs, seconds, MIN_TIMED_STEPS)
        metrics = end_to_end_metrics(episodes, peak_memory)
        units = END_TO_END_UNITS

    failed_episodes = dict(_determinism_problems(episodes))
    attempted = failed = 0
    for index, episode in enumerate(episodes):
        attempted += len(episode.step_ok)
        if index in failed_episodes:
            failed += len(episode.step_ok)
        else:
            failed += episode.step_ok.count(False)
    problems = [problem for episode in episodes for problem in episode.problems]
    problems += [f"episode {index}: {problem}"
                 for index, problem in failed_episodes.items()]
    print(f"digest {workload.name} {episodes[0].digest}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6f} {unit}")
    if not traced:
        shown = {name: (metrics[name], unit) for name, unit in SHOWN_UNITS.items()}
        if isinstance(workload, TrainWorkload):
            # A fixed multiple of steps_per_s, so shown but not a metric.
            shown["samples_per_s"] = (metrics["steps_per_s"] * workload.num_workers
                                      * BATCH_PER_WORKER, "1/s")
        for name, (value, unit) in shown.items():
            print(f"  {'(' + name + ')':<34} {value:>16.6f} {unit}")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def combine(results: Dict[str, dict]) -> dict:
    """One result over several workloads; metric names gain the workload
    name as a prefix."""
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {f"{workload}.{name}": value
                    for workload, result in results.items()
                    for name, value in result["metrics"].items()},
    }
