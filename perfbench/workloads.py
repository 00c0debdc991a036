"""The benchmark's workloads: generated inputs, set-up, timed steps, checks.

A run repeats *episodes*.  An episode builds the system from scratch (the
timed set-up, which ends with :data:`WARMUP_STEPS` warm-up steps), runs a
fixed number of timed steps on the generated inputs, checks every step's
output outside the timed region, and fingerprints the final state.  Every
episode of a run sees the same inputs, so its digest and its simulated
metrics must repeat exactly; a run repeats episodes until its time is used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import api
from repro.comm import ETHERNET, make_transport
from repro.core.pipeline import SyncSession
from repro.nn.parameter import flatten_values
from repro.training.cases import get_case
from repro.training.timing import communication_time
from repro.training.trainer import DistributedTrainer, TrainerConfig

import checks
import gradients

#: Steps (or training iterations) run inside the timed set-up.
WARMUP_STEPS = 2
#: Distinct gradient sets a sync episode cycles through.
POOL_SIZE = 2
#: Batch size per worker of the training workload.
BATCH_PER_WORKER = 32
#: Training iterations whose mean loss is reported as the final loss.
FINAL_LOSS_STRETCH = 10


@dataclass
class Episode:
    """What one episode measured, checked and computed."""

    setup_s: float
    step_s: List[float]
    step_ok: List[bool]
    problems: List[str]
    digest: str
    #: Simulated ETHERNET milliseconds per step (deterministic).
    sim_step_ms: float
    #: Per timed step: ``rounds``, ``messages``, ``wire_elems`` (deterministic).
    comm: Dict[str, float]
    #: Workload-specific deterministic values (training only).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Probe seconds and calls over the timed steps (traced pass only).
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    #: Probe seconds over the set-up (traced pass only).
    setup_layer_seconds: Dict[str, float] = field(default_factory=dict)
    #: ``(method, SyncResult.info)`` of the session steps inside the timed
    #: steps (traced pass only).
    step_infos: List[Any] = field(default_factory=list)


def _diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _comm_counts(stats) -> Dict[str, float]:
    return {"rounds": stats.rounds, "messages": stats.total_messages,
            "wire_elems": stats.total_volume}


def _per_step(after: Dict[str, float], before: Dict[str, float],
              steps: int) -> Dict[str, float]:
    return {key: (after[key] - before[key]) / steps for key in after}


def _stamp_iterations(trainer: DistributedTrainer,
                      warmed_up: Optional[Callable[[], None]] = None) -> List[float]:
    """Wall-clock stamps taken as each training iteration is recorded
    (``history.add_iteration`` ends an iteration); ``warmed_up()`` runs
    once the warm-up iterations are recorded."""
    stamps: List[float] = []
    record = trainer.history.add_iteration

    def add_iteration(iteration_record) -> None:
        record(iteration_record)
        stamps.append(time.perf_counter())
        if len(stamps) == WARMUP_STEPS and warmed_up is not None:
            warmed_up()

    trainer.history.add_iteration = add_iteration
    return stamps


class _ProbeWindow:
    """Snapshots of a probe taken at the start and end of a region."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.start = probe.snapshot() if probe is not None else None
        self.results_start = len(probe.step_infos) if probe is not None else 0

    def close(self, episode: Episode, setup: "_ProbeWindow") -> None:
        if self.probe is None:
            return
        seconds, calls = self.probe.snapshot()
        episode.layer_seconds = _diff(seconds, self.start[0])
        episode.layer_calls = _diff(calls, self.start[1])
        episode.setup_layer_seconds = _diff(self.start[0], setup.start[0])
        episode.step_infos = self.probe.step_infos[self.results_start:]


class SyncWorkload:
    """One synchroniser on the simulated backend, stepped on generated
    gradients through a :class:`~repro.core.pipeline.SyncSession`."""

    def __init__(self, name: str, spec: str, num_workers: int,
                 num_elements: int, episode_steps: int) -> None:
        self.name = name
        self.spec = spec
        self.num_workers = num_workers
        self.num_elements = num_elements
        self.episode_steps = episode_steps

    def prepare(self, seed: int) -> Dict[str, Any]:
        """:data:`POOL_SIZE` steps of gradients from ``seed``, generated by
        :mod:`gradients` (calibrated on measured gradients)."""
        rng = np.random.default_rng(seed)
        scale = gradients.shared_scale(rng, self.num_elements)
        pool = [gradients.synthetic_gradients(rng, self.num_workers, scale)
                for _ in range(POOL_SIZE)]
        sums = [np.sum(list(step.values()), axis=0) for step in pool]
        return {"pool": pool, "sums": sums}

    def episode(self, inputs: Dict[str, Any], probe=None,
                trace_level: Optional[str] = None) -> Episode:
        pool, sums = inputs["pool"], inputs["sums"]
        spec = f"{self.spec}&backend=sim:{self.num_workers}"
        if trace_level is not None:
            spec += f"&trace={trace_level}"
        setup_window = _ProbeWindow(probe)
        start = time.perf_counter()
        sync = api.make(spec, num_elements=self.num_elements)
        session = SyncSession(sync)
        for step in range(WARMUP_STEPS):
            session.step(pool[step % POOL_SIZE])
        setup_s = time.perf_counter() - start

        if probe is not None:
            probe.watch_transport(sync.cluster)
            probe.watch_session(session)
        window = _ProbeWindow(probe)
        residuals = sync.residuals
        residual = residuals.total_residual()
        velocity = residuals.total_velocity() if residuals.momentum else None
        stats_before = _comm_counts(session.cumulative_stats)
        step_s, step_ok, problems = [], [], []
        sim_seconds = 0.0
        for step in range(WARMUP_STEPS, WARMUP_STEPS + self.episode_steps):
            index = step % POOL_SIZE
            begin = time.perf_counter()
            result = session.step(pool[index])
            step_s.append(time.perf_counter() - begin)

            after = residuals.total_residual()
            momentum_term = (residuals.momentum * velocity
                             if velocity is not None else None)
            found = checks.sync_step_problems(result, residual, after,
                                              sums[index], momentum_term)
            step_ok.append(not found)
            problems.extend(f"step {step}: {problem}" for problem in found)
            residual = after
            if velocity is not None:
                velocity = residuals.total_velocity()
            sim_seconds += communication_time(result.stats, ETHERNET)

        fingerprint = [result.gradient(0)]
        for rank in range(self.num_workers):
            fingerprint.append(residuals.store(rank).peek())
            if velocity is not None:
                fingerprint.append(residuals.velocity(rank))
        episode = Episode(
            setup_s=setup_s, step_s=step_s, step_ok=step_ok, problems=problems,
            digest=checks.digest(fingerprint),
            sim_step_ms=1000.0 * sim_seconds / self.episode_steps,
            comm=_per_step(_comm_counts(session.cumulative_stats), stats_before,
                           self.episode_steps),
        )
        window.close(episode, setup_window)
        return episode


class TrainWorkload:
    """Data-parallel training of an evaluation case through
    :class:`~repro.training.trainer.DistributedTrainer`: one pass over
    fresh samples, so no sample is seen twice."""

    def __init__(self, name: str, spec: str, case_id: int,
                 num_workers: int, iterations: int) -> None:
        self.name = name
        self.spec = spec
        self.case_id = case_id
        self.num_workers = num_workers
        self.iterations = iterations
        self.episode_steps = iterations - WARMUP_STEPS

    def prepare(self, seed: int) -> Dict[str, Any]:
        case = get_case(self.case_id)
        samples = self.iterations * self.num_workers * BATCH_PER_WORKER
        return {
            "case": case,
            "seed": seed,
            "train": case.dataset_factory(samples, seed),
            # The trainer requires an evaluation set; the benchmark never
            # evaluates, so a single batch suffices.
            "eval": case.dataset_factory(BATCH_PER_WORKER, seed + 1),
        }

    def build(self, inputs: Dict[str, Any], spec: str, num_workers: int,
              train=None) -> DistributedTrainer:
        case = inputs["case"]
        return DistributedTrainer(
            make_transport(f"sim:{num_workers}"), api.make_factory(spec),
            case.build_model, train if train is not None else inputs["train"],
            inputs["eval"],
            config=TrainerConfig(batch_size=BATCH_PER_WORKER,
                                 learning_rate=case.learning_rate,
                                 momentum=case.momentum, seed=inputs["seed"]),
            network=ETHERNET, compute_profile=case.compute_profile,
            case_name=case.name)

    def episode(self, inputs: Dict[str, Any], probe=None,
                trace_level: Optional[str] = None) -> Episode:
        spec = self.spec if trace_level is None else f"{self.spec}&trace={trace_level}"
        setup_window = _ProbeWindow(probe)
        start = time.perf_counter()
        trainer = self.build(inputs, spec, self.num_workers)
        if probe is not None:
            probe.watch_trainer(trainer)
        marks: Dict[str, Any] = {}

        def warmed_up() -> None:
            marks["window"] = _ProbeWindow(probe)
            marks["stats"] = _comm_counts(trainer.session.cumulative_stats)

        stamps = _stamp_iterations(trainer, warmed_up)
        trainer.train_epoch(0, evaluate=False)
        setup_s = stamps[WARMUP_STEPS - 1] - start
        step_s = list(np.diff(stamps[WARMUP_STEPS - 1:]))

        iterations = trainer.history.iterations
        losses = [item.loss for item in iterations]
        parameters = [flatten_values(replica.parameters())
                      for replica in trainer.replicas]
        problems = checks.training_problems(losses, parameters)
        finite = np.isfinite(losses[WARMUP_STEPS:])
        step_ok = [bool(ok) and not problems for ok in finite]
        communication = sum(item.communication_time for item in iterations)
        episode = Episode(
            setup_s=setup_s, step_s=step_s, step_ok=step_ok, problems=problems,
            digest=checks.digest(parameters[:1]),
            sim_step_ms=1000.0 * trainer.total_time / len(iterations),
            comm=_per_step(_comm_counts(trainer.session.cumulative_stats),
                           marks["stats"], len(step_s)),
            extras={
                "hidden_comm_frac": (sum(item.hidden_comm_time for item in iterations)
                                     / communication),
                "final_loss": float(np.mean(losses[-FINAL_LOSS_STRETCH:])),
                "buckets": getattr(trainer.synchronizer, "num_buckets", 1),
            },
        )
        marks["window"].close(episode, setup_window)
        return episode

    def single_worker_step_s(self, inputs: Dict[str, Any]) -> List[float]:
        """Step times of the same case on one worker with dense
        synchronisation: the plain single-worker reference."""
        samples = self.iterations * BATCH_PER_WORKER
        train = inputs["train"].subset(np.arange(samples))
        trainer = self.build(inputs, "dense", 1, train=train)
        stamps = _stamp_iterations(trainer)
        trainer.train_epoch(0, evaluate=False)
        return list(np.diff(stamps[WARMUP_STEPS - 1:]))


#: Each workload loads a different layer; README.md records why each was
#: chosen and which metrics each should move.
WORKLOADS = {
    workload.name: workload for workload in (
        SyncWorkload("spardl-p32", "spardl?density=0.01", num_workers=32,
                     num_elements=131072, episode_steps=25),
        SyncWorkload("oktopk-q8", "ok-topk?density=0.01&bits=8&momentum=0.9",
                     num_workers=8, num_elements=1048576, episode_steps=25),
        TrainWorkload("lstm-train", "spardl?density=0.01&buckets=auto",
                      case_id=5, num_workers=8, iterations=40),
    )
}
