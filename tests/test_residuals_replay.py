"""Residual stores must hold exactly the discards the synchroniser made.

Every collection hook of a live :class:`SparDLSynchronizer`'s
:class:`ResidualManager` is recorded, and the recorded call stream is
replayed into an independent dense reference (plain ``np.add.at`` per
worker, the policy rules of Section III-C written out by hand).  The
manager's per-worker stores must equal the reference **bit for bit** after
every iteration, across the non-power-of-two team-size suite, every
residual policy and one or two teams — so each discard is scattered once,
into the worker that made it, with its share applied.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualManager, ResidualPolicy
from repro.core.spardl import SparDLSynchronizer
from repro.sparse.vector import SparseGradient

from tests.helpers import random_gradients

TEAM_SIZES = [3, 5, 6, 7]
POLICIES = ["global", "partial", "local"]


class _DenseReference:
    """Per-worker dense residuals driven by a recorded hook stream."""

    def __init__(self, num_workers, num_elements, policy):
        self.policy = ResidualPolicy.coerce(policy)
        self.data = {w: np.zeros(num_elements) for w in range(num_workers)}
        self.pending = []

    def _scatter(self, worker, sparse, share):
        np.add.at(self.data[worker], sparse.indices,
                  sparse.values * float(share))

    def apply(self, gradients):
        corrected = {}
        for worker, gradient in gradients.items():
            corrected[worker] = np.asarray(gradient, dtype=np.float64) + self.data[worker]
            self.data[worker] = np.zeros_like(self.data[worker])
        return corrected

    def collect_local(self, worker, block, offset=0):
        if self.policy is not ResidualPolicy.NONE:
            block = np.asarray(block, dtype=np.float64)
            self.data[worker][offset:offset + block.shape[0]] += block

    def collect_local_sparse(self, worker, dropped, share=1.0):
        if self.policy is not ResidualPolicy.NONE:
            self._scatter(worker, dropped, share)

    def collect_procedure(self, worker, dropped, share=1.0):
        if dropped.nnz == 0:
            return
        if self.policy is ResidualPolicy.GLOBAL:
            self._scatter(worker, dropped, share)
        elif self.policy is ResidualPolicy.PARTIAL:
            self.pending.append((worker, dropped, share))

    def finalize(self, final_indices):
        final = (np.empty(0, dtype=np.int64) if final_indices is None
                 else np.asarray(list(final_indices), dtype=np.int64))
        if self.policy is ResidualPolicy.PARTIAL:
            for worker, dropped, share in self.pending:
                keep = ~np.isin(dropped.indices, final)
                np.add.at(self.data[worker], dropped.indices[keep],
                          dropped.values[keep] * float(share))
        self.pending = []


_HOOKS = ("apply", "collect_local", "collect_local_sparse",
          "collect_procedure", "finalize")


def _record(manager):
    """Wrap ``manager``'s hooks so every call is appended to a log."""
    log = []
    for name in _HOOKS:
        original = getattr(manager, name)

        def hook(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            log.append((_name, args, kwargs, result))
            return result

        setattr(manager, name, hook)
    return log


def _replay(reference, log):
    """Feed the logged calls to ``reference``; each ``apply`` must hand back
    the same corrected gradients the manager did."""
    for name, args, kwargs, result in log:
        replayed = getattr(reference, name)(*args, **kwargs)
        if name == "apply":
            assert replayed.keys() == result.keys()
            for worker, corrected in result.items():
                np.testing.assert_array_equal(corrected, replayed[worker])


def _assert_stores_bitwise_equal(manager, reference):
    for worker, expected in reference.data.items():
        actual = manager.store(worker).peek()
        assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (
            f"worker {worker} residual diverged from the replayed discards")


def _run_and_replay(team_size, num_teams, policy, iterations=3):
    num_workers = team_size * num_teams
    num_elements = 60 * team_size
    sync = SparDLSynchronizer(SimulatedCluster(num_workers), num_elements,
                              SparDLConfig(density=0.05, num_teams=num_teams,
                                           residual_policy=policy))
    log = _record(sync.residuals)
    reference = _DenseReference(num_workers, num_elements, policy)
    procedure_calls = 0
    for iteration in range(iterations):
        gradients = random_gradients(num_workers, num_elements,
                                     seed=1000 * team_size + iteration)
        del log[:]
        result = sync.synchronize(gradients)
        assert result.is_consistent
        assert [name for name, *_ in log].count("apply") == 1
        procedure_calls += sum(1 for name, *_ in log
                               if name == "collect_procedure")
        _replay(reference, log)
        _assert_stores_bitwise_equal(sync.residuals, reference)
        assert sync.residuals.residual_norms() == {
            worker: float(np.linalg.norm(data))
            for worker, data in reference.data.items()}
    return procedure_calls


class TestStoresMatchReplayedDiscards:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_team(self, team_size, policy):
        assert _run_and_replay(team_size, 1, policy) > 0

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_two_teams(self, team_size):
        """d=2 adds the SAG collection hooks, with shares of 1/d."""
        assert _run_and_replay(team_size, 2, "global") > 0


class TestConservationAcrossIterations:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_two_teams_telescoped(self, team_size):
        """Everything fed in equals everything applied plus what the stores
        still hold, after every iteration."""
        num_workers, num_elements = 2 * team_size, 60 * team_size
        sync = SparDLSynchronizer(SimulatedCluster(num_workers), num_elements,
                                  SparDLConfig(density=0.05, num_teams=2))
        fed = np.zeros(num_elements)
        applied = np.zeros(num_elements)
        for iteration in range(3):
            gradients = random_gradients(num_workers, num_elements,
                                         seed=team_size + 17 * iteration)
            fed += sum(gradients.values())
            applied += sync.synchronize(gradients).gradient(0)
            np.testing.assert_allclose(
                applied + sync.residuals.total_residual(), fed, atol=1e-8)


class TestStoreScatter:
    def test_sequential_scatters_match_add_at_over_dense_base(self):
        """Shared discards scattered one by one onto a dense local residual
        give the same bits as ``np.add.at`` replaying the same chain."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=16)
        manager = ResidualManager(1, 16, ResidualPolicy.GLOBAL)
        manager.collect_local(0, base)
        expected = base.copy()
        for _ in range(6):
            m = int(rng.integers(1, 6))
            idx = np.sort(rng.choice(16, size=m, replace=False)).astype(np.int64)
            values = rng.normal(size=m)
            share = float(rng.choice([1.0, 0.5, 0.25]))
            manager.collect_procedure(0, SparseGradient(idx, values, 16), share)
            np.add.at(expected, idx, values * share)
        assert np.array_equal(manager.total_residual().view(np.int64),
                              expected.view(np.int64))
