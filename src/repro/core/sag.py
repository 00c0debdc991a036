"""Spar-All-Gather (SAG): inter-team synchronisation (Section III-D).

After Spar-Reduce-Scatter has run inside every team, the worker at position
``j`` of team ``t`` holds the team-reduced sparse block ``j``.  SAG makes the
workers at the same position of *all* teams hold the same ``L = d*k/P``
sparse gradients, so that the final intra-team All-Gather produces identical
global gradients on every worker.

Two variants are provided, exactly as in the paper:

* :func:`r_sag` — recursive-doubling exchange between teams, usable when the
  number of teams ``d`` is a power of two.  Both sides of an exchange hold
  the same data after summation and drop the same values after the top-L
  selection, so each side collects *half* of the discarded mass as residual.
* :func:`b_sag` — Bruck All-Gather between teams.  Re-sparsifying during a
  Bruck exchange would give different workers different compression orders
  (and therefore different final gradients), so B-SAG instead applies a
  single top-``h`` selection *before* the exchange and a top-``L`` selection
  after it.  ``h`` is adapted across iterations by
  :class:`CompressionRatioController` (Algorithm 2), which drives the
  post-exchange non-zero count towards ``L``.

Both variants ship sparse payloads in the batched
:class:`~repro.comm.packed.PackedBags` wire format: R-SAG packs the
exchanged block into a single-bag buffer pair (``comm_size`` derived from
the packed arrays), and B-SAG's Bruck exchange packs each forwarded item
list inside :func:`~repro.comm.collectives.allgather_bruck_grouped`.
Receivers decode zero-copy views and merge them with the compiled kernels.
Every discard goes to the discarding worker's store through the
:class:`~repro.core.residuals.ResidualManager` collection hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..comm.transport import Message, Transport
from ..comm.collectives import allgather_bruck_grouped
from ..comm.packed import PackedBags
from ..sparse.vector import SparseGradient
from .residuals import ResidualManager

__all__ = [
    "CompressionRatioController",
    "SAGOutput",
    "cross_team_groups",
    "r_sag",
    "b_sag",
]


def cross_team_groups(teams: Sequence[Sequence[int]]) -> List[List[int]]:
    """Groups of workers that occupy the same position in every team.

    ``teams`` is a list of ``d`` teams of equal size ``m``; the result is a
    list of ``m`` groups of size ``d``: group ``j`` holds the ``j``-th worker
    of every team.  These are the workers that exchange data during SAG.
    """
    if not teams:
        raise ValueError("at least one team is required")
    sizes = {len(team) for team in teams}
    if len(sizes) != 1:
        raise ValueError("all teams must have the same size")
    team_size = sizes.pop()
    return [[team[pos] for team in teams] for pos in range(team_size)]


@dataclass
class SAGOutput:
    """Result of a Spar-All-Gather step."""

    #: Global worker rank -> synchronised sparse block (identical across the
    #: workers of one cross-team group).
    blocks: Dict[int, SparseGradient]
    #: Number of communication steps used by the SAG exchange.
    num_steps: int
    #: Number of non-zeros held by the busiest worker after merging but
    #: before the final top-L selection (the quantity plotted in Fig. 7).
    merged_nnz_max: int = 0
    #: Mean of the same quantity over workers.
    merged_nnz_mean: float = 0.0
    #: The ``h`` used by B-SAG for this iteration (``None`` for R-SAG).
    h_used: Optional[int] = None


# ---------------------------------------------------------------------------
# Algorithm 2: compression ratio adjustment for B-SAG
# ---------------------------------------------------------------------------
class CompressionRatioController:
    """Adaptive choice of the pre-exchange top-``h`` count of B-SAG.

    Implements Algorithm 2 of the paper, which is modelled on TCP congestion
    window adjustment: the step size keeps its sign while the observed
    non-zero count stays on the same side of the target ``L``, doubling after
    two consecutive moves in the same direction, and is halved and reversed
    when the count crosses the target.

    Parameters
    ----------
    k:
        Total number of selected gradients per worker (the paper's ``k``).
    num_workers:
        Cluster size ``P``.
    num_teams:
        Team count ``d``.
    """

    def __init__(self, k: int, num_workers: int, num_teams: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if num_workers <= 0 or num_teams <= 0:
            raise ValueError("num_workers and num_teams must be positive")
        if num_teams > num_workers:
            raise ValueError("cannot have more teams than workers")
        self.k = int(k)
        self.num_workers = int(num_workers)
        self.num_teams = int(num_teams)
        #: Target non-zero count after the exchange: ``L(k, d, P) = d*k/P``.
        self.target = max(1.0, self.num_teams * self.k / self.num_workers)
        #: Lower / upper bounds for ``h``: entirely non-overlapping vs
        #: entirely overlapping index sets between teams.
        self.h_min = max(1.0, self.k / self.num_workers)
        self.h_max = max(self.h_min, self.num_teams * self.k / self.num_workers)
        self._h = self.h_min
        initial = 0.01 * self.k * max(self.num_teams - 1, 1) / self.num_workers
        self._step = max(initial, 1e-9)
        self._flag = False
        self.history: List[float] = []

    @property
    def h(self) -> int:
        """Current top-``h`` count (integer, clamped to ``[h_min, h_max]``)."""
        return int(max(1, round(min(max(self._h, self.h_min), self.h_max))))

    @property
    def step(self) -> float:
        return self._step

    def update(self, observed_nnz: float) -> int:
        """Adjust ``h`` given the non-zero count observed after the exchange.

        Returns the new integer ``h`` to use at the next iteration.
        """
        same_direction = (observed_nnz > self.target) ^ (self._step > 0)
        if same_direction:
            if self._flag:
                self._step *= 2.0
                self._flag = False
            else:
                self._flag = True
        else:
            self._step = -self._step * 0.5
            self._flag = False
        self._h += self._step
        self._h = min(max(self._h, self.h_min), self.h_max)
        self.history.append(self._h)
        return self.h


# ---------------------------------------------------------------------------
# R-SAG: recursive doubling between teams (d a power of two)
# ---------------------------------------------------------------------------
def r_sag(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    blocks: Dict[int, SparseGradient],
    keep: int,
    residuals: ResidualManager,
) -> SAGOutput:
    """Recursive-doubling Spar-All-Gather.

    Parameters
    ----------
    teams:
        The ``d`` teams used by SRS; ``d`` must be a power of two.
    blocks:
        Per-worker reduced sparse block from SRS.
    keep:
        Non-zeros to keep after each exchange (the paper's ``L = d*k/P``).
    residuals:
        Receives half of every discarded value (both exchange partners drop
        the same values, so each keeps a half share).
    """
    num_teams = len(teams)
    if num_teams < 1:
        raise ValueError("at least one team is required")
    if num_teams & (num_teams - 1):
        raise ValueError("R-SAG requires a power-of-two number of teams")
    if keep <= 0:
        raise ValueError("keep must be positive")

    current = {rank: blocks[rank] for team in teams for rank in team}
    if num_teams == 1:
        return SAGOutput(blocks=current, num_steps=0,
                         merged_nnz_max=max((b.nnz for b in current.values()), default=0),
                         merged_nnz_mean=_mean_nnz(current))

    groups = cross_team_groups(teams)
    num_steps = int(math.log2(num_teams))
    merged_max = 0
    merged_sum = 0.0
    merged_count = 0

    for step in range(num_steps):
        distance = 1 << step
        messages: List[Message] = []
        for group in groups:
            for team_index, rank in enumerate(group):
                partner = group[team_index ^ distance]
                messages.append(Message(src=rank, dst=partner,
                                        payload=PackedBags.pack([current[rank]]),
                                        tag=f"rsag-{step}"))
        inboxes = cluster.exchange(messages)
        # After step ``t`` the 2^(t+1) teams of a recursive-doubling cohort all
        # hold identical merged data and drop identical values, so each worker
        # keeps a 1/2^(t+1) share of the discard (the paper states "half" for
        # its d=2 setting; the general share keeps the conservation invariant
        # for larger d).
        share = 1.0 / float(2 << step)
        for group in groups:
            for rank in group:
                for message in inboxes.get(rank, []):
                    current[rank] = current[rank].add(message.payload.bag(0))
                merged_max = max(merged_max, current[rank].nnz)
                merged_sum += current[rank].nnz
                merged_count += 1
                kept, dropped = current[rank].top_k(keep)
                current[rank] = kept
                residuals.collect_procedure(rank, dropped, share=share)

    return SAGOutput(
        blocks=current,
        num_steps=num_steps,
        merged_nnz_max=merged_max,
        merged_nnz_mean=merged_sum / merged_count if merged_count else 0.0,
    )


# ---------------------------------------------------------------------------
# B-SAG: Bruck All-Gather between teams with adaptive top-h (any d)
# ---------------------------------------------------------------------------
def b_sag(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    blocks: Dict[int, SparseGradient],
    keep: int,
    h: int,
    residuals: ResidualManager,
) -> SAGOutput:
    """Bruck-based Spar-All-Gather.

    Each worker first applies a top-``h`` selection to its block, the
    cross-team groups then run a Bruck All-Gather (no sparsification during
    the exchange, which keeps every group member's result identical), the
    gathered blocks are merge-summed and finally re-sparsified to ``keep``
    non-zeros.  The discarded values of the final selection are identical on
    every member of a group, so each collects a ``1/d`` share.
    """
    num_teams = len(teams)
    if num_teams < 1:
        raise ValueError("at least one team is required")
    if keep <= 0:
        raise ValueError("keep must be positive")
    if h <= 0:
        raise ValueError("h must be positive")

    current = {rank: blocks[rank] for team in teams for rank in team}
    if num_teams == 1:
        return SAGOutput(blocks=current, num_steps=0,
                         merged_nnz_max=max((b.nnz for b in current.values()), default=0),
                         merged_nnz_mean=_mean_nnz(current), h_used=h)

    # Pre-exchange top-h selection.  The dropped values are unique to this
    # worker (different teams hold different team-reduced data), so the full
    # share is collected.
    selected: Dict[int, SparseGradient] = {}
    for rank, block in current.items():
        kept, dropped = block.top_k(h)
        selected[rank] = kept
        residuals.collect_procedure(rank, dropped, share=1.0)

    groups = cross_team_groups(teams)
    gathered = allgather_bruck_grouped(cluster, groups, selected)

    merged_max = 0
    merged_sum = 0.0
    merged_count = 0
    result: Dict[int, SparseGradient] = {}
    for group in groups:
        for rank in group:
            merged = SparseGradient.merge_many(gathered[rank])
            merged_max = max(merged_max, merged.nnz)
            merged_sum += merged.nnz
            merged_count += 1
            kept, dropped = merged.top_k(keep)
            result[rank] = kept
            # Every member of the group discards the same values.
            residuals.collect_procedure(rank, dropped, share=1.0 / num_teams)

    num_steps = max(1, math.ceil(math.log2(num_teams)))
    return SAGOutput(
        blocks=result,
        num_steps=num_steps,
        merged_nnz_max=merged_max,
        merged_nnz_mean=merged_sum / merged_count if merged_count else 0.0,
        h_used=h,
    )


def _mean_nnz(blocks: Dict[int, SparseGradient]) -> float:
    if not blocks:
        return 0.0
    return sum(b.nnz for b in blocks.values()) / len(blocks)
