"""Output checks and bit-identity digests for the benchmark workloads.

Every check returns a list of problems (empty when the output is correct),
so a failing step can say what went wrong.  The checks run outside the
timed region.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Relative tolerance of the conservation ledger.
LEDGER_RTOL = 1e-9


def sync_step_problems(result, residual_before: np.ndarray,
                       residual_after: np.ndarray, gradient_sum: np.ndarray,
                       momentum_term: Optional[np.ndarray] = None) -> List[str]:
    """Problems with one synchronisation step's output.

    ``result`` is the step's ``SyncResult``; the residual totals are the
    coordinate-wise sums of every worker's residual store before and after
    the step, ``gradient_sum`` the sum of the workers' input gradients and
    ``momentum_term`` (DGC momentum correction only) ``m * velocity_before``
    summed over workers.  Checks that every rank holds the same finite
    global gradient and that no gradient mass was created or lost:
    ``global + residual_after == residual_before [+ momentum_term] +
    gradient_sum`` to :data:`LEDGER_RTOL` of the largest right-hand value.
    """
    problems = []
    if not result.is_consistent:
        problems.append("ranks hold different global gradients")
    if not all(np.isfinite(grad).all() for grad in result.global_gradients.values()):
        problems.append("global gradient has non-finite values")
    expected = residual_before + gradient_sum
    if momentum_term is not None:
        expected = expected + momentum_term
    held = result.gradient(min(result.global_gradients)) + residual_after
    scale = float(np.abs(expected).max()) or 1.0
    error = float(np.abs(held - expected).max()) / scale
    if not error <= LEDGER_RTOL:
        problems.append(f"conservation ledger off by {error:.3g} (relative)")
    return problems


def training_problems(losses: Sequence[float],
                      replica_parameters: Sequence[np.ndarray]) -> List[str]:
    """Problems with a training run: non-finite losses, or replicas whose
    parameters are not identical at the end of the run."""
    problems = []
    if not np.isfinite(np.asarray(losses, dtype=np.float64)).all():
        problems.append("training loss has non-finite values")
    reference = replica_parameters[0]
    for rank, parameters in enumerate(replica_parameters[1:], start=1):
        if not np.array_equal(parameters, reference):
            problems.append(f"replica {rank} parameters differ from replica 0")
    return problems


def digest(arrays: Iterable[np.ndarray]) -> str:
    """Short BLAKE2b fingerprint of the exact bytes of ``arrays``.

    Two runs of the same seed and kernel leg print the same digest exactly
    when they computed bit-identical results.
    """
    hasher = hashlib.blake2b(digest_size=8)
    for array in arrays:
        hasher.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return hasher.hexdigest()
