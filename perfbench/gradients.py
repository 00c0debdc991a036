"""Synthetic per-worker gradients for the sync workloads, and the statistics
they are calibrated on.

Worker ``i``'s gradient is ``scale * lognormal_i * normal_i``: ``scale`` is
a per-coordinate log-normal magnitude shared by every worker and by every
step (some parameters get large gradients throughout), ``lognormal_i`` a
per-worker log-normal magnitude and ``normal_i`` a per-worker standard
normal.  The two widths are fitted so that the statistics which decide the
workloads' work -- how far the workers' top-k sets overlap, how much of a
gradient's mass its top 1 % holds, and how many of a worker's top-k survive
in the top-k of the sum -- match gradients measured on the repository's
largest case models.  ``calibrate.py`` re-measures them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

import numpy as np

#: Width of the shared per-coordinate log-normal magnitude.
SCALE_SIGMA = 0.95
#: Width of each worker's own log-normal magnitude.
WORKER_SIGMA = 0.3
#: Density at which the statistics are taken (the workloads' density).
DENSITY = 0.01

#: Mean statistics of real gradients (``calibrate.py --case 1 --iterations
#: 40`` and ``--case 2 --iterations 20``: VGG-16 and VGG-19, 234,034 and
#: 317,788 parameters, 8 workers, batch 32, trained with
#: ``spardl?density=0.01``).  README.md records the per-case figures.
MEASURED = {"pair_overlap": 0.23, "top1pct_mass": 0.135, "sum_recall": 0.30}


def shared_scale(rng: np.random.Generator, num_elements: int) -> np.ndarray:
    """The per-coordinate magnitude every worker and step shares."""
    return rng.lognormal(0.0, SCALE_SIGMA, num_elements)


def synthetic_gradients(rng: np.random.Generator, num_workers: int,
                        scale: np.ndarray) -> Dict[int, np.ndarray]:
    """One step's gradients, ``{rank: gradient}``."""
    n = scale.size
    return {rank: scale * rng.lognormal(0.0, WORKER_SIGMA, n) * rng.standard_normal(n)
            for rank in range(num_workers)}


def _top_k(gradient: np.ndarray, k: int) -> np.ndarray:
    return np.argpartition(-np.abs(gradient), k - 1)[:k]


def gradient_statistics(gradients: Sequence[np.ndarray],
                        density: float = DENSITY) -> Dict[str, float]:
    """Statistics of one step's per-worker gradients at ``density``:

    - ``pair_overlap``: mean over worker pairs of the share of top-k
      indices the two workers have in common;
    - ``union_frac``: distinct top-k indices over all workers, over P·k;
    - ``top1pct_mass``: mean share of a worker's L1 mass in its top 1 %;
    - ``sum_recall``: mean share of a worker's top-k that is also in the
      top-k of the summed gradient.
    """
    n = gradients[0].size
    k = max(1, int(n * density))
    tops: List[set] = [set(_top_k(gradient, k).tolist()) for gradient in gradients]
    summed = set(_top_k(np.sum(gradients, axis=0), k).tolist())
    top1pct = max(1, n // 100)
    mass = [np.sum(np.partition(np.abs(g), n - top1pct)[n - top1pct:]) / np.sum(np.abs(g))
            for g in gradients]
    return {
        "pair_overlap": float(np.mean([len(a & b) / k for a, b
                                       in itertools.combinations(tops, 2)])),
        "union_frac": len(set().union(*tops)) / (len(tops) * k),
        "top1pct_mass": float(np.mean(mass)),
        "sum_recall": float(np.mean([len(top & summed) / k for top in tops])),
    }
