"""Measure real gradients of a repository case and set them beside the sync
workloads' synthetic gradients.

Usage (from the repository root)::

    python3 perfbench/calibrate.py --case 1 --iterations 40

Trains the case for one pass on ``sim:P`` with ``spardl?density=0.01``,
batch 32 per worker, captures the per-worker gradients handed to the
synchroniser, and prints :func:`gradients.gradient_statistics` for a sample
of iterations, their mean, and the same statistics of the synthetic
generator at the case's size.  The benchmark does not run this; it is how
``gradients.MEASURED`` and the generator's widths were obtained.
"""

from __future__ import annotations

import argparse
import sys

from run import ROOT, pin_environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--samples", type=int, default=7,
                        help="iterations whose statistics are printed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gradients
    from workloads import TrainWorkload

    workload = TrainWorkload("calibrate", "spardl?density=0.01", case_id=args.case,
                             num_workers=args.workers, iterations=args.iterations)
    inputs = workload.prepare(args.seed)
    trainer = workload.build(inputs, workload.spec, args.workers)
    captured = []
    step = trainer.session.step

    def capture(per_worker):
        captured.append([per_worker[rank].copy() for rank in sorted(per_worker)])
        return step(per_worker)

    trainer.session.step = capture
    trainer.train_epoch(0, evaluate=False)

    n = captured[0][0].size
    print(f"case {args.case} ({inputs['case'].name}), n = {n}, P = {args.workers}")
    sampled = sorted(set(np.linspace(0, len(captured) - 1, args.samples).astype(int)))
    rows = []
    for iteration in sampled:
        rows.append(gradients.gradient_statistics(captured[iteration]))
        print(f"  iteration {iteration:>3} " + _format(rows[-1]))
    print("  real mean     " + _format({key: np.mean([row[key] for row in rows])
                                        for key in rows[0]}))
    rng = np.random.default_rng(args.seed)
    synthetic = gradients.synthetic_gradients(
        rng, args.workers, gradients.shared_scale(rng, n))
    print("  synthetic     " + _format(
        gradients.gradient_statistics([synthetic[rank] for rank in sorted(synthetic)])))
    return 0


def _format(statistics) -> str:
    return "  ".join(f"{key} {value:.3f}" for key, value in statistics.items())


if __name__ == "__main__":
    sys.exit(main())
