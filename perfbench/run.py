"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spardl-p32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --compare before.log after.log

``--trace 0`` is the untraced pass and prints the end-to-end metrics;
``--trace 1`` runs an untraced pass, a pass with the per-layer probe
installed and a pass built with ``trace=comm``, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment the result was measured in and the bit-identity digest.
``--workload all`` runs each workload in a process of its own and combines
their results, prefixing every metric name with the workload's.

``--compare`` reads two saved outputs and prints each metric side by side;
it refuses when the recorded environments or workloads differ (for example
the compiled-kernel leg against ``REPRO_DISABLE_CKERNELS=1``).

See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread pools pinned to one thread before numpy is imported.
PINNED_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and the compiled-kernel cache inside the
    checkout (the kernels are compiled into ``$XDG_CACHE_HOME``)."""
    for variable in PINNED_THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="OUTPUT")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.compare_outputs(*(Path(path).read_text() for path in args.compare))
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import report
    from workloads import WORKLOADS

    if args.workload == "all":
        results = {name: run_in_subprocess(name, args) for name in WORKLOADS}
        if None in results.values():
            return 1
        print(json.dumps(report.combine(results)))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result = report.run_workload(WORKLOADS[args.workload], seed=args.seed,
                                 seconds=args.seconds, traced=bool(args.trace))
    print(json.dumps(result))
    return 0


def run_in_subprocess(workload: str, args):
    """Run one workload in a process of its own, so neither its memory peak
    nor its allocator state carries over to the next; echo its report and
    return its result, or ``None`` if it failed."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        print("\n".join(lines), flush=True)
        print(f"perfbench: workload {workload} exited with code "
              f"{completed.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())
