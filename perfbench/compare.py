"""Side-by-side comparison of two saved benchmark outputs.

A result is only comparable with another measured in the same environment:
the compiled-kernel leg, the BLAS thread count, the numpy version and the
number of usable cores all move the timings, and ``peak_rss_mb`` means
something else where the memory high-water mark cannot be reset, so
:func:`compare_outputs` refuses when any of them differ.
"""

from __future__ import annotations

import json

#: Facts two results must share before they may be compared.
ENVIRONMENT_FACTS = ("compiled_kernels", "blas_threads", "numpy", "nproc",
                     "peak_rss_reset")


def parse_output(text: str) -> dict:
    """The workload headers, environment and result of one saved output."""
    parsed = {"workloads": [], "environment": None, "result": None}
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("workload "):
            fields = line.split()
            parsed["workloads"].append((fields[1], fields[5]))
        elif line.startswith("environment "):
            parsed["environment"] = json.loads(line[len("environment "):])
    if lines:
        parsed["result"] = json.loads(lines[-1])
    return parsed


def compare_outputs(text_a: str, text_b: str) -> int:
    """Print two results side by side; refuse (exit code 2) when they were
    measured in different environments, on different workloads or in
    different trace modes."""
    a, b = parse_output(text_a), parse_output(text_b)
    if None in (a["environment"], b["environment"], a["result"], b["result"]):
        print("refusing to compare: an output lacks its environment or result line")
        return 2
    differing = [fact for fact in ENVIRONMENT_FACTS
                 if a["environment"].get(fact) != b["environment"].get(fact)]
    for fact in differing:
        print(f"refusing to compare: {fact} differs "
              f"({a['environment'].get(fact)!r} vs {b['environment'].get(fact)!r})")
    if differing:
        return 2
    if a["workloads"] != b["workloads"]:
        print(f"refusing to compare: workloads differ "
              f"({a['workloads']} vs {b['workloads']})")
        return 2
    metrics_a, metrics_b = a["result"]["metrics"], b["result"]["metrics"]
    for name, metric in metrics_a.items():
        if name not in metrics_b:
            continue
        value_a, value_b = metric["value"], metrics_b[name]["value"]
        ratio = f"x{value_b / value_a:.4f}" if value_a else "-"
        print(f"  {name:<34} {value_a:>14.6g} {value_b:>14.6g}  {ratio} {metric['unit']}")
    return 0
