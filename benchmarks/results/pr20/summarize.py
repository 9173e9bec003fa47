"""Summarise the alternating parent/change runs of PR 20.

``python benchmarks/results/pr20/summarize.py [SEED]`` prints the tables of
this directory's README: it is ``benchmarks/results/pr19/summarize.py`` (same
file naming, same verdict rule) pointed at this directory, with the per-layer
rows this PR's claim names — ``engine.ns_per_edge`` first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "pr19"))

import summarize  # noqa: E402

summarize.LAYER_ROWS = (
    "engine.ns_per_edge", "engine.us_per_step", "engine.kernels_s", "engine.exchange_s",
    "engine.delegate_reduce_s", "engine.other_s", "obs.span.super_step_s",
    "obs.span.plan_direction_s", "obs.span.worker_kernels_s", "obs.span.fold_s",
    "obs.span.nn_exchange_s", "obs.span.delegate_reduce_s", "obs.events",
    "obs.trace_overhead", "storage.traverse_ns_per_edge", "weighted.sssp_ns_per_relaxation",
)

#: Rows of the extra ``--trace 1`` pairs (``trace1-<workload>-<side>-0N.json``).
TRACE_ROWS = (
    "engine.ns_per_edge", "engine.us_per_step", "engine.kernels_s",
    "obs.span.worker_kernels_s", "obs.span.plan_direction_s", "obs.span.fold_s",
    "obs.span.nn_exchange_s", "obs.span.delegate_reduce_s",
    "engine.steps", "engine.edges_examined", "model.computation_ms",
)


def _value(result: dict, row: str):
    value = result["metrics"].get(row)
    return value["value"] if isinstance(value, dict) else value


def trace_pairs() -> None:
    """parent -> change (ratio) per extra ``--trace 1`` pair and row."""
    parents = HERE.glob("trace1-*-parent-*")
    for workload in sorted({p.name.split("-parent-")[0][len("trace1-"):] for p in parents}):
        pairs = []
        for parent in sorted(HERE.glob(f"trace1-{workload}-parent-*.json")):
            change = parent.with_name(parent.name.replace("-parent-", "-change-"))
            pairs.append((json.loads(parent.read_text()), json.loads(change.read_text())))
        print(f"\n`--workload {workload} --trace 1`, {len(pairs)} alternating pairs:\n")
        print("| row | " + " | ".join(f"pair {i + 1}" for i in range(len(pairs))) + " |")
        print("|---|" + "---|" * len(pairs))
        for row in TRACE_ROWS:
            cells = []
            for parent, change in pairs:
                a, b = _value(parent, row), _value(change, row)
                if a is None or b is None:
                    cells.append("-")
                elif a == b:
                    cells.append(f"{a:.6g} = {b:.6g}")
                else:
                    cells.append(f"{a:.4g} → {b:.4g} ({b / a:.3f})")
            print(f"| `{row}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    summarize.main(str(HERE), *sys.argv[1:2])
    trace_pairs()
