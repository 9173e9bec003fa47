"""Summarise the alternating parent/change runs of PR 19.

``python summarize.py [DIR] [SEED]`` reads the driver-form results
``DIR/<side>-seed<S>-<NN>-<workload>.json`` (the last stdout line of
``benchmarks/perf/run.py --workload W --seed S --seconds 8 --trace 0``; pair NN
ran both sides back to back, odd pairs parent first) and prints, per workload
and end-to-end metric, each side's median and quartiles, the pairs the change
won and the verdict by the rule of ``choosing-metrics`` section 8.  Then, from
the two full sets ``DIR/<side>-full-seed<S>.json`` (``run.py --seed S --out``,
which carry the ``--trace 1`` rows), the per-layer rows that should account
for a per-step saving and the simulated rows that must not move.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
#: Host-time rows the claim says must fall on the long-tail workloads.
LAYER_ROWS = (
    "engine.us_per_step", "engine.kernels_s", "engine.exchange_s", "engine.delegate_reduce_s",
    "obs.span.super_step_s", "obs.span.plan_direction_s", "obs.span.fold_s",
    "obs.span.nn_exchange_s", "obs.span.delegate_reduce_s", "obs.span.worker_kernels_s",
    "obs.events", "obs.trace_overhead", "exec.us_per_step", "exec.process_over_inline",
)
#: Simulated / counted rows: equal at equal seed, or the change is wrong.
EXACT_PREFIXES = ("engine.steps", "engine.edges", "comm.", "model.")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_pairs(directory: Path, seed: int | None):
    """``{workload: {(seed, index): {side: result}}}`` of complete pairs."""
    runs: dict = {}
    pattern = re.compile(r"(parent|change)-seed(\d+)-(\d+)-(.+)")
    for path in sorted(directory.glob("*-seed*-*-*.json")):
        side, run_seed, index, workload = pattern.fullmatch(path.stem).groups()
        if (seed is None or int(run_seed) == seed) and path.stat().st_size:
            pair = runs.setdefault(workload, {}).setdefault((int(run_seed), int(index)), {})
            pair[side] = json.loads(path.read_text())
    return {
        workload: {key: pair for key, pair in pairs.items() if len(pair) == 2}
        for workload, pairs in runs.items()
    }


def verdict(name, bound, parent, change):
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    won = sum(c < p for p, c in zip(parent, change))
    lost = sum(c > p for p, c in zip(parent, change))
    if name == "modeled_ms":
        return "equal in every pair" if won == lost == 0 else "CHANGED"
    if (cmed - pmed) / pmed > bound:
        return "worse"
    if won >= 0.9 * len(parent) and pmed - cmed > pq3 - pq1:
        return "better"
    if max(pq3 - pq1, cq3 - cq1) / pmed > bound and max(change) >= min(parent):
        return "unresolved (spread > bound)"
    return "no worse"


def end_to_end(spec, pairs_by_workload) -> None:
    print("| workload | metric | pairs | parent median [q1, q3] | change median [q1, q3] "
          "| change/parent | pairs won | verdict |")
    print("|---|---|---:|---|---|---:|---:|---|")
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = pairs_by_workload.get(workload, {})
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs.values()]
            change = [p["change"]["metrics"][name]["value"] for p in pairs.values()]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
            won = sum(c < p for p, c in zip(parent, change))
            print(f"| {workload} | {name} | {len(parent)} | {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | "
                  f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] | {cmed / pmed:.3f} | "
                  f"{won}/{len(parent)} | {verdict(name, bound, parent, change)} |")
        failed += sum(side["failed"] for pair in pairs.values() for side in pair.values())
    print(f"\nfailed operations over all runs, both sides: {failed}\n")


def layers(directory: Path, seed: int) -> None:
    try:
        parent, change = (
            json.loads((directory / f"{side}-full-seed{seed}.json").read_text())["workloads"]
            for side in ("parent", "change")
        )
    except FileNotFoundError:
        return
    print(f"Per-layer rows of the two full sets (seed {seed}, `--trace 1` children):\n")
    print("| workload | per-layer row | parent | change | change/parent |")
    print("|---|---|---:|---:|---:|")
    for workload in parent:
        for row in LAYER_ROWS:
            a = parent[workload]["metrics"].get(row)
            b = change[workload]["metrics"].get(row)
            if a and b is not None:
                print(f"| {workload} | {row} | {a:.4g} | {b:.4g} | {b / a:.3f} |")
    moved = [
        (workload, row, value, change[workload]["metrics"].get(row))
        for workload in parent
        for row, value in parent[workload]["metrics"].items()
        if row.startswith(EXACT_PREFIXES) and change[workload]["metrics"].get(row) != value
    ]
    count = sum(row.startswith(EXACT_PREFIXES) for w in parent for row in parent[w]["metrics"])
    print(f"\nsimulated / counted rows (`engine.steps`, `engine.edges*`, `comm.*`, `model.*`): "
          f"{count} compared, {len(moved)} differ")
    for workload, row, a, b in moved:
        print(f"  DIFFERS {workload} {row}: {a} -> {b}")


def main(directory: str = str(Path(__file__).parent), seed: str | None = None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = None if seed is None else int(seed)
    end_to_end(spec, load_pairs(Path(directory), chosen))
    layers(Path(directory), 1 if chosen is None else chosen)


if __name__ == "__main__":
    main(*sys.argv[1:3])
