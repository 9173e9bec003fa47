"""Summarise an alternating parent/change set of ``benchmarks/perf/run.py --out`` files.

``python summarize.py DIR [SEED]`` reads ``DIR/parent-seed<S>-<NN>.json`` and
``DIR/change-seed<S>-<NN>.json`` (pair NN ran both sides back to back) and
prints, per workload and end-to-end metric, each side's median and quartiles
over the runs, the pairs the change won, and the verdict by the rule of
``choosing-metrics`` section 8; then the per-layer rows that should account
for a set-up saving.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
LAYER_ROWS = (
    "graph.generate_s", "graph.prepare_s", "partition.threshold_s", "partition.build_s",
    "partition.distribute_s", "graph.csr_edges_per_s", "storage.ingest_s", "storage.merge_s",
    "storage.distribute_s", "dynamic.setup_s",
)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load(directory: Path):
    pairs = {}
    for path in sorted(directory.glob("*-seed*-*.json")):
        side, seed, index = re.fullmatch(r"(parent|change)-seed(\d+)-(\d+)", path.stem).groups()
        pairs.setdefault((int(seed), int(index)), {})[side] = json.loads(path.read_text())
    return {key: pair for key, pair in pairs.items() if len(pair) == 2}


def main(directory: str, seed: str | None = None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = load(Path(directory))
    if seed is not None:
        pairs = {key: pair for key, pair in pairs.items() if key[0] == int(seed)}
    seeds = sorted({seed for seed, _ in pairs})
    print(f"{len(pairs)} pairs; seeds {seeds}; "
          f"host {next(iter(pairs.values()))['parent']['host']['cpu_model']}, "
          f"numpy {next(iter(pairs.values()))['parent']['host']['numpy']}\n")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change/parent | pairs won | verdict |")
    print("|---|---|---|---|---:|---:|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            parent = [p["parent"]["workloads"][workload]["metrics"][name] for p in pairs.values()]
            change = [p["change"]["workloads"][workload]["metrics"][name] for p in pairs.values()]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
            won = sum(c < p for p, c in zip(parent, change))
            lost = sum(c > p for p, c in zip(parent, change))
            if name == "modeled_ms":
                verdict = "equal in every pair" if won == lost == 0 else "CHANGED"
            elif (cmed - pmed) / pmed > bound:
                verdict = "worse"
            elif max(pq3 - pq1, cq3 - cq1) / pmed > bound:
                verdict = "unresolved (spread > bound)"
            elif won >= 0.9 * len(parent) and pmed - cmed > pq3 - pq1:
                verdict = "better"
            else:
                verdict = "no worse"
            print(f"| {workload} | {name} | {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | "
                  f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] | {cmed / pmed:.3f} | "
                  f"{won}/{len(parent)} | {verdict} |")
    failed = sum(side["workloads"][w]["failed"] for p in pairs.values()
                 for side in p.values() for w in side["workloads"])
    print(f"\nfailed operations over all runs, both sides: {failed}\n")
    print("| workload | per-layer row | parent median | change median |")
    print("|---|---|---:|---:|")
    for workload in (w["name"] for w in spec["workloads"]):
        for row in LAYER_ROWS:
            parent, change = (
                [p[side]["workloads"][workload]["metrics"].get(row, 0.0) for p in pairs.values()]
                for side in ("parent", "change")
            )
            if max(parent) > 0:
                print(f"| {workload} | {row} | {statistics.median(parent):.4g} | "
                      f"{statistics.median(change):.4g} |")


if __name__ == "__main__":
    main(*sys.argv[1:3] or [str(Path(__file__).parent)])
