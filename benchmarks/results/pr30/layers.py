"""Median per-layer metrics of ``layers.jsonl``, parent vs change, per workload.

Usage: ``python layers.py layers.jsonl``.
"""
import json
import statistics
import sys

METRICS = (
    "engine.ns_per_edge", "engine.kernels_s", "engine.us_per_step", "obs.span.worker_kernels_s",
    "obs.span.fold_s", "obs.span.plan_direction_s", "storage.decode_mb_per_s",
    "weighted.pagerank_s", "weighted.sssp_s",
)
runs = [json.loads(line) for line in open(sys.argv[1]) if line.startswith("{")]
for workload in dict.fromkeys(r["workload"] for r in runs):
    print(f"{workload}: {sum(r['workload'] == workload for r in runs) // 2} pairs")
    for metric in METRICS:
        sides = {
            side: [r["result"]["metrics"][metric]["value"] for r in runs
                   if r["workload"] == workload and r["side"] == side]
            for side in ("parent", "change")
        }
        parent, change = (statistics.median(sides[s]) for s in ("parent", "change"))
        if parent or change:
            ratio = change / parent if parent else float("nan")
            print(f"  {metric:28s} parent {parent:12.4f}  change {change:12.4f}  ratio {ratio:.3f}")
