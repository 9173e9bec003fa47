"""The claim check on alternating pairs: ``python claim.py runs.jsonl METRIC WORKLOAD``.

Prints each side's median and quartiles, how many pairs the change wins
(lower is better; ties count for neither side) and whether the medians
differ by more than the parent's interquartile distance.
"""
import json
import statistics
import sys

path, metric, workload = sys.argv[1:4]
runs = [json.loads(line) for line in open(path) if line.startswith("{")]
for seed in sorted({r["seed"] for r in runs if r["workload"] == workload}):
    pairs: dict = {}
    for r in runs:
        if r["workload"] == workload and r["seed"] == seed:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][metric]["value"]
    full = [p for p in pairs.values() if len(p) == 2]
    parent = sorted(p["parent"] for p in full)
    change = sorted(p["change"] for p in full)
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(p["change"] < p["parent"] for p in full)
    gap = pq[1] - cq[1]
    print(f"{workload} seed {seed} {metric}: {len(full)} pairs")
    print(f"  parent median {pq[1]:.3f} (q1 {pq[0]:.3f}, q3 {pq[2]:.3f})")
    print(f"  change median {cq[1]:.3f} (q1 {cq[0]:.3f}, q3 {cq[2]:.3f})")
    print(f"  change lower in {wins}/{len(full)} pairs; median gap {gap:.3f} vs parent IQR "
          f"{pq[2] - pq[0]:.3f}: {'claim holds' if wins >= 0.9 * len(full) and gap > pq[2] - pq[0] else 'claim NOT met'}")
