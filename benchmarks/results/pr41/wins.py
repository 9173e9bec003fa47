"""Per workload and end-to-end metric: the pairs the change wins, both
medians, the parent's interquartile range and the claim rule.

Usage: python wins.py runs.jsonl
``runs.jsonl`` is ``../pr36/ab_same_path.sh`` output.  A pair is won when
the change's value is lower (ties count for neither side).  ``gap > IQR``
says whether the medians differ by more than the parent's own quartile
distance, the rule a claimed gain must meet with at least 9 of 10 wins.
"""
import json
import statistics as st
import sys

METRICS = ("setup_s", "traverse_wall_s", "modeled_ms", "peak_rss_mb")


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo, hi = int(k), min(int(k) + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


by = {}
for line in open(sys.argv[1]):
    if line.startswith("{"):
        run = json.loads(line)
        by.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
for workload, pairs in by.items():
    full = [v for v in pairs.values() if "parent" in v and "change" in v]
    print(f"{workload}: {len(full)} pairs")
    for metric in METRICS:
        a = [v["parent"]["metrics"][metric]["value"] for v in full]
        b = [v["change"]["metrics"][metric]["value"] for v in full]
        wins = sum(y < x for x, y in zip(a, b))
        losses = sum(y > x for x, y in zip(a, b))
        iqr = q(a, 0.75) - q(a, 0.25)
        gap = st.median(a) - st.median(b)
        print(f"  {metric:<16} wins {wins:>2} losses {losses:>2}  parent {st.median(a):9.4f}"
              f" change {st.median(b):9.4f}  ratio {st.median(b) / st.median(a):6.3f}"
              f"  IQR {iqr:.4f}  gap > IQR {abs(gap) > iqr}")
