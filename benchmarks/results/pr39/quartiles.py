"""Each side's quartiles of one metric, per workload, from ab_same_path.sh output.

Usage: python quartiles.py runs.jsonl METRIC [WORKLOAD...]
Prints q1 / median / q3 of the parent's and the change's runs and the
change / parent ratio of the medians (the same interpolation as
``../pr22/summarize.py``).
"""
import json
import statistics as st
import sys


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo, hi = int(k), min(int(k) + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


path, metric, *only = sys.argv[1:]
values: dict = {}
for line in open(path):
    if line.startswith("{"):
        run = json.loads(line)
        if not only or run["workload"] in only:
            side = values.setdefault(run["workload"], {}).setdefault(run["side"], [])
            side.append(run["result"]["metrics"][metric]["value"])
for workload, sides in values.items():
    cells = "  ".join(
        f"{side} q1 {q(xs, .25):.4f} med {st.median(xs):.4f} q3 {q(xs, .75):.4f} (n={len(xs)})"
        for side, xs in sorted(sides.items(), key=lambda kv: kv[0] != "parent")
    )
    ratio = st.median(sides["change"]) / st.median(sides["parent"])
    print(f"{workload:<26} {metric}  {cells}  ratio {ratio:.3f}")
