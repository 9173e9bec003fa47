"""Tabulate alternating parent / change runs of the repo benchmark.

``python benchmarks/results/pr21/summarize.py DIR`` reads every
``{parent,change}-seed<S>-<NN>-<workload>.json`` in ``DIR`` (the last stdout
line of ``benchmarks/perf/run.py --trace 0``) and prints, per workload and
end-to-end metric, the parent and change medians, the change / parent ratio,
the parent interquartile range, and whether ``modeled_ms`` and ``failed``
matched in every pair.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

METRICS = ("setup_s", "traverse_wall_s", "modeled_ms", "peak_rss_mb")
NAME = re.compile(r"(parent|change)-seed(\d+)-(\d+)-(.+)\.json$")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(directory: str) -> None:
    runs: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        match = NAME.match(path.name)
        if not match:
            continue
        side, seed, index, workload = match.groups()
        runs[(workload, int(seed))].setdefault(index, {})[side] = json.loads(path.read_text())
    print("| workload | seed | pairs | metric | parent median | change median | ratio "
          "| parent IQR | change better in |")
    print("|---|---:|---:|---|---:|---:|---:|---:|---:|")
    for (workload, seed), pairs in sorted(runs.items()):
        complete = [p for p in pairs.values() if "parent" in p and "change" in p]
        same_model = all(
            p["parent"]["metrics"]["modeled_ms"]["value"]
            == p["change"]["metrics"]["modeled_ms"]["value"]
            for p in complete
        )
        failed = sum(p[side]["failed"] for p in complete for side in ("parent", "change"))
        for metric in METRICS:
            a = [p["parent"]["metrics"][metric]["value"] for p in complete]
            b = [p["change"]["metrics"][metric]["value"] for p in complete]
            low, high = quartiles(a)
            wins = sum(y < x for x, y in zip(a, b))
            print(f"| {workload} | {seed} | {len(complete)} | {metric} | "
                  f"{statistics.median(a):.4g} | {statistics.median(b):.4g} | "
                  f"{statistics.median(b) / statistics.median(a):.3f} | {high - low:.3g} | "
                  f"{wins}/{len(complete)} |")
        print(f"| {workload} | {seed} | | modeled_ms equal in every pair: {same_model}; "
              f"failed ops: {failed} | | | | | |")


if __name__ == "__main__":
    main(*sys.argv[1:2])
