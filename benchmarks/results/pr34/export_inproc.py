"""The shared-memory export, parent against change, in one process.

Loads ``src/repro/exec/shm.py`` of a second checkout (PARENT) under another
module name next to this checkout's ``repro.exec.shm``, then alternates ten
rounds of 200 ``SharedGraphStore(graph).close()`` calls of each over the
``wdc12-longtail-process`` graph (wdc_like 2^12, chain fraction 0.1,
2x1x2, memory), printing each round's median and the median of the rounds
in microseconds.  One process, interleaved, so both sides see the same
heap, page cache and host state.

Run from this checkout's root:
``PYTHONPATH=src python benchmarks/results/pr34/export_inproc.py PARENT``
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import time
from pathlib import Path

from repro.exec.shm import SharedGraphStore as ChangeStore
from repro.graph import wdc_like
from repro.partition import ClusterLayout, build_partitions, suggest_threshold

spec = importlib.util.spec_from_file_location(
    "parent_shm", Path(sys.argv[1]) / "src" / "repro" / "exec" / "shm.py"
)
parent_shm = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parent_shm)
ParentStore = parent_shm.SharedGraphStore

edges = wdc_like(1 << 12, chain_fraction=0.1, rng=20180521).prepared()
layout = ClusterLayout.from_notation("2x1x2")
graph = build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))


def median_us(store_class, repeats: int = 200) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        store_class(graph).close()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


for _ in range(3):  # warm-up
    median_us(ParentStore, 20)
    median_us(ChangeStore, 20)
rounds = {"parent": [], "change": []}
for round_ in range(10):
    order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
    for side in order:
        rounds[side].append(median_us(ParentStore if side == "parent" else ChangeStore))
for side, values in rounds.items():
    print(f"{side}: {' '.join(f'{v:.0f}' for v in values)}  median {statistics.median(values):.0f} us")
delta = statistics.median(rounds["change"]) - statistics.median(rounds["parent"])
print(f"change - parent: {delta:+.0f} us")
