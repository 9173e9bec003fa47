"""Milliseconds of each set-up stage of the wdc12-longtail-process workload.

``PYTHONPATH=src python benchmarks/results/pr36/wdc12_setup.py`` repeats
the workload's set-up nine times in one process — close the previous
process pool, then generate ``wdc_like(2^12, chain_fraction=0.1)``,
prepare, partition at 2x1x2 with the suggested threshold (``build``), start
a two-worker ``ProcessBackend`` (``spawn``), create the engine
(``engine``) — running one BFS after each, and prints each stage's median
over the last eight.  Run it alternately in two checkouts to see whether a
``setup_s`` difference is in the code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import BFSLevels
from repro.exec import ProcessBackend
from repro.graph.generators import wdc_like
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

#: The benchmark's graph seed (``benchmarks/perf/workloads.py``).
GRAPH_SEED = 20180521


def main() -> None:
    walls: dict[str, list[float]] = {"close": [], "build": [], "spawn": [], "engine": []}
    backend = None
    for repeat in range(9):
        started = time.perf_counter()
        if backend is not None:
            backend.close()
        closed = time.perf_counter()
        edges = wdc_like(1 << 12, chain_fraction=0.1, rng=GRAPH_SEED).prepared()
        layout = ClusterLayout.from_notation("2x1x2")
        graph = build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))
        built = time.perf_counter()
        backend = ProcessBackend(graph, workers=2)
        spawned = time.perf_counter()
        engine = TraversalEngine(graph, options=BFSOptions(), backend=backend)
        ready = time.perf_counter()
        engine.run(BFSLevels(int(np.flatnonzero(np.bincount(edges.src) >= 3)[0])))
        if repeat:
            walls["close"].append(closed - started)
            walls["build"].append(built - closed)
            walls["spawn"].append(spawned - built)
            walls["engine"].append(ready - spawned)
    backend.close()
    print("  ".join(f"{key} {statistics.median(v) * 1e3:.2f} ms" for key, v in walls.items()))


if __name__ == "__main__":
    main()
