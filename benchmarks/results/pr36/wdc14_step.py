"""Host microseconds per near-empty super-step on the wdc14-longtail graph.

``PYTHONPATH=src python benchmarks/results/pr36/wdc14_step.py [REPEATS]``
builds the ``wdc14-longtail`` workload's graph (``wdc_like(2^14,
chain_fraction=0.1)``, prepared, 2x1x2, the suggested threshold), runs BFS
levels (DO + BR, inline) once from its first three vertices of degree >= 3
to warm up, then REPEATS more times, and prints the fastest and the median
repeat's host microseconds per super-step, the step count and the modeled
milliseconds as ``float.hex``.  Nearly every one of the ~4,400 steps has a
frontier of one or two vertices, so the wall is the engine's fixed cost per
step — where filling and pricing a step's bill shows, if anywhere.  Run it
alternately in two checkouts and compare the fastest repeats.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import BFSLevels
from repro.graph.generators import wdc_like
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

#: The benchmark's graph seed (``benchmarks/perf/workloads.py``).
GRAPH_SEED = 20180521


def main(repeats: str = "7") -> None:
    edges = wdc_like(1 << 14, chain_fraction=0.1, rng=GRAPH_SEED).prepared()
    layout = ClusterLayout.from_notation("2x1x2")
    graph = build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))
    degrees = np.bincount(edges.src, minlength=edges.num_vertices)
    roots = [int(v) for v in np.flatnonzero(degrees >= 3)[:3]]
    with TraversalEngine(graph, options=BFSOptions(), backend="inline") as engine:
        for root in roots:
            engine.run(BFSLevels(root))
        per_step = []
        for _ in range(int(repeats)):
            started = time.perf_counter()
            results = [engine.run(BFSLevels(root)) for root in roots]
            steps = sum(r.iterations for r in results)
            per_step.append((time.perf_counter() - started) / steps * 1e6)
    modeled = sum(r.elapsed_ms for r in results)
    print(f"best {min(per_step):.2f} us/step  median {sorted(per_step)[len(per_step) // 2]:.2f}"
          f"  steps {steps}  modeled {float(modeled).hex()}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
