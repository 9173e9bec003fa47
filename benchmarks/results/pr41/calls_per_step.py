"""Function calls per super-step of the ``wdc14-longtail`` pass.

``PYTHONPATH=src python benchmarks/results/pr41/calls_per_step.py [REPEATS]``
builds the ``wdc14-longtail`` graph and three roots of
``../pr36/wdc14_step.py`` (2x1x2, DO + BR, inline), runs them once to warm
up, then REPEATS times (default 3) under cProfile, and prints per repeat the
pass's calls, steps, calls per step, profiled seconds and modeled
milliseconds as ``float.hex``, then the ten functions with the most calls of
the last repeat.  Calls do not move with the host's speed, so two checkouts'
counts compare where their walls cannot.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

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


def main(repeats: str = "3") -> None:
    edges = wdc_like(1 << 14, chain_fraction=0.1, rng=GRAPH_SEED).prepared()
    layout = ClusterLayout.from_notation("2x1x2")
    graph = build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))
    degrees = np.bincount(edges.src, minlength=edges.num_vertices)
    roots = [int(v) for v in np.flatnonzero(degrees >= 3)[:3]]
    with TraversalEngine(graph, options=BFSOptions(), backend="inline") as engine:
        for root in roots:
            engine.run(BFSLevels(root))
        for _ in range(int(repeats)):
            profile = cProfile.Profile()
            profile.enable()
            results = [engine.run(BFSLevels(root)) for root in roots]
            profile.disable()
            stats = pstats.Stats(profile)
            steps = sum(r.iterations for r in results)
            modeled = sum(r.elapsed_ms for r in results)
            print(f"calls {stats.total_calls}  steps {steps}  "
                  f"calls/step {stats.total_calls / steps:.1f}  "
                  f"profiled {stats.total_tt:.2f} s  modeled {float(modeled).hex()}")
    top = sorted(stats.stats.items(), key=lambda item: -item[1][1])[:10]
    for (path, line, name), (_, calls, own, cumulative, _) in top:
        print(f"  {calls:>8}  {path.rsplit('/', 1)[-1]}:{line}({name})")


if __name__ == "__main__":
    main(*sys.argv[1:2])
