"""cProfile share of the layer between the walk and the visit kernels.

Runs the ``wdc14-longtail`` graph's three roots (``../pr36/wdc14_step.py``'s
graph and roots) once to warm up, then once under cProfile, and prints the
pass's total time and the calls and own / cumulative time of
``execute_plan`` / ``execute_gpu_plan`` (a tree that has them) or
``run_visit`` (one that has not).  Run with ``PYTHONPATH=src`` in each
checkout.
"""
import cProfile
import pstats

import numpy as np
from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import BFSLevels
from repro.graph.generators import wdc_like
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
edges = wdc_like(1 << 14, chain_fraction=0.1, rng=20180521).prepared()
layout = ClusterLayout.from_notation("2x1x2")
graph = build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))
degrees = np.bincount(edges.src, minlength=edges.num_vertices)
roots = [int(v) for v in np.flatnonzero(degrees >= 3)[:3]]
engine = TraversalEngine(graph, options=BFSOptions(), backend="inline")
for root in roots:
    engine.run(BFSLevels(root))
prof = cProfile.Profile()
prof.enable()
for root in roots:
    engine.run(BFSLevels(root))
prof.disable()
stats = pstats.Stats(prof)
total = stats.total_tt
rows = {f"{k[0].rsplit('/', 1)[-1]}:{k[2]}": v for k, v in stats.stats.items()}
pick = [k for k in rows if k.split(":")[1] in ("execute_plan", "execute_gpu_plan", "run_visit")]
print(f"total {total:.3f} s")
for k in sorted(pick):
    cc, nc, tt, ct, _ = rows[k]
    print(f"{k:<40} calls {nc:>7} tottime {tt:.3f} cumtime {ct:.3f}")
