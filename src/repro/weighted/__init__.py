"""repro.weighted — weighted traversals and the expanded program zoo.

Programs over the weighted CSR path (per-edge float64 weights threaded
through generators, partitioning, storage and the visit kernels):

* :class:`BellmanFordSSSP` / :class:`DeltaSteppingSSSP` — single-source
  shortest paths; the former is the per-edge relaxation baseline, the
  latter the bucketed delta-stepping schedule (Meyer & Sanders).
* :class:`PageRank` — deterministic fixed-point ranks; ``"fixed"``
  power sweeps or ``"push"`` residual propagation.
* :class:`ComponentsHooking` — min-label hooking + pointer jumping.
* :class:`TriangleCount` — exact rank-ordered triangle counting.

All programs run through ``engine.run(program)`` like the BFS family;
answers and workload counters are bit-identical across execution
backends and storage tiers.
"""

from repro.weighted.pagerank import PageRank
from repro.weighted.results import (
    HookingResult,
    PageRankResult,
    SSSPResult,
    TriangleCountResult,
)
from repro.weighted.sssp import BellmanFordSSSP, DeltaSteppingSSSP
from repro.weighted.zoo import ComponentsHooking, TriangleCount, edges_from_partitions

__all__ = [
    "BellmanFordSSSP",
    "DeltaSteppingSSSP",
    "PageRank",
    "ComponentsHooking",
    "TriangleCount",
    "edges_from_partitions",
    "SSSPResult",
    "PageRankResult",
    "HookingResult",
    "TriangleCountResult",
]
