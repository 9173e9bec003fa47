"""Core distributed traversal engine — the paper's primary contribution,
generalized into an algorithm-agnostic machine.

The public entry points are :class:`repro.core.engine.TraversalEngine`, which
executes any :class:`repro.core.programs.FrontierProgram` over a
:class:`repro.partition.PartitionedGraph` on the simulated cluster, and the
seed-compatible :class:`repro.core.engine.DistributedBFS` wrapper, which runs
the paper's BFS (the :class:`repro.core.programs.BFSLevels` program) with
identical answers and modeled timings.

Modules
-------
``options``
    :class:`BFSOptions` — every switch from the paper's Figure 8 ablation
    (direction optimization, local all2all, uniquify, blocking vs non-blocking
    delegate reduction) plus the per-subgraph direction-switching factors.
``kernels``
    The forward-push and backward-pull visit kernels for the four subgraphs,
    as vectorized NumPy functions with exact workload counting.
``direction``
    Per-subgraph direction-optimization state: forward/backward workload
    estimates (FV / BV) and the factor-based switching rule of §IV-B.
``state``
    Per-GPU and replicated traversal state (normal values, delegate values,
    masks, frontiers) of one run: :class:`TraversalState`, started from a
    program's initial values.
``programs``
    The frontier-program protocol and the shipped algorithms: BFS levels,
    Graph500 parent trees, connected components, k-hop reachability.
``results``
    The :class:`TraversalResult` hierarchy (per-algorithm answers over shared
    counters and timing) and per-iteration records.
``campaign``
    :class:`Campaign` — the paper's many-sources reporting protocol
    (geometric means, single-iteration skips) as an aggregating sequence.
``engine``
    :class:`TraversalEngine` — the super-step orchestrator combining local
    computation (Fig. 3) and the communication model (Fig. 4).
"""

from repro.core.campaign import Campaign, run_campaign
from repro.core.engine import DistributedBFS, TraversalEngine
from repro.core.options import BFSOptions, DirectionFactors
from repro.core.programs import (
    BatchedBFSLevels,
    BatchedFrontierProgram,
    BatchedReachability,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    FrontierProgram,
    KHopReachability,
)
from repro.core.results import (
    BatchResult,
    BFSResult,
    ComponentsResult,
    IterationRecord,
    ParentTreeResult,
    ReachabilityResult,
    TraversalResult,
)

__all__ = [
    "TraversalEngine",
    "DistributedBFS",
    "FrontierProgram",
    "BFSLevels",
    "BFSParents",
    "ConnectedComponents",
    "KHopReachability",
    "BatchedFrontierProgram",
    "BatchedBFSLevels",
    "BatchedReachability",
    "BFSOptions",
    "DirectionFactors",
    "TraversalResult",
    "BFSResult",
    "ParentTreeResult",
    "ComponentsResult",
    "ReachabilityResult",
    "BatchResult",
    "IterationRecord",
    "Campaign",
    "run_campaign",
]
