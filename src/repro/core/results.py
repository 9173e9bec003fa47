"""Result containers of distributed traversal runs.

Every run of the generic :class:`repro.core.engine.TraversalEngine` produces a
:class:`TraversalResult` bundling three things:

1. the **answer** — the per-vertex values the frontier program computed
   (hop distances for :class:`BFSResult`, parent pointers for
   :class:`ParentTreeResult`, component labels for :class:`ComponentsResult`);
2. the **counters** — per-kernel edges examined, frontier sizes and
   communication volumes, recorded per iteration in
   :class:`IterationRecord`; and
3. the **modeled performance** — the per-phase
   :class:`repro.utils.timing.TimingBreakdown` and the derived traversal rate
   (TEPS), computed from the counters through the hardware model.

The counters and timing machinery is shared by every algorithm; only the
answer-specific fields and derived metrics live on the subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.cluster.comm import CommStats
from repro.utils.sorting import sorted_unique
from repro.utils.timing import TimingBreakdown

__all__ = [
    "IterationRecord",
    "TraversalResult",
    "BFSResult",
    "ParentTreeResult",
    "ComponentsResult",
    "ReachabilityResult",
    "BatchResult",
]


@dataclass
class IterationRecord:
    """Counters and modeled times for one super-step."""

    iteration: int
    #: Number of vertices in the input normal frontier, summed over GPUs.
    normal_frontier_size: int
    #: Number of newly-visited delegates entering this iteration.
    delegate_frontier_size: int
    #: Edges examined by each kernel class this iteration, summed over GPUs.
    edges_examined: dict = field(default_factory=dict)
    #: Direction used by each DO-capable kernel this iteration (True=backward).
    directions: dict = field(default_factory=dict)
    #: Newly discovered vertices this iteration (normals + delegates).
    discovered: int = 0
    #: Whether a delegate-mask reduction was needed this iteration.
    delegate_reduce: bool = False
    #: Modeled times (seconds) for this iteration.
    computation_s: float = 0.0
    local_communication_s: float = 0.0
    remote_normal_exchange_s: float = 0.0
    remote_delegate_reduce_s: float = 0.0
    elapsed_s: float = 0.0

    def total_edges_examined(self) -> int:
        """Edges examined across all kernels this iteration."""
        return int(sum(self.edges_examined.values()))


@dataclass
class TraversalResult:
    """Common outcome of one traversal-program run (any algorithm)."""

    #: Short algorithm name, set by each concrete result class.
    algorithm: ClassVar[str] = "traversal"
    #: Names of the per-vertex int64 array(s) that *are* the answer (what the
    #: bench checksum covers), set by each concrete result class.
    answer_fields: ClassVar[tuple[str, ...]] = ()

    iterations: int
    records: list[IterationRecord]
    timing: TimingBreakdown
    comm_stats: CommStats
    #: Edges examined by all kernels over the whole run (the DOBFS workload
    #: m' + d·p·b of §IV-B).
    total_edges_examined: int
    #: Directed edges of the input graph (for default TEPS accounting).
    num_directed_edges: int
    #: Wall-clock seconds the *simulation itself* spent, per engine phase:
    #: ``traversal`` (the whole run), ``exchange``, ``delegate_reduce`` and
    #: ``kernels`` — the backend's kernel stage plus the coordinator's
    #: ``plan``, ``fold`` and ``overlay`` shares, which are also listed on
    #: their own.  This is real time of the Python reproduction — the
    #: quantity the bench harness tracks — not the modeled cluster time above.
    wall_s: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def elapsed_ms(self) -> float:
        """Modeled end-to-end elapsed time in milliseconds."""
        return self.timing.elapsed_ms

    @property
    def us_per_step(self) -> float:
        """Wall-clock microseconds the simulation spent per super-step."""
        return self.wall_s.get("traversal", 0.0) / self.iterations * 1e6 if self.iterations else 0.0

    @property
    def ns_per_edge(self) -> float:
        """Wall-clock nanoseconds the simulation spent per examined edge."""
        edges = self.total_edges_examined
        return self.wall_s.get("traversal", 0.0) / edges * 1e9 if edges else 0.0

    def teps(self, counted_edges: int | None = None) -> float:
        """Traversal rate in edges per second.

        Parameters
        ----------
        counted_edges:
            Number of edges to count, following the Graph500 convention the
            paper uses (``m/2 = 2^N · 16`` for a scale-N RMAT graph).  The
            default is half the stored directed edge count, i.e. the number of
            undirected input edges.
        """
        edges = counted_edges if counted_edges is not None else self.num_directed_edges // 2
        if self.timing.elapsed_ms <= 0:
            raise ValueError("elapsed time is zero; TEPS undefined")
        return edges / (self.timing.elapsed_ms / 1000.0)

    def gteps(self, counted_edges: int | None = None) -> float:
        """Traversal rate in Giga-TEPS."""
        return self.teps(counted_edges) / 1e9

    def traversed_more_than_one_iteration(self) -> bool:
        """The paper only reports runs that executed more than one iteration."""
        return self.iterations > 1

    def workload_by_kernel(self) -> dict:
        """Total edges examined per kernel class across the run."""
        totals: dict[str, int] = {}
        for record in self.records:
            for kernel, edges in record.edges_examined.items():
                totals[kernel] = totals.get(kernel, 0) + int(edges)
        return totals

    def summary(self) -> dict:
        """Compact dictionary summary for logging / tabular output."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "elapsed_ms": self.timing.elapsed_ms,
            # Zero-super-step runs (e.g. 0-hop reachability) have no elapsed
            # time and therefore no rate.
            "gteps": self.gteps() if self.timing.elapsed_ms > 0 else 0.0,
            "edges_examined": self.total_edges_examined,
            "computation_ms": self.timing.computation,
            "local_comm_ms": self.timing.local_communication,
            "remote_normal_ms": self.timing.remote_normal_exchange,
            "remote_delegate_ms": self.timing.remote_delegate_reduce,
        }


@dataclass
class BFSResult(TraversalResult):
    """Full outcome of one BFS-levels run (the paper's algorithm)."""

    algorithm: ClassVar[str] = "bfs"
    answer_fields: ClassVar[tuple[str, ...]] = ("distances",)

    source: int = 0
    distances: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_visited(self) -> int:
        """Number of vertices reached from the source (including the source)."""
        return int(np.count_nonzero(self.distances >= 0))

    @property
    def depth(self) -> int:
        """Largest hop distance reached."""
        visited = self.distances[self.distances >= 0]
        return int(visited.max()) if visited.size else 0

    def summary(self) -> dict:
        """Compact dictionary summary for logging / tabular output."""
        base = super().summary()
        base.update(
            {
                "source": self.source,
                "visited": self.num_visited,
                "depth": self.depth,
            }
        )
        return base


@dataclass
class ParentTreeResult(TraversalResult):
    """Graph500-style parent tree: ``parents[v]`` is the BFS parent of ``v``.

    The source is its own parent; unreached vertices hold ``-1``.  The tree
    is deterministic: when several parents claim a vertex through the same
    channel in one super-step the smallest parent id wins, and cross-channel
    ties resolve by the engine's fixed update order (local dn discoveries are
    applied before exchange-delivered ones).
    """

    algorithm: ClassVar[str] = "bfs-parents"
    answer_fields: ClassVar[tuple[str, ...]] = ("parents",)

    source: int = 0
    parents: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_visited(self) -> int:
        """Number of vertices in the parent tree (including the source)."""
        return int(np.count_nonzero(self.parents >= 0))

    def tree_edges(self) -> np.ndarray:
        """The (parent, child) pairs of the tree, excluding the source's self-loop."""
        children = np.flatnonzero(self.parents >= 0)
        children = children[children != self.source]
        return np.stack([self.parents[children], children], axis=1)

    def summary(self) -> dict:
        base = super().summary()
        base.update({"source": self.source, "visited": self.num_visited})
        return base


@dataclass
class ComponentsResult(TraversalResult):
    """Connected-component labels: ``labels[v]`` is the smallest vertex id in
    ``v``'s component (isolated vertices label themselves)."""

    algorithm: ClassVar[str] = "components"
    answer_fields: ClassVar[tuple[str, ...]] = ("labels",)

    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_components(self) -> int:
        """Number of connected components (isolated vertices count as one each)."""
        return int(sorted_unique(self.labels).size)

    @property
    def largest_component_size(self) -> int:
        """Vertex count of the largest component."""
        if self.labels.size == 0:
            return 0
        _, counts = np.unique(self.labels, return_counts=True)
        return int(counts.max())

    def component_sizes(self) -> dict:
        """Mapping from component label to component size."""
        labels, counts = np.unique(self.labels, return_counts=True)
        return {int(label): int(count) for label, count in zip(labels, counts)}

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "components": self.num_components,
                "largest_component": self.largest_component_size,
            }
        )
        return base


@dataclass
class BatchResult(TraversalResult):
    """Outcome of one batched (MS-BFS style) run: B sources, one sweep.

    ``distances`` is a ``(B, num_vertices)`` matrix whose lane ``l`` is
    bit-identical to a sequential BFS (or k-hop, when ``max_hops`` is set)
    from ``sources[l]``.  The counters, records and timing describe the
    *shared* batched sweep — one traversal that answered B queries — so the
    per-lane views produced by :meth:`result_for_lane` carry the whole
    batch's cost, not a per-lane split (there is no physically meaningful
    way to split one fused sweep).
    """

    algorithm: ClassVar[str] = "batched-bfs"

    sources: list = field(default_factory=list)
    #: ``(B, num_vertices)`` hop levels, ``-1`` = unreached (within the cap).
    distances: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    #: Hop cap shared by every lane; ``None`` = plain BFS to completion.
    max_hops: int | None = None

    @property
    def width(self) -> int:
        """Batch width B (number of lanes / sources)."""
        return len(self.sources)

    def distances_for(self, lane: int) -> np.ndarray:
        """The per-vertex hop levels of one lane."""
        if not 0 <= lane < self.width:
            raise IndexError(f"lane {lane} out of range [0, {self.width})")
        return self.distances[lane]

    def result_for_lane(self, lane: int) -> TraversalResult:
        """A per-source view of one lane, in the sequential result vocabulary.

        The answer arrays are the lane's own; iterations are reconstructed
        from the lane's depth (a lane from source ``s`` reaching depth ``D``
        behaves like a sequential run of ``D + 1`` super-steps); counters and
        timing are the shared batch's.
        """
        values = self.distances_for(lane)
        reached = values[values >= 0]
        depth = int(reached.max()) if reached.size else 0
        iterations = depth + 1
        if self.max_hops is not None:
            iterations = min(iterations, self.max_hops)
        base = {
            "iterations": iterations,
            "records": self.records,
            "timing": self.timing,
            "comm_stats": self.comm_stats,
            "total_edges_examined": self.total_edges_examined,
            "num_directed_edges": self.num_directed_edges,
            "wall_s": self.wall_s,
        }
        if self.max_hops is not None:
            return ReachabilityResult(
                source=int(self.sources[lane]),
                max_hops=self.max_hops,
                distances=values,
                **base,
            )
        return BFSResult(source=int(self.sources[lane]), distances=values, **base)

    def per_source_results(self) -> list:
        """One per-lane view per source, in lane order."""
        return [self.result_for_lane(lane) for lane in range(self.width)]

    @property
    def num_visited(self) -> int:
        """Total (vertex, lane) pairs reached across the batch."""
        return int(np.count_nonzero(self.distances >= 0))

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "batch_width": self.width,
                "visited": self.num_visited,
                "max_hops": self.max_hops,
            }
        )
        return base


@dataclass
class ReachabilityResult(TraversalResult):
    """K-hop reachability: distances capped at ``max_hops`` from the source."""

    algorithm: ClassVar[str] = "k-hop"
    answer_fields: ClassVar[tuple[str, ...]] = ("distances",)

    source: int = 0
    max_hops: int = 0
    distances: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def reachable(self) -> np.ndarray:
        """Boolean mask of vertices within ``max_hops`` of the source."""
        return self.distances >= 0

    @property
    def num_reached(self) -> int:
        """Number of vertices within ``max_hops`` of the source."""
        return int(np.count_nonzero(self.distances >= 0))

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "source": self.source,
                "max_hops": self.max_hops,
                "reached": self.num_reached,
            }
        )
        return base
