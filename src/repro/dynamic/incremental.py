"""Incremental traversal maintenance: repair answers instead of recomputing.

An edge insertion can only *improve* monotone traversal answers — BFS hop
levels can only shrink, connected-component labels can only decrease — and
only downstream of the inserted edge's endpoints.  The maintainers here
exploit that: each keeps the last full answer, and on an applied delta seeds
a **repair frontier** with exactly the vertices whose value the new edges
improve, then resumes the :class:`repro.core.engine.TraversalEngine`
super-step loop from those seeds (the engine's resumable-from-frontier entry
point) under label-correcting ``accept`` semantics.  The repaired answer is
**bit-identical** to a from-scratch run on the mutated graph — both converge
to the same unique fixpoint (true hop distances; minimum component labels) —
while examining orders of magnitude fewer edges when the delta is small.

Deletions can make answers *worse*, which monotone repair cannot express, so
deltas carrying effective deletions fall back to a full recompute (the graph
itself has already compacted the deletion away; see
:class:`repro.dynamic.DynamicGraph`).

:class:`MaintainedLevels`, :class:`MaintainedComponents` and
:class:`MaintainedSSSP` wrap the maintained programs; all count repairs,
recomputes, skipped no-op deltas and the modeled/examined work of every
maintenance traversal, which is what the ``dyn-*`` bench scenarios record
for the incremental-vs-recompute comparison.  The SSSP maintainer extends
the same monotone argument to weighted distances: an inserted edge
``(u, v, w)`` can only improve ``dist[v]`` to ``dist[u] + w``, so the
repair seeds are the endpoints the insertion actually improved and the
repair traversal is the delta-stepping driver resumed from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.programs.base import FrontierProgram, ProgramInit, VisitContext
from repro.core.programs.bfs_levels import BFSLevels
from repro.core.programs.components import ConnectedComponents
from repro.core.results import BFSResult, TraversalResult
from repro.core.state import UNVISITED
from repro.dynamic.delta import AppliedDelta
from repro.dynamic.graph import DynamicEngine
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.sorting import sorted_unique
from repro.weighted.sssp import DeltaSteppingSSSP

__all__ = [
    "seeded_init",
    "LevelRepair",
    "ComponentsRepair",
    "SSSPRepair",
    "MaintenanceStats",
    "MaintainedLevels",
    "MaintainedComponents",
    "MaintainedSSSP",
]

_MAXI = np.int64(np.iinfo(np.int64).max)


def seeded_init(
    graph: PartitionedGraph, values: np.ndarray, frontier: np.ndarray
) -> ProgramInit:
    """Scatter a global per-vertex value array into engine-ready state.

    ``values`` is a length-``n`` int64 array (``-1`` = unset) and
    ``frontier`` the global vertex ids forming the resume frontier.  The
    values land on whichever side (local normal slot or replicated delegate)
    the degree separation assigns each vertex, exactly inverting
    :meth:`repro.core.state.TraversalState.gather_values`.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (graph.num_vertices,):
        raise ValueError(
            f"values must have shape ({graph.num_vertices},), got {values.shape}"
        )
    normal_values = []
    for gpu in graph.gpus:
        vals = np.full(gpu.num_local, UNVISITED, dtype=np.int64)
        if gpu.num_local:
            owned = gpu.owned_global_ids()
            normal = gpu.local_is_normal
            vals[normal] = values[owned[normal]]
        normal_values.append(vals)
    delegate_values = values[graph.delegate_vertices].copy()

    frontier = sorted_unique(np.asarray(frontier, dtype=np.int64))
    delegate_ids = graph.delegate_id_of_vertex(frontier)
    is_delegate = delegate_ids >= 0
    delegate_frontier = delegate_ids[is_delegate]
    normals = frontier[~is_delegate]
    owners = graph.layout.flat_gpu_of(normals)
    slots = graph.layout.local_index_of(normals)
    normal_frontiers = [
        np.sort(slots[owners == g]) for g in range(graph.num_gpus)
    ]
    return ProgramInit(
        normal_values=normal_values,
        delegate_values=delegate_values,
        normal_frontiers=normal_frontiers,
        delegate_frontier=delegate_frontier,
    )


class LevelRepair(FrontierProgram):
    """Label-correcting BFS repair: resume from improved seeds, only improve.

    Unlike :class:`BFSLevels` (visit-once, level = super-step number), repair
    levels are *not* step numbers — a seed at hop 7 pushes 8 at repair step 1
    — so the program carries the level as an 8-byte payload on the exchange
    and a 64-bit min-reduction on the delegate channel, with monotone
    ``proposed < current`` acceptance.  Backward-pull direction optimization
    is off: pulls assume any frontier parent is final, which label
    correcting breaks.
    """

    name = "bfs-repair"
    payload_exchange = True
    delegate_channel = "values"
    direction_optimized_ok = False

    def __init__(self, source: int, values: np.ndarray, frontier: np.ndarray) -> None:
        self.source = int(source)
        self._values = values
        self._frontier = frontier

    def init_state(self, graph: PartitionedGraph) -> ProgramInit:
        return seeded_init(graph, self._values, self._frontier)

    def visit_value(self, ctx: VisitContext) -> np.ndarray:
        if ctx.source_values is None:
            raise RuntimeError(
                "LevelRepair needs source levels; the engine must run it with "
                "payload support"
            )
        return ctx.source_values + 1

    def accept(self, current: np.ndarray, proposed: np.ndarray) -> np.ndarray:
        return (current == UNVISITED) | (proposed < current)

    def make_result(self, values: np.ndarray, base: dict) -> BFSResult:
        return BFSResult(source=self.source, distances=values, **base)


class ComponentsRepair(ConnectedComponents):
    """Min-label repair: resume label propagation from re-labelled seeds."""

    name = "components-repair"

    def __init__(self, values: np.ndarray, frontier: np.ndarray) -> None:
        self._values = values
        self._frontier = frontier

    def init_state(self, graph: PartitionedGraph) -> ProgramInit:
        return seeded_init(graph, self._values, self._frontier)


class SSSPRepair(DeltaSteppingSSSP):
    """Delta-stepping repair: resume the bucketed relaxation from seeds.

    The delta-stepping driver is already label-correcting (any vertex whose
    tentative distance improves re-enters the pending set), so repair needs
    no new acceptance semantics — only a seeded initial state.  The values
    are distance *bit patterns* (see :mod:`repro.weighted.sssp`); the
    ``UNVISITED`` convention matches the engine's, so :func:`seeded_init`
    scatters them unchanged.
    """

    name = "sssp-repair"

    def __init__(
        self,
        source: int,
        delta: float | str,
        values: np.ndarray,
        frontier: np.ndarray,
    ) -> None:
        super().__init__(source, delta=delta)
        self._values = values
        self._frontier = frontier

    def init_state(self, graph: PartitionedGraph) -> ProgramInit:
        return seeded_init(graph, self._values, self._frontier)


@dataclass
class MaintenanceStats:
    """Cumulative work accounting of one maintainer."""

    #: Applied deltas answered by a bounded repair traversal.
    repairs: int = 0
    #: Applied deltas answered by a full from-scratch recompute.
    recomputes: int = 0
    #: Applied deltas that improved nothing (answer kept as-is).
    skipped: int = 0
    #: Edges examined by repair traversals.
    repair_edges: int = 0
    #: Super-steps run by repair traversals.
    repair_iterations: int = 0
    #: Modeled milliseconds of repair traversals.
    repair_modeled_ms: float = 0.0
    #: Edges examined by full recomputes (the initial run included).
    recompute_edges: int = 0
    #: Modeled milliseconds of full recomputes (the initial run included).
    recompute_modeled_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "repairs": self.repairs,
            "recomputes": self.recomputes,
            "skipped": self.skipped,
            "repair_edges": self.repair_edges,
            "repair_iterations": self.repair_iterations,
            "repair_modeled_ms": self.repair_modeled_ms,
            "recompute_edges": self.recompute_edges,
            "recompute_modeled_ms": self.recompute_modeled_ms,
        }


class _Maintainer:
    """Shared machinery of the two maintained programs."""

    def __init__(self, engine: DynamicEngine) -> None:
        self.engine = engine
        self.stats = MaintenanceStats()
        self.result: TraversalResult = self._count_recompute(self._full_run())
        self.version = engine.graph_version

    # -- hooks ---------------------------------------------------------- #
    def _full_run(self) -> TraversalResult:
        raise NotImplementedError

    def _seed(self, applied: AppliedDelta):
        """Return ``(new_values, frontier)`` or ``None`` when nothing improves."""
        raise NotImplementedError

    def _repair_program(self, values: np.ndarray, frontier: np.ndarray):
        raise NotImplementedError

    @property
    def values(self) -> np.ndarray:
        """The maintained per-vertex answer array."""
        raise NotImplementedError

    # -- maintenance ---------------------------------------------------- #
    def _count_recompute(self, result: TraversalResult) -> TraversalResult:
        self.stats.recomputes += 1
        self.stats.recompute_edges += int(result.total_edges_examined)
        self.stats.recompute_modeled_ms += float(result.timing.elapsed_ms)
        return result

    def update(self, applied: AppliedDelta) -> TraversalResult:
        """Bring the answer up to date with one applied delta.

        Insert-only deltas run a bounded repair from the improved seeds;
        deltas with effective deletions — and deltas applied out of order
        (the graph moved more than one version since the last update) —
        fall back to a full recompute.  Returns the current result either
        way; it is always bit-identical to a from-scratch run.
        """
        if applied.num_deletes or applied.version != self.version + 1:
            self.result = self._count_recompute(self._full_run())
        else:
            seeds = self._seed(applied)
            if seeds is None:
                self.stats.skipped += 1
            else:
                values, frontier = seeds
                result = self.engine.run(self._repair_program(values, frontier))
                self.stats.repairs += 1
                self.stats.repair_edges += int(result.total_edges_examined)
                self.stats.repair_iterations += int(result.iterations)
                self.stats.repair_modeled_ms += float(result.timing.elapsed_ms)
                self.result = result
        self.version = applied.version
        return self.result

    def verify(self) -> TraversalResult:
        """Recompute from scratch and assert the maintained answer matches."""
        fresh = self._full_run()
        if not np.array_equal(self.values, self._values_of(fresh)):
            mismatches = int(np.count_nonzero(self.values != self._values_of(fresh)))
            raise AssertionError(
                f"maintained {self.result.algorithm} answer diverged from the "
                f"from-scratch run on {mismatches} vertices"
            )
        return fresh

    @staticmethod
    def _values_of(result: TraversalResult) -> np.ndarray:
        raise NotImplementedError


class MaintainedLevels(_Maintainer):
    """BFS hop levels from one source, repaired across edge insertions."""

    def __init__(self, engine: DynamicEngine, source: int) -> None:
        self.source = int(source)
        super().__init__(engine)

    def _full_run(self) -> TraversalResult:
        return self.engine.run(BFSLevels(source=self.source))

    @property
    def values(self) -> np.ndarray:
        return self.result.distances

    @staticmethod
    def _values_of(result: TraversalResult) -> np.ndarray:
        return result.distances

    def _seed(self, applied: AppliedDelta):
        dist = self.result.distances
        du = dist[applied.insert_src]
        ok = du >= 0
        if not np.any(ok):
            return None
        current = np.where(dist >= 0, dist, _MAXI)
        proposed = current.copy()
        np.minimum.at(proposed, applied.insert_dst[ok], du[ok] + 1)
        changed = np.flatnonzero(proposed < current)
        if changed.size == 0:
            return None
        values = dist.copy()
        values[changed] = proposed[changed]
        return values, changed

    def _repair_program(self, values: np.ndarray, frontier: np.ndarray):
        return LevelRepair(self.source, values, frontier)


class MaintainedComponents(_Maintainer):
    """Connected-component labels, repaired across edge insertions."""

    def _full_run(self) -> TraversalResult:
        return self.engine.run(ConnectedComponents())

    @property
    def values(self) -> np.ndarray:
        return self.result.labels

    @staticmethod
    def _values_of(result: TraversalResult) -> np.ndarray:
        return result.labels

    def _seed(self, applied: AppliedDelta):
        labels = self.result.labels
        proposed = labels.copy()
        np.minimum.at(proposed, applied.insert_dst, labels[applied.insert_src])
        changed = np.flatnonzero(proposed < labels)
        if changed.size == 0:
            return None
        values = labels.copy()
        values[changed] = proposed[changed]
        return values, changed

    def _repair_program(self, values: np.ndarray, frontier: np.ndarray):
        return ComponentsRepair(values, frontier)


class MaintainedSSSP(_Maintainer):
    """Shortest-path distances from one source, repaired across insertions.

    The maintained values are the int64 distance *bit patterns* of
    :class:`repro.weighted.SSSPResult` — the same encoding the engine folds
    — so seeding, repair and verification all compare exactly, and the
    repaired answer is bit-identical to a from-scratch delta-stepping run
    on the mutated graph.  Requires a weighted dynamic graph; deltas with
    effective deletions recompute, as for the other maintainers.
    """

    def __init__(
        self, engine: DynamicEngine, source: int, delta: float | str = "auto"
    ) -> None:
        self.source = int(source)
        self.delta = delta
        super().__init__(engine)

    def _full_run(self) -> TraversalResult:
        return self.engine.run(DeltaSteppingSSSP(self.source, delta=self.delta))

    @property
    def values(self) -> np.ndarray:
        return self.result.dist_bits

    @staticmethod
    def _values_of(result: TraversalResult) -> np.ndarray:
        return result.dist_bits

    def _seed(self, applied: AppliedDelta):
        bits = self.result.dist_bits
        weights = applied.insert_weights
        if weights is None:  # pragma: no cover - _full_run already rejects
            raise ValueError("MaintainedSSSP needs a weighted dynamic graph")
        reached = bits != UNVISITED
        # Relax each inserted edge once in float space: unreached sources
        # propose nothing, unreached destinations sit at +inf and accept any
        # finite proposal.  Exactly the engine's fold arithmetic (float64
        # add, minimum), so the seeds match what a full run would compute.
        dist = bits.view(np.float64).copy()
        dist[~reached] = np.inf
        ok = reached[applied.insert_src]
        if not np.any(ok):
            return None
        proposed = dist.copy()
        np.minimum.at(
            proposed,
            applied.insert_dst[ok],
            dist[applied.insert_src[ok]] + weights[ok],
        )
        changed = np.flatnonzero(proposed < dist)
        if changed.size == 0:
            return None
        values = bits.copy()
        values[changed] = proposed[changed].view(np.int64)
        return values, changed

    def _repair_program(self, values: np.ndarray, frontier: np.ndarray):
        return SSSPRepair(self.source, self.delta, values, frontier)
