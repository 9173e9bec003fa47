"""Incremental traversal maintenance: repair answers instead of recomputing.

An edge insertion can only *improve* monotone traversal answers — BFS hop
levels and shortest-path distances can only shrink, connected-component
labels can only decrease — and only downstream of the inserted edge's
endpoints.  :class:`Maintained` exploits that for every program-table row
with a ``maintained`` column: it keeps the last full answer, and on an
applied delta :func:`repair_seeds` relaxes the inserted edges once through
the repair program's own hooks to find exactly the vertices the insertion
improves; the :class:`repro.core.engine.TraversalEngine` then resumes from
those seeds (``engine.run(repair, init=seeded_init(...))``, the engine's
resumable-from-frontier entry point) under the repair program's
label-correcting ``accept``.  The repaired answer is **bit-identical** to a
from-scratch run on the mutated graph — both converge to the same unique
fixpoint (true hop distances, minimum component labels, exact float
distances) — while examining orders of magnitude fewer edges when the delta
is small.

The repair program is the row's own program when it is already label
correcting (components; delta-stepping SSSP, whose driver re-buckets any
improved vertex) and :class:`LevelRepair` for BFS levels, whose visit-once
program assigns step numbers rather than carrying levels.

Deletions can make answers *worse*, which monotone repair cannot express, so
deltas carrying effective deletions fall back to a full recompute (the graph
itself has already compacted the deletion away; see
:class:`repro.dynamic.DynamicGraph`).  Every maintainer counts repairs,
recomputes, skipped no-op deltas and the modeled/examined work of every
maintenance traversal in :class:`MaintenanceStats`, which is what the
``dyn-*`` bench scenarios record for the incremental-vs-recompute
comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.programs.base import FrontierProgram, ProgramInit, VisitContext
from repro.core.programs.bfs_levels import BFSLevels
from repro.core.programs.table import PROGRAM_TABLE, make_program, names_where
from repro.core.results import TraversalResult
from repro.core.state import UNVISITED
from repro.dynamic.delta import AppliedDelta
from repro.dynamic.graph import DynamicEngine
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.sorting import sorted_unique

__all__ = ["seeded_init", "repair_seeds", "LevelRepair", "MaintenanceStats", "Maintained"]


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


def repair_seeds(program: FrontierProgram, values: np.ndarray, applied: AppliedDelta):
    """Relax ``applied``'s inserted edges once through ``program``'s hooks.

    The fold the engine's overlay relaxation runs each super-step: edges
    leaving an unset vertex are dropped, the rest propose
    ``program.visit_value`` for their destinations (with the inserted
    edges' weights when the program ``needs_weights``), duplicate proposals
    combine through ``merge_remote``, and ``accept`` keeps the ones that
    beat ``values``.  Returns ``(seeded values, improved vertices)`` — the
    repair's starting answer and frontier — or ``None`` when the insertion
    improves nothing.
    """
    src = applied.insert_src
    live = values[src] != UNVISITED
    if not live.any():
        return None
    ctx = VisitContext(
        kernel="overlay",
        gpu=-1,
        level=0,
        backward=False,
        discovered=applied.insert_dst[live],
        source_ids=src[live],
        source_values=values[src[live]],
        edge_weights=applied.insert_weights[live] if program.needs_weights else None,
    )
    targets, proposed = program.merge_remote(ctx.discovered, program.visit_value(ctx))
    better = program.accept(values[targets], proposed)
    if not better.any():
        return None
    seeded = values.copy()
    seeded[targets[better]] = proposed[better]
    return seeded, targets[better]


class LevelRepair(BFSLevels):
    """Label-correcting BFS repair: resume from improved seeds, only improve.

    Unlike :class:`BFSLevels` (visit-once, level = super-step number), repair
    levels are *not* step numbers — a seed at hop 7 pushes 8 at repair step 1
    — so the program carries the level as an 8-byte payload on the exchange
    and a 64-bit min-reduction on the delegate channel, with monotone
    ``proposed < current`` acceptance.  Backward-pull direction optimization
    is off: pulls assume any frontier parent is final, which label
    correcting breaks.
    """

    payload_exchange = True
    delegate_channel = "values"
    direction_optimized_ok = False

    def visit_value(self, ctx: VisitContext) -> np.ndarray:
        if ctx.source_values is None:
            raise RuntimeError(
                "LevelRepair needs source levels; the engine must run it with "
                "payload support"
            )
        return ctx.source_values + 1

    def accept(self, current: np.ndarray, proposed: np.ndarray) -> np.ndarray:
        return (current == UNVISITED) | (proposed < current)


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
        return asdict(self)


class Maintained:
    """Program-table row ``name``'s answer, kept current across deltas.

    The full run is ``make_program(name, source, **params)``, the maintained
    array is its result's first ``answer_fields`` entry, and a repair runs
    the row's ``maintained`` program (built from the full run's parameters)
    from the seeds :func:`repair_seeds` computes.
    """

    def __init__(
        self, engine: DynamicEngine, name: str, source: int | None = None, **params
    ) -> None:
        self.engine = engine
        self.program = make_program(name, source, **params)
        row = PROGRAM_TABLE[name]
        if row.maintained is None:
            raise ValueError(
                f"program {name!r} has no maintained form; expected one of "
                f"{names_where('maintained')}"
            )
        self.repair = row.repair_cls(**vars(self.program))
        self.stats = MaintenanceStats()
        self.result: TraversalResult = self._recompute()
        self.version = engine.graph_version

    @property
    def values(self) -> np.ndarray:
        """The maintained per-vertex answer array."""
        return getattr(self.result, self.result.answer_fields[0])

    def _recompute(self) -> TraversalResult:
        result = self.engine.run(self.program)
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
            self.result = self._recompute()
        else:
            seeds = repair_seeds(self.repair, self.values, applied)
            if seeds is None:
                self.stats.skipped += 1
            else:
                init = seeded_init(self.engine.graph, *seeds)
                result = self.engine.run(self.repair, init=init)
                self.stats.repairs += 1
                self.stats.repair_edges += int(result.total_edges_examined)
                self.stats.repair_iterations += int(result.iterations)
                self.stats.repair_modeled_ms += float(result.timing.elapsed_ms)
                self.result = result
        self.version = applied.version
        return self.result

    def verify(self) -> TraversalResult:
        """Recompute from scratch and assert the maintained answer matches."""
        fresh = self.engine.run(self.program)
        expected = getattr(fresh, fresh.answer_fields[0])
        if not np.array_equal(self.values, expected):
            mismatches = int(np.count_nonzero(self.values != expected))
            raise AssertionError(
                f"maintained {self.result.algorithm} answer diverged from the "
                f"from-scratch run on {mismatches} vertices"
            )
        return fresh
