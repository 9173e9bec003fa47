"""Mutable per-run traversal state over the partitioned graph.

The state mirrors what the real implementation keeps resident on the GPUs:

* per GPU, a 64-bit *value* for every *local normal slot* — what the value
  means belongs to the running :class:`repro.core.programs.FrontierProgram`
  (hop level for BFS, parent pointer for Graph500 trees, component label for
  connected components); ``-1`` = "no value yet";
* replicated across all GPUs, the visited bitmask and values of the
  *delegates* (identical everywhere after every reduction, so the simulation
  stores one copy);
* the per-super-step frontiers: newly-updated local normal slots per GPU and
  newly-updated delegate ids (shared).

:class:`TraversalState` is the algorithm-agnostic container used by
:class:`repro.core.engine.TraversalEngine`; :class:`BFSState` specializes it
with the level-array vocabulary of plain BFS (and keeps the seed API:
``normal_levels``, ``mark_normals``, ``gather_distances``, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.partition.subgraphs import PartitionedGraph
from repro.utils.bitmask import Bitmask
from repro.utils.sorting import sorted_unique

__all__ = ["UNVISITED", "TraversalState", "BFSState"]

UNVISITED = np.int64(-1)

#: accept(current_values, proposed_values) -> bool mask of updates to apply.
AcceptFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _visit_once(current: np.ndarray, proposed: np.ndarray) -> np.ndarray:
    return current == UNVISITED


def _sorted_unique_ids(frontier: np.ndarray) -> np.ndarray:
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    return sorted_unique(frontier) if frontier.size > 1 else frontier


@dataclass
class TraversalState:
    """All mutable data of one traversal run (program-agnostic)."""

    graph: PartitionedGraph
    normal_values: list[np.ndarray] = field(default_factory=list)
    delegate_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    delegate_visited: Bitmask = field(default_factory=lambda: Bitmask(0))
    normal_frontiers: list[np.ndarray] = field(default_factory=list)
    delegate_frontier: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @classmethod
    def empty(cls, graph: PartitionedGraph) -> "TraversalState":
        """A state with every vertex unset and empty frontiers."""
        d = graph.num_delegates
        return cls(
            graph=graph,
            normal_values=[
                np.full(gpu.num_local, UNVISITED, dtype=np.int64) for gpu in graph.gpus
            ],
            delegate_values=np.full(d, UNVISITED, dtype=np.int64),
            delegate_visited=Bitmask(d),
            normal_frontiers=[np.zeros(0, dtype=np.int64) for _ in graph.gpus],
            delegate_frontier=np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def from_init(cls, graph: PartitionedGraph, init) -> "TraversalState":
        """The state a run starts from: a program's (or a repair's pre-seeded)
        :class:`repro.core.programs.ProgramInit`, with the delegate visited
        mask derived from the delegate values.

        Frontiers are sorted and duplicate-free from here on — the one
        de-duplication of a run: every frontier the engine installs later is
        sorted-unique by construction, so the per-step previsit only drops
        zero-degree rows.
        """
        d = graph.num_delegates
        return cls(
            graph=graph,
            normal_values=init.normal_values,
            delegate_values=init.delegate_values,
            delegate_visited=Bitmask.from_indices(
                d, np.flatnonzero(init.delegate_values != UNVISITED)
            )
            if d
            else Bitmask(0),
            normal_frontiers=[_sorted_unique_ids(f) for f in init.normal_frontiers],
            delegate_frontier=_sorted_unique_ids(init.delegate_frontier),
        )

    # ------------------------------------------------------------------ #
    # Frontier bookkeeping
    # ------------------------------------------------------------------ #
    def update_normals(
        self,
        gpu: int,
        slots: np.ndarray,
        values: np.ndarray,
        accept: AcceptFn = _visit_once,
    ) -> np.ndarray:
        """Apply accepted value updates to local slots on ``gpu``.

        ``slots`` must already be deduplicated (one proposal per slot — the
        program's ``merge_remote`` hook combines duplicates).  Returns the
        slots whose value actually changed, which is what the destination-side
        filtering on a real GPU does via atomic label updates.
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if slots.size == 0:
            return slots
        current = self.normal_values[gpu]
        take = accept(current[slots], values)
        fresh = slots[take]
        current[fresh] = values[take]
        return fresh

    def update_delegates(
        self,
        delegate_ids: np.ndarray,
        values: np.ndarray,
        accept: AcceptFn = _visit_once,
    ) -> np.ndarray:
        """Apply accepted value updates to the replicated delegates.

        Returns the delegate ids whose value changed (already deduplicated
        input, as for :meth:`update_normals`).
        """
        delegate_ids = np.asarray(delegate_ids, dtype=np.int64).ravel()
        if delegate_ids.size == 0:
            return delegate_ids
        take = accept(self.delegate_values[delegate_ids], values)
        fresh = delegate_ids[take]
        self.delegate_values[fresh] = values[take]
        if fresh.size:
            self.delegate_visited.set_many(fresh)
        return fresh

    def unvisited_delegates(self) -> np.ndarray:
        """Delegate ids that never received a value."""
        return np.flatnonzero(self.delegate_values == UNVISITED).astype(np.int64)

    def frontier_empty(self) -> bool:
        """Whether both the normal and delegate frontiers are empty everywhere."""
        if self.delegate_frontier.size:
            return False
        return all(f.size == 0 for f in self.normal_frontiers)

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def gather_values(self) -> np.ndarray:
        """Assemble the global per-vertex value array (``-1`` = never set)."""
        graph = self.graph
        out = np.full(graph.num_vertices, UNVISITED, dtype=np.int64)
        for gpu_partition, values in zip(graph.gpus, self.normal_values):
            if gpu_partition.num_local == 0:
                continue
            owned = gpu_partition.owned_global_ids()
            has_value = values != UNVISITED
            out[owned[has_value]] = values[has_value]
        if graph.num_delegates:
            has_value_d = self.delegate_values != UNVISITED
            out[graph.delegate_vertices[has_value_d]] = self.delegate_values[has_value_d]
        return out

    def visited_count(self) -> int:
        """Total number of vertices holding a value so far."""
        total = int(np.count_nonzero(self.delegate_values != UNVISITED))
        for values in self.normal_values:
            total += int(np.count_nonzero(values != UNVISITED))
        return total


class BFSState(TraversalState):
    """Traversal state with the level-array vocabulary of plain BFS."""

    @classmethod
    def initialize(cls, graph: PartitionedGraph, source: int) -> "BFSState":
        """Create the state for a BFS from ``source`` (level 0)."""
        if not 0 <= source < graph.num_vertices:
            raise ValueError(
                f"source {source} out of range [0, {graph.num_vertices})"
            )
        state = cls.empty(graph)
        delegate_id = int(graph.separation.delegate_id_of[source])
        if delegate_id >= 0:
            state.delegate_values[delegate_id] = 0
            state.delegate_visited.set(delegate_id)
            state.delegate_frontier = np.asarray([delegate_id], dtype=np.int64)
        else:
            owner = int(graph.layout.flat_gpu_of(source))
            slot = int(graph.layout.local_index_of(source))
            state.normal_values[owner][slot] = 0
            state.normal_frontiers[owner] = np.asarray([slot], dtype=np.int64)
        return state

    # Level-flavoured aliases over the generic value arrays.
    @property
    def normal_levels(self) -> list[np.ndarray]:
        """Per-GPU hop levels of the local normal slots (``-1`` = unvisited)."""
        return self.normal_values

    @property
    def delegate_levels(self) -> np.ndarray:
        """Replicated hop levels of the delegates (``-1`` = unvisited)."""
        return self.delegate_values

    def mark_normals(self, gpu: int, slots: np.ndarray, level: int) -> np.ndarray:
        """Mark unvisited local slots on ``gpu`` with ``level``.

        Returns the slots that were actually new (already-visited ones are
        dropped, which is what the destination-side filtering on a real GPU
        does via atomic label updates).
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if slots.size == 0:
            return slots
        slots = sorted_unique(slots)
        return self.update_normals(
            gpu, slots, np.full(slots.size, level, dtype=np.int64)
        )

    def mark_delegates(self, delegate_ids: np.ndarray, level: int) -> np.ndarray:
        """Mark unvisited delegates with ``level`` and return the new ones."""
        delegate_ids = np.asarray(delegate_ids, dtype=np.int64).ravel()
        if delegate_ids.size == 0:
            return delegate_ids
        delegate_ids = sorted_unique(delegate_ids)
        return self.update_delegates(
            delegate_ids, np.full(delegate_ids.size, level, dtype=np.int64)
        )

    def gather_distances(self) -> np.ndarray:
        """Assemble the global hop-distance array (``-1`` = unreachable)."""
        return self.gather_values()
