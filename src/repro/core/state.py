"""Mutable per-run traversal state over the partitioned graph.

The state mirrors what the real implementation keeps resident on the GPUs:

* per GPU, a 64-bit *value* for every *local normal slot* — what the value
  means belongs to the running :class:`repro.core.programs.FrontierProgram`
  (hop level for BFS, parent pointer for Graph500 trees, component label for
  connected components); ``-1`` = "no value yet";
* replicated across all GPUs, the visited flags and values of the
  *delegates* (identical everywhere after every reduction, so the simulation
  stores one copy; a GPU would keep the paper's packed bit per delegate, the
  host keeps one ``bool`` each);
* the per-super-step frontiers: newly-updated local normal slots per GPU and
  newly-updated delegate ids (shared).

:class:`TraversalState` is the algorithm-agnostic container used by
:class:`repro.core.engine.TraversalEngine`; a run starts from a program's
:class:`repro.core.programs.ProgramInit` (:meth:`TraversalState.from_init`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.partition.subgraphs import PartitionedGraph
from repro.utils.sorting import sorted_unique

__all__ = ["UNVISITED", "TraversalState"]

UNVISITED = np.int64(-1)

#: accept(current_values, proposed_values) -> bool mask of updates to apply.
AcceptFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sorted_unique_ids(frontier: np.ndarray) -> np.ndarray:
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    return sorted_unique(frontier) if frontier.size > 1 else frontier


@dataclass
class TraversalState:
    """All mutable data of one traversal run (program-agnostic)."""

    graph: PartitionedGraph
    normal_values: list[np.ndarray] = field(default_factory=list)
    delegate_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    delegate_visited: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    normal_frontiers: list[np.ndarray] = field(default_factory=list)
    delegate_frontier: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @classmethod
    def from_init(cls, graph: PartitionedGraph, init) -> "TraversalState":
        """The state a run starts from: a program's (or a repair's pre-seeded)
        :class:`repro.core.programs.ProgramInit`, with the delegate visited
        flags derived from the delegate values.

        Frontiers are sorted and duplicate-free from here on — the one
        de-duplication of a run: every frontier the engine installs later is
        sorted-unique by construction, so the per-step previsit only drops
        zero-degree rows.
        """
        return cls(
            graph=graph,
            normal_values=init.normal_values,
            delegate_values=init.delegate_values,
            delegate_visited=init.delegate_values != UNVISITED,
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
        accept: AcceptFn,
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
        accept: AcceptFn,
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
        self.delegate_visited[fresh] = True
        return fresh

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
