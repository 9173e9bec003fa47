"""Distributed BFS over a 2D edge-block partitioning (baseline, §II-B).

The 2D scheme arranges the ``p`` processors in an ``r × c`` grid.  Vertices
are split into ``r`` row blocks and ``c`` column blocks; processor ``(i, j)``
stores the edges from row block ``i`` to column block ``j``.  One BFS
super-step performs:

1. a **column broadcast**: the owner of each frontier vertex sends it to the
   ``r`` processors in the vertex's row block's grid *column*... in practice
   every processor in a grid row needs the frontier restricted to its row
   block, which costs one broadcast over ``log c`` hops per row block;
2. **local expansion** of the stored block;
3. a **row reduction**: partial discovery lists for each column block are
   combined across the ``c`` processors of the grid row that produced them
   (``log r`` hops), after which owners mark the newly visited vertices.

The paper's complaint is that both hops scale with ``√p`` in volume under weak
scaling, and that a backward-pull pass must search for parents independently
in each of the ``√p`` row blocks.  This implementation produces exact
distances and accounts the per-iteration communication volume with the
tree-depth factors of that analysis, so the model-vs-baseline benchmarks can
plot the ``√p`` versus ``log p`` growth directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.partition.partition_2d import TwoDPartition
from repro.utils.sorting import sorted_unique

__all__ = ["TwoDBFSResult", "TwoDBFS"]


@dataclass
class TwoDBFSResult:
    """Distances plus communication accounting of a 2D-partitioned BFS run."""

    distances: np.ndarray
    iterations: int
    edges_examined: int
    broadcast_bytes: int
    reduction_bytes: int
    modeled_comm_s: float
    modeled_comp_s: float

    @property
    def total_comm_bytes(self) -> int:
        """Bytes moved by both communication hops."""
        return self.broadcast_bytes + self.reduction_bytes

    @property
    def elapsed_s(self) -> float:
        """Modeled elapsed time (no overlap assumed for the baseline)."""
        return self.modeled_comm_s + self.modeled_comp_s


class TwoDBFS:
    """Level-synchronous BFS over a :class:`TwoDPartition`."""

    def __init__(
        self,
        partition: TwoDPartition,
        hardware: HardwareSpec | None = None,
    ) -> None:
        self.partition = partition
        self.hardware = hardware if hardware is not None else HardwareSpec()
        self.netmodel = NetworkModel(self.hardware)

    def run(self, source: int) -> TwoDBFSResult:
        """Run BFS from ``source`` and return distances plus accounting."""
        part = self.partition
        n = part.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range [0, {n})")
        rows, cols = part.grid_rows, part.grid_cols
        log_rows = max(1, int(math.ceil(math.log2(rows)))) if rows > 1 else 0
        log_cols = max(1, int(math.ceil(math.log2(cols)))) if cols > 1 else 0

        distances = np.full(n, -1, dtype=np.int64)
        distances[source] = 0
        frontier = np.asarray([source], dtype=np.int64)

        edges_examined = 0
        broadcast_bytes = 0
        reduction_bytes = 0
        comm_s = 0.0
        comp_s = 0.0
        level = 0

        while frontier.size:
            level += 1
            # Hop 1: each frontier vertex is broadcast along its row block's
            # grid row (so every column's block holding its edges sees it).
            # Volume: 4 bytes per frontier vertex per hop of the broadcast tree.
            hop1 = 4 * frontier.size * max(log_cols, 1 if cols > 1 else 0)
            broadcast_bytes += hop1
            comm_s += self.netmodel.global_allreduce_time(4 * frontier.size, cols) if cols > 1 else 0.0

            frontier_row_block = part.row_block_of(frontier)
            frontier_row_local = part.row_local_of(frontier)

            discovered_parts: list[np.ndarray] = []
            per_block_comp = np.zeros((rows, cols), dtype=np.float64)
            partial_counts = 0
            for i in range(rows):
                sel = frontier_row_block == i
                if not np.any(sel):
                    continue
                local_sources = frontier_row_local[sel]
                for j in range(cols):
                    block = part.blocks[i][j]
                    if block.num_edges == 0:
                        continue
                    _, found = block.gather_neighbors(local_sources)
                    found = np.asarray(found, dtype=np.int64)
                    edges_examined += int(found.size)
                    per_block_comp[i, j] = (
                        self.netmodel.iteration_overhead()
                        + self.netmodel.traversal_time(found.size, backward=False)
                    )
                    if found.size:
                        partial_counts += int(found.size)
                        # Convert column-local ids back to global ids.
                        discovered_parts.append(found * cols + j)

            # Hop 2: partial discovery lists are reduced across each grid row
            # (log rows hops), then owners mark them.
            hop2 = 4 * partial_counts * max(log_rows, 1 if rows > 1 else 0)
            reduction_bytes += hop2
            comm_s += self.netmodel.global_allreduce_time(
                4 * max(partial_counts, 1) // max(rows, 1), rows
            ) if rows > 1 else 0.0

            comp_s += float(per_block_comp.max()) if per_block_comp.size else 0.0

            if discovered_parts:
                discovered = sorted_unique(np.concatenate(discovered_parts))
                fresh = discovered[distances[discovered] == -1]
                distances[fresh] = level
                frontier = fresh
            else:
                frontier = np.zeros(0, dtype=np.int64)

        return TwoDBFSResult(
            distances=distances,
            iterations=level,
            edges_examined=edges_examined,
            broadcast_bytes=broadcast_bytes,
            reduction_bytes=reduction_bytes,
            modeled_comm_s=comm_s,
            modeled_comp_s=comp_s,
        )
