"""Conventional 2D (edge-block) partitioning — baseline for §II-B.

In the 2D scheme of Vastenhouw & Bisseling (and most Graph500 CPU-cluster
entries), the ``p`` processors are arranged in a ``√p × √p`` grid and the
adjacency matrix is partitioned into blocks: processor ``(i, j)`` stores the
edges whose source falls in row-block ``i`` and destination in column-block
``j``.  A BFS level then takes two communication hops: a reduction along each
processor *row* (to combine partial frontiers) and a broadcast along each
*column* (to propagate the combined frontier).

The paper argues (§II-B) that this scheme's communication volume grows as
``√p`` under weak scaling, and that backward-pull DOBFS additionally wastes
work because each unvisited vertex searches for a parent in each of the ``√p``
row blocks independently.  We build a working 2D substrate here so the
baseline BFS in :mod:`repro.baselines.bfs_2d` can traverse it and expose both
effects, and so the cost model in :mod:`repro.perfmodel.costs` has a concrete
object to describe.

Vertices are mapped to row/column blocks by the same modular hash as the main
partitioner, using ``v mod r`` for the block index within a grid of ``r``
rows, so block sizes are balanced without a lookup table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.layout import ClusterLayout

__all__ = ["TwoDPartition", "partition_2d", "grid_shape_for"]


def grid_shape_for(num_gpus: int) -> tuple[int, int]:
    """Pick the most-square ``rows x cols`` grid with ``rows * cols == num_gpus``.

    The paper's analysis assumes a square grid (``√p × √p``); for GPU counts
    that are not perfect squares we use the most-square factorisation, which
    is what practical 2D implementations do.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    best = (1, num_gpus)
    for rows in range(1, int(math.isqrt(num_gpus)) + 1):
        if num_gpus % rows == 0:
            best = (rows, num_gpus // rows)
    return best


@dataclass
class TwoDPartition:
    """A 2D-partitioned graph over a ``grid_rows x grid_cols`` processor grid.

    Attributes
    ----------
    blocks:
        ``blocks[i][j]`` is the CSR block for grid position ``(i, j)``.  Rows
        of the block are the *local* indices of source vertices in row-block
        ``i`` (``v // grid_rows``), columns are local indices of destination
        vertices in column-block ``j`` (``v // grid_cols``).
    """

    layout: ClusterLayout
    grid_rows: int
    grid_cols: int
    num_vertices: int
    num_directed_edges: int
    blocks: list[list[CSRGraph]]

    def row_block_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """Row-block index of each vertex (``v mod grid_rows``)."""
        return np.asarray(vertices, dtype=np.int64) % self.grid_rows

    def row_local_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """Local index of each vertex within its row block."""
        return np.asarray(vertices, dtype=np.int64) // self.grid_rows


def partition_2d(edges: EdgeList, layout: ClusterLayout) -> TwoDPartition:
    """Partition a prepared edge list over a 2D processor grid."""
    rows, cols = grid_shape_for(layout.num_gpus)
    n = edges.num_vertices
    src_block = edges.src % rows
    dst_block = edges.dst % cols
    blocks: list[list[CSRGraph]] = []
    for i in range(rows):
        row_blocks: list[CSRGraph] = []
        num_row_local = (n - i + rows - 1) // rows if i < n else 0
        for j in range(cols):
            num_col_local = (n - j + cols - 1) // cols if j < n else 0
            sel = (src_block == i) & (dst_block == j)
            csr = CSRGraph.from_edges(
                edges.src[sel] // rows,
                edges.dst[sel] // cols,
                num_rows=num_row_local,
                num_cols=max(num_col_local, 1) if num_col_local else 0,
                column_dtype=np.int64,
            )
            row_blocks.append(csr)
        blocks.append(row_blocks)
    return TwoDPartition(
        layout=layout,
        grid_rows=rows,
        grid_cols=cols,
        num_vertices=n,
        num_directed_edges=edges.num_edges,
        blocks=blocks,
    )
