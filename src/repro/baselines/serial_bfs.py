"""Serial level-synchronous (top-down) BFS.

This is the correctness oracle for every other traversal in the library: it is
a direct, obviously-correct frontier expansion over a single CSR.  It also
reports the classic top-down workload (every edge out of every reached vertex
is examined exactly once), which is the ``O(m)`` baseline that
direction-optimizing BFS improves on.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.utils.sorting import sorted_unique

__all__ = ["serial_bfs", "serial_bfs_edge_workload", "bfs_from_edgelist"]


def serial_bfs(csr: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` over a square CSR (``-1`` = unreachable)."""
    if csr.num_rows != csr.num_cols:
        raise ValueError("serial_bfs requires a square adjacency (num_rows == num_cols)")
    n = csr.num_rows
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")
    distances = np.full(n, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        _, neighbors = csr.gather_neighbors(frontier)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.size == 0:
            break
        neighbors = sorted_unique(neighbors)
        fresh = neighbors[distances[neighbors] == -1]
        distances[fresh] = level
        frontier = fresh
    return distances


def serial_bfs_edge_workload(csr: CSRGraph, source: int) -> tuple[np.ndarray, int]:
    """Distances plus the number of edges a top-down traversal examines.

    The workload equals the sum of out-degrees of all reached vertices, which
    is what a forward-push implementation must touch.
    """
    distances = serial_bfs(csr, source)
    reached = np.flatnonzero(distances >= 0)
    workload = csr.frontier_workload(reached)
    return distances, int(workload)


def bfs_from_edgelist(edges: EdgeList, source: int) -> np.ndarray:
    """Convenience wrapper: build a CSR from an edge list and run BFS."""
    csr = CSRGraph.from_edgelist(edges)
    return serial_bfs(csr, source)
