"""Serial direction-optimizing BFS (Beamer, Asanović, Patterson, SC'12).

The single-processor variant of the optimization the whole paper is about:
when the frontier becomes large relative to the unvisited set, switch from
top-down pushes to bottom-up pulls where every unvisited vertex scans its
parent list only until it finds one in the frontier.

The implementation mirrors the hybrid heuristic of the original paper with the
two classic parameters ``alpha`` (top-down → bottom-up when the frontier's
edge count exceeds the unexplored edge count divided by ``alpha``) and ``beta``
(bottom-up → top-down when the frontier shrinks below ``n / beta``), and it
reports the exact number of edges examined so the workload saving of DO can be
asserted in tests and quantified in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import backward_visit, forward_visit
from repro.graph.csr import CSRGraph
from repro.utils.sorting import sorted_unique

__all__ = ["DOBFSResult", "serial_dobfs"]


@dataclass
class DOBFSResult:
    """Distances and workload counters of a serial DOBFS run."""

    distances: np.ndarray
    edges_examined: int
    iterations: int
    bottom_up_iterations: int

    @property
    def depth(self) -> int:
        """Largest hop distance reached."""
        reached = self.distances[self.distances >= 0]
        return int(reached.max()) if reached.size else 0


def serial_dobfs(
    csr: CSRGraph,
    source: int,
    alpha: float = 15.0,
    beta: float = 18.0,
) -> DOBFSResult:
    """Direction-optimizing BFS over a symmetric square CSR.

    Parameters
    ----------
    csr:
        Adjacency; must be square and should be symmetric for the bottom-up
        passes to be meaningful (the same requirement the paper places on its
        input graphs).
    source:
        Start vertex.
    alpha, beta:
        The switching parameters from Beamer et al.  ``alpha`` controls the
        top-down → bottom-up switch, ``beta`` the switch back.
    """
    if csr.num_rows != csr.num_cols:
        raise ValueError("serial_dobfs requires a square adjacency")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    n = csr.num_rows
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")

    degrees = csr.out_degrees()
    distances = np.full(n, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    edges_examined = 0
    unexplored_edges = int(degrees.sum()) - int(degrees[source])
    level = 0
    bottom_up = False
    bottom_up_iterations = 0

    while frontier.size:
        level += 1
        frontier_edges = int(degrees[frontier].sum())
        if not bottom_up and frontier_edges > unexplored_edges / alpha:
            bottom_up = True
        elif bottom_up and frontier.size < n / beta:
            bottom_up = False

        if bottom_up:
            bottom_up_iterations += 1
            unvisited = np.flatnonzero(distances == -1)
            in_frontier = np.zeros(n, dtype=bool)
            in_frontier[frontier] = True
            out = backward_visit(csr, unvisited, in_frontier)
            fresh = out.discovered
        else:
            out = forward_visit(csr, frontier)
            neighbors = sorted_unique(out.discovered)
            fresh = neighbors[distances[neighbors] == -1]
        edges_examined += out.edges_examined
        distances[fresh] = level
        unexplored_edges -= int(degrees[fresh].sum())
        frontier = fresh

    return DOBFSResult(
        distances=distances,
        edges_examined=edges_examined,
        iterations=level,
        bottom_up_iterations=bottom_up_iterations,
    )
