"""Whole-graph statistics used for experiment reporting and sanity checks.

These are not on the BFS hot path; they use :mod:`scipy.sparse.csgraph` where
convenient and exist so that examples and experiment logs can report the same
graph characteristics the paper quotes (number of vertices/edges, isolated
vertices, number of components, approximate diameter / BFS depth).  SciPy is
optional (the ``dev`` extra): it is imported inside the two functions, so
``import repro`` never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList

__all__ = ["GraphProperties", "analyze_graph", "bfs_depth_estimate"]


@dataclass(frozen=True)
class GraphProperties:
    """Summary of a prepared graph."""

    num_vertices: int
    num_directed_edges: int
    num_isolated: int
    num_components: int
    largest_component_size: int
    max_out_degree: int
    mean_out_degree: float
    approx_diameter: int

    def as_dict(self) -> dict:
        """Return the properties as a plain dictionary."""
        return {
            "num_vertices": self.num_vertices,
            "num_directed_edges": self.num_directed_edges,
            "num_isolated": self.num_isolated,
            "num_components": self.num_components,
            "largest_component_size": self.largest_component_size,
            "max_out_degree": self.max_out_degree,
            "mean_out_degree": self.mean_out_degree,
            "approx_diameter": self.approx_diameter,
        }


def _to_scipy(edges: EdgeList):
    from scipy.sparse import csr_matrix

    data = np.ones(edges.num_edges, dtype=np.int8)
    return csr_matrix(
        (data, (edges.src, edges.dst)), shape=(edges.num_vertices, edges.num_vertices)
    )


def bfs_depth_estimate(edges: EdgeList, source: int | None = None) -> int:
    """Depth of a BFS from ``source`` (or from a max-degree vertex).

    Used as a cheap diameter proxy; the true diameter is at most twice this
    for undirected graphs.
    """
    if edges.num_vertices == 0:
        return 0
    deg = out_degrees(edges)
    if source is None:
        source = int(np.argmax(deg))
    from scipy.sparse.csgraph import breadth_first_order

    mat = _to_scipy(edges)
    order, predecessors = breadth_first_order(
        mat, i_start=source, directed=True, return_predecessors=True
    )
    # Depth = longest predecessor chain; compute by walking levels.
    levels = np.full(edges.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    for v in order[1:]:
        levels[v] = levels[predecessors[v]] + 1
    return int(levels.max())


def analyze_graph(edges: EdgeList) -> GraphProperties:
    """Compute :class:`GraphProperties` for a (typically prepared) edge list."""
    deg = out_degrees(edges)
    if edges.num_vertices == 0:
        return GraphProperties(0, 0, 0, 0, 0, 0, 0.0, 0)
    from scipy.sparse.csgraph import connected_components

    mat = _to_scipy(edges)
    n_comp, labels = connected_components(mat, directed=True, connection="weak")
    sizes = np.bincount(labels)
    return GraphProperties(
        num_vertices=edges.num_vertices,
        num_directed_edges=edges.num_edges,
        num_isolated=int(np.count_nonzero(deg == 0)),
        num_components=int(n_comp),
        largest_component_size=int(sizes.max()) if sizes.size else 0,
        max_out_degree=int(deg.max()) if deg.size else 0,
        mean_out_degree=float(deg.mean()) if deg.size else 0.0,
        approx_diameter=bfs_depth_estimate(edges),
    )
