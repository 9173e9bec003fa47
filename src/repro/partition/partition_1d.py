"""Conventional 1D (vertex-block) partitioning — baseline for §II-B.

In a 1D partitioning every GPU owns a contiguous-by-hash set of vertices and
*all* of their outgoing edges.  Running direction-optimized BFS on top of a 1D
partition "forces broadcasting the newly visited vertices to all the peers
that host their neighbors" (paper §II-B), which is exactly the scaling problem
degree separation avoids.  We implement it both as a working distributed BFS
substrate (:class:`OneDPartition` is consumed by
:class:`repro.baselines.bfs_1d.OneDBFS`) and as the communication-cost
baseline in :mod:`repro.perfmodel.costs`.

Vertex ownership uses the same modular rule as the main partitioner
(``owner(v) = flat_gpu_of(v)``) so comparisons isolate the effect of degree
separation rather than of a different hashing scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.layout import ClusterLayout

__all__ = ["OneDPartition", "partition_1d"]


@dataclass
class OneDPartition:
    """A 1D-partitioned graph: one CSR of owned rows per GPU.

    Attributes
    ----------
    layout:
        Cluster geometry.
    num_vertices:
        Global vertex count.
    adjacency:
        Per GPU, a CSR whose rows are the GPU's local slots (``v // p``) and
        whose columns are *global* destination ids.
    """

    layout: ClusterLayout
    num_vertices: int
    num_directed_edges: int
    adjacency: list[CSRGraph]


def partition_1d(edges: EdgeList, layout: ClusterLayout) -> OneDPartition:
    """Partition a prepared edge list 1D by source-vertex owner."""
    owner = layout.flat_gpu_of(edges.src)
    p = layout.num_gpus
    adjacency: list[CSRGraph] = []
    for g in range(p):
        sel = owner == g
        num_local = layout.num_local_vertices(g, edges.num_vertices)
        csr = CSRGraph.from_edges(
            edges.src[sel] // p,
            edges.dst[sel],
            num_rows=num_local,
            num_cols=edges.num_vertices,
            column_dtype=np.int64,
        )
        adjacency.append(csr)
    return OneDPartition(
        layout=layout,
        num_vertices=edges.num_vertices,
        num_directed_edges=edges.num_edges,
        adjacency=adjacency,
    )
