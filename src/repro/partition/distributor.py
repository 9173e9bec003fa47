"""Algorithm 1: the edge distributor (paper §III-B).

Every edge of the prepared graph is assigned to exactly one GPU and one of the
four edge categories.  The rules, verbatim from Algorithm 1:

1. if the source ``u`` is normal, the edge goes to ``u``'s owner
   (``P(u), G(u)``);
2. else if the destination ``v`` is normal, the edge goes to ``v``'s owner;
3. else (both delegates) the edge goes to the owner slot computed from the
   endpoint with the *smaller* out-degree; ties broken by the smaller vertex
   id.

The consequences the paper highlights (and which the test suite verifies):

* **Simplicity** — ownership needs only modular arithmetic.
* **Symmetry** — for a symmetric input graph, every non-nn edge lands on the
  same GPU as its reverse edge, so the nd/dn/dd subgraphs on each GPU are
  locally symmetric, which is what allows per-subgraph direction optimization
  without a global traversal direction.
* **Bounded size** — destination ids of nd/dn/dd edges are bounded by ``d``
  or ``n/p``, so 32-bit local indices suffice.
* **Balance** — the number of edges per GPU is close to uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.partition.delegates import DegreeSeparation
from repro.partition.layout import ClusterLayout

__all__ = ["EdgeAssignment", "distribute_edges", "EDGE_CATEGORIES"]

#: Category codes stored in :attr:`EdgeAssignment.category`.
EDGE_CATEGORIES = {"nn": 0, "nd": 1, "dn": 2, "dd": 3}


@dataclass
class EdgeAssignment:
    """Output of the edge distributor.

    Attributes
    ----------
    owner:
        Flat GPU index assigned to each edge (length ``m``).
    category:
        Edge category code for each edge (see :data:`EDGE_CATEGORIES`).
    layout:
        The cluster layout the assignment was computed for.
    """

    owner: np.ndarray
    category: np.ndarray
    layout: ClusterLayout

    def edges_per_gpu(self) -> np.ndarray:
        """Number of edges assigned to each GPU (length ``p``)."""
        return np.bincount(self.owner, minlength=self.layout.num_gpus).astype(np.int64)


def distribute_edges(
    edges: EdgeList,
    separation: DegreeSeparation,
    layout: ClusterLayout,
) -> EdgeAssignment:
    """Run Algorithm 1 over all edges at once (fully vectorized).

    Parameters
    ----------
    edges:
        Prepared edge list (the distributor itself does not require symmetry,
        but the locality guarantees the paper relies on only hold for
        symmetric inputs).
    separation:
        Degree separation computed by
        :func:`repro.partition.delegates.separate_by_degree` on the same edge
        list.
    layout:
        Cluster geometry.

    Returns
    -------
    EdgeAssignment
        Owner GPU and category for every edge, in the input edge order.
    """
    if separation.num_vertices != edges.num_vertices:
        raise ValueError(
            "separation was computed for a different graph "
            f"({separation.num_vertices} vertices vs {edges.num_vertices})"
        )
    src, dst = edges.src, edges.dst
    deg = separation.degrees
    src_is_d = separation.is_delegate[src]
    dst_is_d = separation.is_delegate[dst]
    # EDGE_CATEGORIES as arithmetic: a delegate source adds 2, a delegate
    # destination 1 (nn=0, nd=1, dn=2, dd=3).
    category = src_is_d * np.int8(2) + dst_is_d

    # Decide, per edge, which endpoint's hash location hosts the edge.
    # Rule 1/2: normal source wins; otherwise normal destination.
    # Rule 3 (dd): endpoint with the smaller out-degree; ties -> smaller id.
    du, dv = deg[src], deg[dst]
    use_src = ~src_is_d | (dst_is_d & ((du < dv) | ((du == dv) & (src <= dst))))

    # Ownership is a per-vertex property: evaluate P/G once per vertex and
    # gather, instead of an int64 % and // per edge.
    owner_of = layout.flat_gpu_of(np.arange(edges.num_vertices, dtype=np.int64))
    owner = owner_of[np.where(use_src, src, dst)]
    return EdgeAssignment(owner=owner, category=category, layout=layout)
