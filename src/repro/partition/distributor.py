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

from repro.graph.edgelist import EdgeList, _gather_in_place
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
    prio = _host_priority(separation)
    src_prio = prio[src]
    dst_prio = prio[dst]
    # EDGE_CATEGORIES as arithmetic: a delegate source adds 2, a delegate
    # destination 1 (nn=0, nd=1, dn=2, dd=3).
    category = (src_prio >= 0).view(np.int8) * np.int8(2)
    category += dst_prio >= 0
    # Rules 1-3 in one comparison: the endpoint of lower priority hosts the
    # edge, the source on a tie (a self loop).
    use_src = src_prio <= dst_prio
    del src_prio, dst_prio

    # Ownership is a per-vertex property: evaluate P/G once per vertex and
    # gather, instead of an int64 % and // per edge.
    owner = np.where(use_src, src, dst)
    del use_src
    _gather_in_place(layout.flat_gpu_of(np.arange(edges.num_vertices, dtype=np.int64)), owner)
    return EdgeAssignment(owner=owner, category=category, layout=layout)


def _host_priority(separation: DegreeSeparation) -> np.ndarray:
    """Per-vertex int32 priority whose smaller end hosts an edge (Algorithm 1).

    Normal vertices get ``-1``; delegates get their rank by ``(out-degree,
    id)``.  An edge ``u -> v`` goes to ``u``'s owner exactly when
    ``prio[u] <= prio[v]``: a normal source wins (rule 1), else a normal
    destination (rule 2), else the delegate of smaller out-degree, ties to
    the smaller id (rule 3).
    """
    prio = np.full(separation.num_vertices, -1, dtype=np.int32)
    delegates = separation.delegate_vertices  # ascending ids
    by_degree = np.argsort(separation.degrees[delegates], kind="stable")
    prio[delegates[by_degree]] = np.arange(delegates.size, dtype=np.int32)
    return prio
