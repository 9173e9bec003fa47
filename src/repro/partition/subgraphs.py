"""Per-GPU subgraph construction (paper §III-B/C and Figure 2).

After degree separation and edge distribution, each GPU holds four CSR
subgraphs:

====  =======================  ============================  =================
name  rows (sources)           columns (destinations)        column id space
====  =======================  ============================  =================
nn    local normal vertices    normal vertices anywhere      **global** 64-bit
nd    local normal vertices    delegates (replicated)        delegate id 32-bit
dn    delegates (replicated)   local normal vertices         local slot 32-bit
dd    delegates (replicated)   delegates (replicated)        delegate id 32-bit
====  =======================  ============================  =================

Local normal vertices are addressed by their *local slot* ``v // p`` (see
:class:`repro.partition.layout.ClusterLayout`), so all bounded id spaces fit
comfortably in 32 bits — the property that gives the paper its memory savings
(Table I).

For direction optimization each GPU also keeps:

* the **source list of the nd subgraph** (local normal vertices with at least
  one edge to a delegate) — these are the only possible destinations of dn
  edges, so a backward-pull dn visit iterates over exactly this list;
* **source masks for the dd and dn subgraphs** (delegates with at least one
  dd / dn edge) — a backward-pull dd or nd visit iterates over unvisited
  delegates restricted to the corresponding mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.delegates import (
    DegreeSeparation,
    EdgeCategoryCensus,
    census_edge_categories,
    separate_by_degree,
)
from repro.partition.distributor import EDGE_CATEGORIES, EdgeAssignment, distribute_edges
from repro.partition.layout import ClusterLayout

__all__ = ["GPUPartition", "PartitionedGraph", "build_partitions"]


@dataclass
class GPUPartition:
    """All graph data resident on one virtual GPU.

    Attributes
    ----------
    flat_gpu:
        Flat GPU index in ``[0, p)``.
    num_local:
        Number of local vertex slots on this GPU (``ceil``-divided share of
        the vertex universe; slots whose global vertex is a delegate exist but
        carry no nn/nd rows with edges and are never marked through the
        normal-vertex path).
    local_is_normal:
        Boolean per local slot: whether the slot's global vertex is a normal
        vertex (as opposed to a delegate whose slot is unused).
    nn, nd, dn, dd:
        The four CSR subgraphs described in the module docstring.
    nd_source_list:
        Local slots with at least one nd edge (sorted).
    dn_source_mask, dd_source_mask:
        Boolean arrays over delegate ids: delegates with at least one dn / dd
        edge on this GPU.
    """

    flat_gpu: int
    layout: ClusterLayout
    num_local: int
    num_delegates: int
    local_is_normal: np.ndarray
    nn: CSRGraph
    nd: CSRGraph
    dn: CSRGraph
    dd: CSRGraph
    nd_source_list: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    dn_source_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    dd_source_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    # ------------------------------------------------------------------ #
    # Identity / conversion helpers
    # ------------------------------------------------------------------ #
    def global_ids_of_locals(self, local_slots: np.ndarray) -> np.ndarray:
        """Map local slots on this GPU to global vertex ids."""
        return self.layout.global_from_local(self.flat_gpu, local_slots)

    def owned_global_ids(self) -> np.ndarray:
        """Global ids of every local slot, in slot order."""
        return self.layout.global_from_local(
            self.flat_gpu, np.arange(self.num_local, dtype=np.int64)
        )

    @property
    def num_edges(self) -> int:
        """Total edges stored on this GPU across the four subgraphs."""
        return self.nn.num_edges + self.nd.num_edges + self.dn.num_edges + self.dd.num_edges

    def subgraph_nbytes(self) -> dict[str, int]:
        """Byte sizes of the four stored subgraphs (Table I accounting)."""
        return {
            "nn": self.nn.nbytes(),
            "nd": self.nd.nbytes(),
            "dn": self.dn.nbytes(),
            "dd": self.dd.nbytes(),
        }

    def nbytes(self) -> int:
        """Total bytes of the four subgraphs on this GPU."""
        return int(sum(self.subgraph_nbytes().values()))


@dataclass
class PartitionedGraph:
    """A graph partitioned across a virtual GPU cluster with degree separation.

    This is the object handed to :class:`repro.core.engine.DistributedBFS`.
    """

    layout: ClusterLayout
    threshold: int
    num_vertices: int
    num_directed_edges: int
    separation: DegreeSeparation
    census: EdgeCategoryCensus
    gpus: list[GPUPartition]
    #: Backing storage of the subgraph arrays: ``"memory"`` (plain ndarrays),
    #: ``"mmap"`` (views into a store's ``graph.bin``) or ``"compressed"``
    #: (mmap views with varint nn/nd columns).  See :mod:`repro.storage`.
    storage: str = "memory"
    #: Store directory for mmap/compressed graphs, ``None`` for memory.
    storage_path: str | None = None

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_gpus(self) -> int:
        """Number of GPUs the graph is partitioned over."""
        return self.layout.num_gpus

    @property
    def is_weighted(self) -> bool:
        """``True`` when the partitioned subgraphs carry per-edge weights."""
        return bool(self.gpus) and self.gpus[0].nn.edge_weights is not None

    @property
    def num_delegates(self) -> int:
        """Number of delegate vertices ``d``."""
        return self.separation.num_delegates

    @property
    def delegate_vertices(self) -> np.ndarray:
        """Global vertex ids of the delegates, indexed by delegate id."""
        return self.separation.delegate_vertices

    def delegate_id_of_vertex(self, vertices: np.ndarray | int) -> np.ndarray:
        """Delegate id of each given global vertex (-1 for normal vertices)."""
        return self.separation.delegate_id_of[np.asarray(vertices, dtype=np.int64)]

    def owner_of_vertex(self, vertices: np.ndarray | int) -> np.ndarray:
        """Flat GPU index owning each given global vertex id."""
        return self.layout.flat_gpu_of(vertices)

    def total_stored_edges(self) -> int:
        """Sum of edges stored across all GPUs (equals the input edge count)."""
        return int(sum(g.num_edges for g in self.gpus))

    def total_nbytes(self) -> int:
        """Total graph storage across the cluster in bytes."""
        return int(sum(g.nbytes() for g in self.gpus))

    def edges_per_gpu(self) -> np.ndarray:
        """Stored edge count per GPU."""
        return np.asarray([g.num_edges for g in self.gpus], dtype=np.int64)


def _quadrant_shape(key: str, num_vertices: int, num_delegates: int, num_local: int):
    """``(num_rows, num_cols, column dtype)`` of one GPU's ``key`` subgraph."""
    rows = num_local if key[0] == "n" else num_delegates
    if key == "nn":
        return rows, num_vertices, np.dtype(np.int64)
    return rows, (num_local if key[1] == "n" else num_delegates), np.dtype(np.int32)


def _quadrant_ids(
    key: str,
    src: np.ndarray,
    dst: np.ndarray,
    local_index: np.ndarray,
    delegate_id_of: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column ids of ``key`` edges given by global endpoints.

    ``local_index`` and ``delegate_id_of`` are per-vertex tables: a normal
    endpoint maps to its local slot ``v // p``, a delegate endpoint to its
    delegate id; nn columns stay global.  Every map is monotone, which is what
    lets the streaming build (:mod:`repro.storage.extsort`) append sorted keys
    straight into CSR order.
    """
    rows = (local_index if key[0] == "n" else delegate_id_of)[src]
    if key == "nn":
        return rows, dst
    return rows, (local_index if key[1] == "n" else delegate_id_of)[dst]


def _quadrant_groups(assignment: EdgeAssignment) -> dict[tuple[int, str], np.ndarray]:
    """Edge positions of every ``(gpu, category key)`` group, in input order.

    One stable sort of the small integer code ``owner * 4 + category`` (a
    radix sort for up to 16 k GPUs) replaces a boolean mask over all edges
    per group.
    """
    num_groups = 4 * assignment.layout.num_gpus
    code_dtype = np.min_scalar_type(num_groups)
    code = assignment.owner.astype(code_dtype) * 4 + assignment.category.astype(code_dtype)
    order = np.argsort(code, kind="stable")
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=num_groups), out=bounds[1:])
    return {
        (g, key): order[bounds[4 * g + c] : bounds[4 * g + c + 1]]
        for g in range(assignment.layout.num_gpus)
        for key, c in EDGE_CATEGORIES.items()
    }


def _build_gpu_partition(
    flat_gpu: int,
    layout: ClusterLayout,
    edges: EdgeList,
    separation: DegreeSeparation,
    groups: dict[tuple[int, str], np.ndarray],
    local_index: np.ndarray,
) -> GPUPartition:
    """Construct the four subgraphs for one GPU from the grouped assignment."""
    n = edges.num_vertices
    d = separation.num_delegates
    num_local = layout.num_local_vertices(flat_gpu, n)
    owned_globals = layout.owned_vertices(flat_gpu, n)
    local_is_normal = ~separation.is_delegate[owned_globals] if num_local else np.zeros(0, dtype=bool)

    csrs = {}
    for key in EDGE_CATEGORIES:
        picked = groups[flat_gpu, key]
        num_rows, num_cols, dtype = _quadrant_shape(key, n, d, num_local)
        if key != "nn" and not d:
            csrs[key] = CSRGraph.empty(num_rows, num_cols, column_dtype=dtype)
            continue
        rows, cols = _quadrant_ids(
            key, edges.src[picked], edges.dst[picked], local_index, separation.delegate_id_of
        )
        csrs[key] = CSRGraph.from_edges(
            rows, cols, num_rows=num_rows, num_cols=num_cols, column_dtype=dtype,
            weights=edges.weights[picked] if edges.weights is not None else None,
        )

    return GPUPartition(
        flat_gpu=flat_gpu,
        layout=layout,
        num_local=num_local,
        num_delegates=d,
        local_is_normal=local_is_normal,
        **csrs,
        nd_source_list=np.flatnonzero(csrs["nd"].out_degrees() > 0).astype(np.int64),
        dn_source_mask=csrs["dn"].out_degrees() > 0,
        dd_source_mask=csrs["dd"].out_degrees() > 0,
    )


def build_partitions(
    edges: EdgeList,
    layout: ClusterLayout,
    threshold: int,
    separation: DegreeSeparation | None = None,
) -> PartitionedGraph:
    """Partition a prepared graph across the virtual cluster.

    Parameters
    ----------
    edges:
        Prepared (symmetric, deduplicated) edge list.  Symmetry is what makes
        the nd/dn/dd subgraphs locally symmetric and DOBFS correct without a
        global traversal direction; the function does not enforce it, but
        :class:`repro.core.engine.DistributedBFS` assumes it when DO is on.
    layout:
        Cluster geometry (``prank``, ``pgpu``).
    threshold:
        Degree threshold ``TH``.
    separation:
        Optional precomputed degree separation (must match ``threshold``).

    Returns
    -------
    PartitionedGraph
    """
    if separation is None:
        separation = separate_by_degree(edges, threshold)
    elif separation.threshold != threshold:
        raise ValueError(
            f"provided separation used TH={separation.threshold}, expected {threshold}"
        )
    assignment = distribute_edges(edges, separation, layout)
    census = census_edge_categories(edges, separation)
    groups = _quadrant_groups(assignment)
    local_index = layout.local_index_of(np.arange(edges.num_vertices, dtype=np.int64))
    gpus = [
        _build_gpu_partition(g, layout, edges, separation, groups, local_index)
        for g in range(layout.num_gpus)
    ]
    return PartitionedGraph(
        layout=layout,
        threshold=int(threshold),
        num_vertices=edges.num_vertices,
        num_directed_edges=edges.num_edges,
        separation=separation,
        census=census,
        gpus=gpus,
    )
