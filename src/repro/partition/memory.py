"""Memory-usage model for the partitioned representation (paper Table I).

The paper's Table I gives the per-subgraph storage in bytes:

======  ====================  ======================
graph   row offsets           column indices
======  ====================  ======================
nn      ``n/p * 4``           ``|Enn|/p * 8``
nd      ``n/p * 4``           ``|End|/p * 4``
dn      ``d * 4``             ``|Edn|/p * 4``
dd      ``d * 4``             ``|Edd|/p * 4``
Total   ``8n + 8dp``          ``4m + 4|Enn|``
======  ====================  ======================

(The totals are summed over all ``p`` GPUs.)  With a suitable threshold the
paper reports this is about one third of the conventional 16-byte edge-list
format (``16m`` bytes) and a little more than half of an undistributed CSR
(``8n + 8m`` bytes).

:func:`memory_usage` evaluates both the analytic model (from the edge census)
and the *actual* byte counts of a built :class:`PartitionedGraph`, so the
Table I benchmark can report model vs measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.partition.delegates import EdgeCategoryCensus
from repro.partition.subgraphs import PartitionedGraph

__all__ = ["MemoryModel", "memory_usage", "analytic_memory_model"]


@dataclass(frozen=True)
class MemoryModel:
    """Byte counts for one partitioning configuration.

    All totals are summed over the whole cluster.
    """

    num_vertices: int
    num_directed_edges: int
    num_delegates: int
    num_gpus: int
    partitioned_bytes: int
    edge_list_bytes: int
    plain_csr_bytes: int

    @property
    def vs_edge_list(self) -> float:
        """Partitioned size as a fraction of the 16-byte edge-list format."""
        return self.partitioned_bytes / self.edge_list_bytes if self.edge_list_bytes else 0.0

    @property
    def vs_plain_csr(self) -> float:
        """Partitioned size as a fraction of an undistributed 64-bit CSR."""
        return self.partitioned_bytes / self.plain_csr_bytes if self.plain_csr_bytes else 0.0


def analytic_memory_model(census: EdgeCategoryCensus, num_gpus: int) -> MemoryModel:
    """Evaluate Table I's formulas from an edge-category census.

    Following the paper: per GPU the nn and nd subgraphs keep ``n/p * 4`` bytes
    of row offsets each, the dn and dd subgraphs keep ``d * 4`` bytes each;
    column indices cost 8 bytes per nn edge and 4 bytes per nd/dn/dd edge.
    Cluster-wide this comes to ``8n + 8dp + 4m + 4|Enn|`` bytes.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    n = census.num_vertices
    m = census.num_edges
    d = census.num_delegates
    partitioned = 8 * n + 8 * d * num_gpus + 4 * m + 4 * census.nn_edges
    return MemoryModel(
        num_vertices=n,
        num_directed_edges=m,
        num_delegates=d,
        num_gpus=num_gpus,
        partitioned_bytes=int(partitioned),
        edge_list_bytes=16 * m,
        plain_csr_bytes=8 * n + 8 * m,
    )


def memory_usage(partitioned: PartitionedGraph) -> tuple[MemoryModel, MemoryModel]:
    """Return (analytic, measured) memory models for a built partitioning.

    The *analytic* entry evaluates Table I's formulas; the *measured* entry
    sums the actual NumPy buffer sizes of every stored subgraph.  The two
    agree up to the per-GPU rounding of ``n/p`` and the +1 entry each CSR row
    offset array carries.
    """
    analytic = analytic_memory_model(partitioned.census, partitioned.num_gpus)
    measured = MemoryModel(
        num_vertices=partitioned.num_vertices,
        num_directed_edges=partitioned.num_directed_edges,
        num_delegates=partitioned.num_delegates,
        num_gpus=partitioned.num_gpus,
        partitioned_bytes=partitioned.total_nbytes(),
        edge_list_bytes=16 * partitioned.num_directed_edges,
        plain_csr_bytes=8 * partitioned.num_vertices + 8 * partitioned.num_directed_edges,
    )
    return analytic, measured
