"""Cluster layout and vertex ownership arithmetic.

The paper distributes vertices (and through them, edges) with two nested
modular functions (Algorithm 1):

* ``P(v) = v mod prank`` — which MPI rank owns vertex ``v``;
* ``G(v) = (v / prank) mod pgpu`` — which GPU within that rank.

With ``p = prank * pgpu`` GPUs total, the vertices owned by a given
(rank, gpu) pair are exactly ``{v : v ≡ rank + prank*gpu (mod p)}``, so the
*local index* of a vertex on its owner is simply ``v // p``.  This property is
what makes the distributor "simple: the location of an edge can be easily
computed from its index locally without table lookup or remote query", and it
is also what bounds the local id range so 32-bit indices suffice.

:class:`ClusterLayout` encapsulates that arithmetic, plus the flat-GPU-id
convention used throughout the library (``flat = rank * pgpu + gpu``, i.e.
node-major) and the paper's ``nodes × ranks-per-node × gpus-per-rank``
hardware notation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterLayout"]


@dataclass(frozen=True)
class ClusterLayout:
    """Geometry of the (virtual) GPU cluster.

    Parameters
    ----------
    num_ranks:
        ``prank`` — number of MPI ranks.
    gpus_per_rank:
        ``pgpu`` — GPUs per MPI rank.
    num_nodes:
        Number of physical nodes, used only for reporting in the paper's
        ``nodes × ranks × gpus`` notation; defaults to ``num_ranks`` (one rank
        per node, the common configuration in the paper).
    """

    num_ranks: int
    gpus_per_rank: int
    num_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {self.num_ranks}")
        if self.gpus_per_rank < 1:
            raise ValueError(f"gpus_per_rank must be >= 1, got {self.gpus_per_rank}")
        if self.num_nodes is not None:
            if self.num_nodes < 1:
                raise ValueError("num_nodes must be >= 1")
            if self.num_ranks % self.num_nodes != 0:
                raise ValueError(
                    f"num_ranks={self.num_ranks} must be divisible by num_nodes={self.num_nodes}"
                )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_gpus(self) -> int:
        """``p = prank * pgpu`` — total number of GPUs."""
        return self.num_ranks * self.gpus_per_rank

    @property
    def nodes(self) -> int:
        """Number of nodes (defaults to one rank per node)."""
        return self.num_nodes if self.num_nodes is not None else self.num_ranks

    @property
    def ranks_per_node(self) -> int:
        """MPI ranks per node."""
        return self.num_ranks // self.nodes

    def notation(self) -> str:
        """The paper's ``nodes × ranks-per-node × gpus-per-rank`` string."""
        return f"{self.nodes}x{self.ranks_per_node}x{self.gpus_per_rank}"

    @classmethod
    def from_notation(cls, text: "str | ClusterLayout") -> "ClusterLayout":
        """Parse a ``AxBxC`` hardware string (e.g. ``"4x2x2"``); a layout
        passes through unchanged."""
        if isinstance(text, cls):
            return text
        parts = text.lower().replace("×", "x").split("x")
        if len(parts) != 3:
            raise ValueError(f"expected 'nodes x ranks x gpus', got {text!r}")
        nodes, ranks_per_node, gpus = (int(p) for p in parts)
        return cls(
            num_ranks=nodes * ranks_per_node,
            gpus_per_rank=gpus,
            num_nodes=nodes,
        )

    # ------------------------------------------------------------------ #
    # Ownership arithmetic (Algorithm 1's P and G)
    # ------------------------------------------------------------------ #
    def rank_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """``P(v) = v mod prank``."""
        return np.asarray(vertices, dtype=np.int64) % self.num_ranks

    def gpu_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """``G(v) = (v / prank) mod pgpu``."""
        return (np.asarray(vertices, dtype=np.int64) // self.num_ranks) % self.gpus_per_rank

    def flat_gpu_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """Flat GPU index ``rank * pgpu + gpu`` of each vertex's owner."""
        v = np.asarray(vertices, dtype=np.int64)
        return (v % self.num_ranks) * self.gpus_per_rank + (v // self.num_ranks) % self.gpus_per_rank

    def local_index_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """Local (per-owner) index of each vertex: ``v // p``."""
        return np.asarray(vertices, dtype=np.int64) // self.num_gpus

    def rank_gpu_of_flat(self, flat_gpu: int) -> tuple[int, int]:
        """Decompose a flat GPU index into (rank, gpu-within-rank)."""
        if not 0 <= flat_gpu < self.num_gpus:
            raise ValueError(f"flat GPU index {flat_gpu} out of range [0, {self.num_gpus})")
        return flat_gpu // self.gpus_per_rank, flat_gpu % self.gpus_per_rank

    def vertex_offset_of_flat(self, flat_gpu: int) -> int:
        """Smallest global vertex id owned by this GPU: ``rank + prank * gpu``."""
        rank, gpu = self.rank_gpu_of_flat(flat_gpu)
        return rank + self.num_ranks * gpu

    def global_from_local(self, flat_gpu: int, local: np.ndarray | int) -> np.ndarray:
        """Map local indices on ``flat_gpu`` back to global vertex ids."""
        offset = self.vertex_offset_of_flat(flat_gpu)
        return np.asarray(local, dtype=np.int64) * self.num_gpus + offset

    def num_local_vertices(self, flat_gpu: int, num_vertices: int) -> int:
        """Number of global vertex ids owned by ``flat_gpu`` for an n-vertex graph."""
        offset = self.vertex_offset_of_flat(flat_gpu)
        if offset >= num_vertices:
            return 0
        return (num_vertices - offset + self.num_gpus - 1) // self.num_gpus

    def max_local_vertices(self, num_vertices: int) -> int:
        """Largest per-GPU local vertex count (``ceil(n / p)``)."""
        return (num_vertices + self.num_gpus - 1) // self.num_gpus

    def owned_vertices(self, flat_gpu: int, num_vertices: int) -> np.ndarray:
        """All global vertex ids owned by ``flat_gpu``, in local-index order."""
        offset = self.vertex_offset_of_flat(flat_gpu)
        return np.arange(offset, num_vertices, self.num_gpus, dtype=np.int64)
