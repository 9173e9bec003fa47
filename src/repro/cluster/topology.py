"""Cluster topology: which virtual GPUs share an MPI rank.

The cost model distinguishes two locality classes: the same MPI rank (GPUs
connected by NVLink through the same CPU socket) and everything else, which
goes through MPI over the network — including ranks that share a node, as the
paper's ``*x2x2`` runs route it.  The point-to-point exchange reads both
relations, and the local-all2all staging GPU, from p × p tables computed once
per topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.partition.layout import ClusterLayout

__all__ = ["ClusterTopology"]


@dataclass(frozen=True)
class ClusterTopology:
    """Derived locality relations for a :class:`ClusterLayout`."""

    layout: ClusterLayout

    @property
    def num_gpus(self) -> int:
        """Total GPU count."""
        return self.layout.num_gpus

    def rank_of_gpu(self, flat_gpu: int | np.ndarray) -> np.ndarray:
        """MPI rank of each flat GPU index."""
        return np.asarray(flat_gpu, dtype=np.int64) // self.layout.gpus_per_rank

    def same_rank(self, gpu_a: int | np.ndarray, gpu_b: int | np.ndarray) -> np.ndarray:
        """Whether two GPUs share an MPI rank (NVLink path)."""
        return self.rank_of_gpu(gpu_a) == self.rank_of_gpu(gpu_b)

    @cached_property
    def same_rank_table(self) -> np.ndarray:
        """``[a, b]``: whether GPUs ``a`` and ``b`` share an MPI rank."""
        gpus = np.arange(self.num_gpus)
        return _read_only(self.same_rank(gpus[:, None], gpus[None, :]))

    @cached_property
    def staging_table(self) -> np.ndarray:
        """``[src, dst]``: the GPU of ``src``'s rank with ``dst``'s within-rank
        index — where the local-all2all option stages ``src``'s traffic for
        ``dst``, so remote traffic flows only among GPU0s, among GPU1s, etc."""
        pgpu = self.layout.gpus_per_rank
        gpus = np.arange(self.num_gpus)
        return _read_only((gpus // pgpu * pgpu)[:, None] + (gpus % pgpu)[None, :])


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table
