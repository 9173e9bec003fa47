"""Analytic network/compute cost model.

The paper derives its scalability argument from closed-form communication
costs (§II-B and §V): point-to-point volume ``4|Enn|`` bytes for normal
vertices, tree-like reductions costing ``d log(prank)/4 · g`` per delegate-mask
exchange, and a ``√p`` growth for conventional 2D partitioning.  This module
turns those formulas — plus the microbenchmark observations of §VI-A1
(message-size efficiency peaking around 4 MB, CPU staging because RDMA is
unavailable) — into a reusable :class:`NetworkModel`.

The model is deliberately simple and fully documented: every method returns
seconds and takes explicit byte counts, so the benchmark harness can print the
same breakdowns the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.hardware import HardwareSpec

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Transfer-time and kernel-time formulas parameterised by a :class:`HardwareSpec`."""

    hardware: HardwareSpec = HardwareSpec()

    # ------------------------------------------------------------------ #
    # Message efficiency (paper §VI-A1)
    # ------------------------------------------------------------------ #
    def message_efficiency(self, nbytes: float) -> float:
        """Fraction of peak NIC bandwidth achieved for one message of ``nbytes``.

        The paper swept message sizes from 128 kB to 16 MB and found ~4 MB to
        be optimal for large transfers, with smaller messages benefitting from
        caching but generally achieving lower effective bandwidth.  We model
        this with a saturating curve that reaches ~63% of peak at one quarter
        of the optimal size, ≥95% at 3x the optimal size, and never drops
        below ``min_efficiency``.
        """
        hw = self.hardware
        if nbytes <= 0:
            return hw.min_efficiency
        x = nbytes / hw.optimal_message_bytes
        eff = 1.0 - math.exp(-4.0 * x)
        return max(hw.min_efficiency, min(1.0, eff))

    def effective_nic_bandwidth(self, nbytes: float) -> float:
        """Effective inter-node bandwidth (bytes/s) for one message."""
        return self.hardware.nic_bandwidth_Bps * self.message_efficiency(nbytes)

    # ------------------------------------------------------------------ #
    # Point-to-point transfers
    # ------------------------------------------------------------------ #
    def intra_node_time(self, nbytes: float) -> float:
        """GPU-to-GPU transfer within a node (over NVLink, through CPU memory)."""
        hw = self.hardware
        if nbytes <= 0:
            return 0.0
        return hw.nvlink_latency_s + nbytes / hw.nvlink_bandwidth_Bps

    def inter_node_time(self, nbytes: float) -> float:
        """GPU-to-GPU transfer between nodes.

        Includes MPI software overhead, NIC latency, message-size-dependent
        effective bandwidth and the CPU-staging copies required because Ray
        has no NIC-GPU RDMA (§VI-A2).
        """
        hw = self.hardware
        if nbytes <= 0:
            return 0.0
        staging = hw.staging_copies * (hw.nvlink_latency_s + nbytes / hw.nvlink_bandwidth_Bps)
        wire = nbytes / self.effective_nic_bandwidth(nbytes)
        return hw.mpi_message_overhead_s + hw.nic_latency_s + wire + staging

    def p2p_time(self, nbytes: float, same_rank: bool) -> float:
        """Transfer time for one message, dispatching on locality."""
        return self.intra_node_time(nbytes) if same_rank else self.inter_node_time(nbytes)

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    @staticmethod
    def _tree_depth(num_participants: int) -> int:
        """Depth of a binary reduction/broadcast tree."""
        if num_participants <= 1:
            return 0
        return int(math.ceil(math.log2(num_participants)))

    def local_reduce_time(self, nbytes: float, gpus_per_rank: int) -> float:
        """Push all peer-GPU masks to GPU0 of the rank and reduce there.

        The paper performs the local phase over NVLink: each non-root GPU
        sends its mask to GPU0, which reduces in parallel; we charge one
        NVLink transfer per peer GPU (they can overlap only partially because
        they share the link to CPU memory) plus a reduce kernel on GPU0.
        """
        if gpus_per_rank <= 1 or nbytes <= 0:
            return 0.0
        transfers = (gpus_per_rank - 1) * self.intra_node_time(nbytes)
        reduce_kernel = self.hardware.kernel_overhead_s + (
            (gpus_per_rank - 1) * nbytes / self.hardware.nvlink_bandwidth_Bps
        )
        return transfers + reduce_kernel

    def local_broadcast_time(self, nbytes: float, gpus_per_rank: int) -> float:
        """Broadcast the reduced mask from GPU0 back to the peer GPUs."""
        if gpus_per_rank <= 1 or nbytes <= 0:
            return 0.0
        return (gpus_per_rank - 1) * self.intra_node_time(nbytes)

    def global_allreduce_time(
        self, nbytes: float, num_ranks: int, blocking: bool = True
    ) -> float:
        """Tree-like inter-rank all-reduce of ``nbytes`` (the delegate masks).

        Matches the paper's model: a reduction plus a broadcast, each of depth
        ``log2(prank)``, i.e. communication time ``≈ 2 · nbytes · log2(prank) · g``
        which for a ``d``-bit mask is the quoted ``d · log(prank) / 4 · g``.
        The non-blocking variant (``MPI_Iallreduce``) carries a software
        penalty factor, reflecting the unoptimized implementation the paper
        observed on Ray (Fig. 8 shows blocking reduction being faster on ≥8
        nodes).
        """
        if num_ranks <= 1 or nbytes <= 0:
            return 0.0
        depth = self._tree_depth(num_ranks)
        per_hop = self.inter_node_time(nbytes)
        total = 2.0 * depth * per_hop
        if not blocking:
            total *= self.hardware.allreduce_software_factor
        return total

    def send_times(self, nbytes: np.ndarray, same_rank: np.ndarray) -> list[float]:
        """Serial send time of every GPU in a personalised all-to-all.

        ``nbytes[s, d]`` is the size of the message GPU ``s`` sends to GPU
        ``d`` (0 = no message) and ``same_rank[s, d]`` says whether it
        travels over NVLink.  A GPU's messages leave one after another and
        different GPUs send in parallel, so the result is, per sender, the
        sum of its messages' :meth:`p2p_time` — added left to right in
        ascending destination order.  Only messages actually sent are
        priced, each by the scalar formula: a vectorised
        ``message_efficiency`` would move the last bit of modeled times
        (``np.exp`` and ``math.exp`` disagree on a few percent of sizes).
        """
        senders, receivers = np.nonzero(nbytes)
        totals = [0.0] * len(nbytes)
        for s, size, near in zip(
            senders.tolist(),
            nbytes[senders, receivers].tolist(),
            same_rank[senders, receivers].tolist(),
        ):
            totals[s] += self.p2p_time(size, near)
        return totals

    # ------------------------------------------------------------------ #
    # Compute-side kernels
    # ------------------------------------------------------------------ #
    def traversal_time(self, edges_examined: float, backward: bool = False) -> float:
        """Time for one visit kernel examining ``edges_examined`` edges."""
        if edges_examined < 0:
            raise ValueError("edges_examined must be non-negative")
        hw = self.hardware
        rate = hw.gpu_backward_edges_per_s if backward else hw.gpu_forward_edges_per_s
        return hw.kernel_overhead_s + edges_examined / rate

    def filter_time(self, elements: float) -> float:
        """Time for a previsit/binning/conversion kernel over ``elements`` items."""
        if elements < 0:
            raise ValueError("elements must be non-negative")
        hw = self.hardware
        return hw.kernel_overhead_s + elements / hw.gpu_filter_elements_per_s

    def iteration_overhead(self) -> float:
        """Fixed per-super-step overhead."""
        return self.hardware.iteration_overhead_s
