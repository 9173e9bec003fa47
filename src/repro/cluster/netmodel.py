"""Analytic network/compute cost model.

The paper derives its scalability argument from closed-form communication
costs (§II-B and §V): point-to-point volume ``4|Enn|`` bytes for normal
vertices, tree-like reductions costing ``d log(prank)/4 · g`` per delegate-mask
exchange, and a ``√p`` growth for conventional 2D partitioning.  This module
turns those formulas — plus the microbenchmark observations of §VI-A1
(message-size efficiency peaking around 4 MB, CPU staging because RDMA is
unavailable) — into a reusable :class:`NetworkModel`.

It is the one place the partitioned engine's modeled seconds are computed:
a super-step records what it moved in a :class:`StepBill`, and the run's
ledger prices the bill with :meth:`NetworkModel.price` when it books the step.

The model is deliberately simple and fully documented: every method returns
seconds and takes explicit byte counts, so the benchmark harness can print the
same breakdowns the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cluster.hardware import HardwareSpec

__all__ = ["NetworkModel", "StepBill", "ExchangeBill", "StepTimes", "IDLE_KERNEL"]

#: The bill term of an idle visit kernel: no edge examined, one launch paid.
IDLE_KERNEL = (0, False)


@dataclass(slots=True)
class ExchangeBill:
    """What one point-to-point exchange moved (ids, not bytes or seconds)."""

    #: Per sender, the ids its binning / 32-bit conversion filter scans.
    sizes: list
    #: Bytes one id (with its payload row) takes on the wire.
    wire: int = 0
    #: ``[s, d]``: ids ``s`` hops over NVLink to its staging GPU for ``d``
    #: (local all2all), or ``None``.
    hops: np.ndarray | None = None
    #: ``(staging GPU, ids held)`` per uniquify filter, in the order the
    #: staging GPUs first received ids for each destination, or ``None``.
    held: list | None = None
    #: ``[s, d]``: ids in the message from ``s`` to ``d``; ``None`` when no
    #: GPU sent anything.
    sent: np.ndarray | None = None


@dataclass(slots=True)
class StepBill:
    """What one super-step moved: the raw quantities, never seconds."""

    #: Per GPU, its visit kernels' ``(edges examined, backward)`` terms in
    #: launch order (an idle kernel still charged is :data:`IDLE_KERNEL`).
    kernels: list = field(default_factory=list)
    #: Per GPU, the elements its previsit filter scans; ``None``: no filter.
    filters: list | None = None
    #: Overlay edges relaxed on the coordinator after the step's kernels.
    overlay_edges: int = 0
    exchange: ExchangeBill | None = None
    #: The delegate reduce's ``(update bytes, blocking)``, or ``None``.
    reduce: tuple | None = None


class StepTimes(NamedTuple):
    """A priced :class:`StepBill`: an ``IterationRecord``'s five times."""

    computation_s: float
    local_communication_s: float
    remote_normal_exchange_s: float
    remote_delegate_reduce_s: float
    elapsed_s: float


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

    # ------------------------------------------------------------------ #
    # One super-step
    # ------------------------------------------------------------------ #
    def reduce_times(self, reduce: tuple, topology) -> tuple[float, float]:
        """``(local, remote)`` seconds of a delegate reduce billed
        ``(nbytes, blocking)``: its two intra-rank phases, and its
        (I)AllReduce over the ranks."""
        nbytes, blocking = reduce
        pgpu, ranks = topology.layout.gpus_per_rank, topology.layout.num_ranks
        local_s = self.local_reduce_time(nbytes, pgpu) + self.local_broadcast_time(nbytes, pgpu)
        return local_s, self.global_allreduce_time(nbytes, ranks, blocking=blocking)

    def price(
        self, bill: StepBill, topology, overlap_efficiency: float, reduce_prices=None
    ) -> StepTimes:
        """The modeled times of one super-step (paper §VI-B) from its bill.

        A GPU's computation is the iteration overhead, its filter and its
        kernels, added in that order; the step's is the slowest GPU's.
        Communication is the exchange's local phase plus the reduce's
        intra-rank phases, the exchange's remote phase and the reduce's
        (I)AllReduce; an ``overlap_efficiency`` share of the shorter of
        computation and communication is hidden behind the other.  Overlay
        edges, a serial side-structure, are added after the overlap.

        ``reduce_prices``, a dict kept for one ``topology``, memoises
        :meth:`reduce_times` by the reduce's bill: every step of a run
        reduces the same bytes.
        """
        overhead = self.hardware.iteration_overhead_s
        traversal_time, filter_time = self.traversal_time, self.filter_time
        idle_s = traversal_time(0)
        filters = bill.filters
        computation_s = 0.0
        for g, terms in enumerate(bill.kernels):
            comp = overhead if filters is None else overhead + filter_time(filters[g])
            for edges, backward in terms:
                # No edge costs the launch overhead in either direction.
                comp += traversal_time(edges, backward) if edges else idle_s
            if comp > computation_s:
                computation_s = comp

        local_comm_s = remote_normal_s = remote_delegate_s = 0.0
        exchange = bill.exchange
        if exchange is not None:
            # A GPU's sends are serial and GPUs send in parallel, so each
            # phase costs its slowest GPU: every sender's binning filter, its
            # L hops and its U filters locally, its messages remotely.
            filter_s = [filter_time(size) for size in exchange.sizes]
            local_comm_s = max(filter_s)
            if exchange.sent is not None:
                local_s = [0.0] * len(filter_s)
                if exchange.hops is not None:
                    # An L hop never leaves its sender's rank: one NVLink
                    # send each, added per sender in ascending destination
                    # order, as send_times adds.
                    hop_bytes = exchange.hops * exchange.wire
                    senders, owners = np.nonzero(hop_bytes)
                    for sender, size in zip(senders.tolist(), hop_bytes[senders, owners].tolist()):
                        local_s[sender] += self.intra_node_time(size)
                for gpu, held in exchange.held or ():
                    local_s[gpu] += filter_time(held)
                local_comm_s = max(f + s for f, s in zip(filter_s, local_s))
                remote_normal_s = max(
                    self.send_times(exchange.sent * exchange.wire, topology.same_rank_table)
                )
        if bill.reduce is not None:
            times = None if reduce_prices is None else reduce_prices.get(bill.reduce)
            if times is None:
                times = self.reduce_times(bill.reduce, topology)
                if reduce_prices is not None:
                    reduce_prices[bill.reduce] = times
            local_comm_s += times[0]
            remote_delegate_s = times[1]
        comm_total = local_comm_s + remote_normal_s + remote_delegate_s
        overlap = overlap_efficiency * min(computation_s, comm_total)
        elapsed_s = computation_s + comm_total - overlap
        if bill.overlay_edges:
            extra = traversal_time(bill.overlay_edges)
            computation_s += extra
            elapsed_s += extra
        return StepTimes(
            computation_s, local_comm_s, remote_normal_s, remote_delegate_s, elapsed_s
        )
