"""Hardware parameters of the simulated cluster.

The defaults describe the paper's test machine, the CORAL early-access system
*Ray* (§VI-A1):

* NVIDIA Tesla P100 GPUs — we model their effective BFS traversal throughput
  rather than raw FLOPS, calibrated so that a single simulated GPU lands in
  the regime of the paper's single-node comparison (Gunrock reaches ~31.6
  GTEPS on one P100 for a scale-24 RMAT graph with direction optimization;
  plain forward BFS throughput is several times lower).
* NVLink between the GPUs and the CPU of a socket, 40 GB/s per direction.
* One EDR InfiniBand (100 Gb/s ≈ 12.5 GB/s) NIC per socket, FatTree network.
* No GPUDirect RDMA on Ray: every MPI transfer is staged through CPU memory,
  which we charge as an extra NVLink copy on each side.

All parameters are plain floats on a frozen dataclass so experiments can build
hypothetical machines (e.g. the NVLink2-equipped full CORAL) by replacing
fields with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HardwareSpec"]


@dataclass(frozen=True)
class HardwareSpec:
    """Machine parameters used by :class:`repro.cluster.NetworkModel`.

    Attributes
    ----------
    gpu_forward_edges_per_s:
        Effective edges/second one GPU sustains in forward-push traversal of
        its local subgraphs (irregular gather + atomic updates).
    gpu_backward_edges_per_s:
        Effective edges/second in backward-pull traversal; pulls are cheaper
        per examined edge because they read a bitmask and stop at the first
        visited parent.
    gpu_filter_elements_per_s:
        Throughput of the previsit kernels (duplicate filtering, queue
        generation, binning, 64->32-bit conversion), in elements/second.
    kernel_overhead_s:
        Fixed launch/sync cost per kernel invocation.
    iteration_overhead_s:
        Fixed per-super-step cost on each GPU (stream sync, direction
        decision, bookkeeping).  The paper's WDC discussion quotes a
        per-iteration overhead of a few microseconds.
    nvlink_bandwidth_Bps:
        GPU<->CPU / GPU<->GPU bandwidth within a node, bytes/second.
    nvlink_latency_s:
        Per-transfer latency within a node.
    nic_bandwidth_Bps:
        Inter-node bandwidth per NIC, bytes/second (EDR IB = 12.5e9).
    nic_latency_s:
        Per-message inter-node latency.
    mpi_message_overhead_s:
        Software overhead per MPI message (matching, progress engine).
    staging_copies:
        Number of extra CPU-staging copies per inter-node transfer (2 on Ray:
        GPU->CPU on the sender and CPU->GPU on the receiver, because NIC-GPU
        RDMA is unavailable).
    optimal_message_bytes:
        Message size at which the network reaches peak efficiency (≈4 MB in
        the paper's sweep).
    min_efficiency:
        Network efficiency floor for very small messages.
    allreduce_software_factor:
        Multiplier (> 1) applied to non-blocking all-reduce to model the
        unoptimized ``MPI_Iallreduce`` the paper observed on Ray.
    """

    gpu_forward_edges_per_s: float = 3.0e9
    gpu_backward_edges_per_s: float = 6.0e9
    gpu_filter_elements_per_s: float = 20.0e9
    kernel_overhead_s: float = 8.0e-6
    iteration_overhead_s: float = 5.0e-6
    nvlink_bandwidth_Bps: float = 40.0e9
    nvlink_latency_s: float = 5.0e-6
    nic_bandwidth_Bps: float = 12.5e9
    nic_latency_s: float = 2.0e-6
    mpi_message_overhead_s: float = 10.0e-6
    staging_copies: int = 2
    optimal_message_bytes: float = 4.0e6
    min_efficiency: float = 0.15
    allreduce_software_factor: float = 2.5

    def __post_init__(self) -> None:
        positive_fields = (
            "gpu_forward_edges_per_s",
            "gpu_backward_edges_per_s",
            "gpu_filter_elements_per_s",
            "nvlink_bandwidth_Bps",
            "nic_bandwidth_Bps",
            "optimal_message_bytes",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        non_negative_fields = (
            "kernel_overhead_s",
            "iteration_overhead_s",
            "nvlink_latency_s",
            "nic_latency_s",
            "mpi_message_overhead_s",
        )
        for name in non_negative_fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.staging_copies < 0:
            raise ValueError("staging_copies must be non-negative")
        if not 0 < self.min_efficiency <= 1:
            raise ValueError("min_efficiency must be in (0, 1]")
        if self.allreduce_software_factor < 1:
            raise ValueError("allreduce_software_factor must be >= 1")

    @property
    def inverse_bandwidth_g(self) -> float:
        """The paper's ``g``: seconds per byte of inter-node communication."""
        return 1.0 / self.nic_bandwidth_Bps

    def with_scaled_overheads(self, factor: float) -> "HardwareSpec":
        """Return a copy with every fixed (per-message / per-kernel) overhead
        multiplied by ``factor``, leaving all bandwidths and throughputs
        unchanged.

        The paper's experiments run scale-26 subgraphs per GPU, so per-message
        latencies and kernel-launch overheads are negligible next to the
        bandwidth terms.  A laptop-scale reproduction shrinks the payloads by
        three to four orders of magnitude, which would otherwise leave every
        experiment latency-dominated — a regime the paper never operates in.
        Scaling the fixed overheads down by (roughly) the same factor as the
        workload restores the bandwidth-vs-computation balance the paper
        studies.  The scaling-figure benchmarks use this with a factor around
        ``1/4096`` (the per-GPU graph here is 2^12× smaller than the paper's).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        from dataclasses import replace

        return replace(
            self,
            kernel_overhead_s=self.kernel_overhead_s * factor,
            iteration_overhead_s=self.iteration_overhead_s * factor,
            nvlink_latency_s=self.nvlink_latency_s * factor,
            nic_latency_s=self.nic_latency_s * factor,
            mpi_message_overhead_s=self.mpi_message_overhead_s * factor,
        )
