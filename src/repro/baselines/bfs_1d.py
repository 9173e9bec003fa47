"""Distributed BFS over a conventional 1D partitioning (baseline, §II-B).

Every GPU owns a hash-interleaved slice of the vertices and all their outgoing
edges.  A super-step expands the local frontier and sends every discovered
neighbour to its owner as a 64-bit global id — there is no degree separation,
so *all* cross-GPU discoveries travel point-to-point, and a direction-
optimized variant would have to broadcast the frontier to every peer (the
paper's ``8m`` bytes argument).  This implementation:

* produces exact hop distances (validated against the serial oracle), and
* accounts the communication volume and modeled time of the plain forward
  variant, plus the analytic volume a DO variant would have needed, so the
  comparison benchmarks can show why the paper rejects this design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.partition.partition_1d import OneDPartition
from repro.utils.sorting import sorted_unique

__all__ = ["OneDBFSResult", "OneDBFS"]


@dataclass
class OneDBFSResult:
    """Distances plus communication accounting of a 1D-partitioned BFS run."""

    distances: np.ndarray
    iterations: int
    edges_examined: int
    remote_bytes: int
    modeled_comm_s: float
    modeled_comp_s: float

    @property
    def elapsed_s(self) -> float:
        """Modeled elapsed time (no overlap assumed for the baseline)."""
        return self.modeled_comm_s + self.modeled_comp_s


class OneDBFS:
    """Forward-push BFS over a :class:`OneDPartition`."""

    def __init__(
        self,
        partition: OneDPartition,
        hardware: HardwareSpec | None = None,
    ) -> None:
        self.partition = partition
        self.hardware = hardware if hardware is not None else HardwareSpec()
        self.netmodel = NetworkModel(self.hardware)
        self.topology = ClusterTopology(partition.layout)

    def run(self, source: int) -> OneDBFSResult:
        """Run BFS from ``source`` and return distances plus accounting."""
        part = self.partition
        layout = part.layout
        p = layout.num_gpus
        n = part.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range [0, {n})")

        # Per-GPU levels over local slots.
        levels = [
            np.full(layout.num_local_vertices(g, n), -1, dtype=np.int64) for g in range(p)
        ]
        frontiers = [np.zeros(0, dtype=np.int64) for _ in range(p)]
        owner0 = int(layout.flat_gpu_of(source))
        slot0 = int(layout.local_index_of(source))
        levels[owner0][slot0] = 0
        frontiers[owner0] = np.asarray([slot0], dtype=np.int64)

        edges_examined = 0
        remote_bytes = 0
        comm_s = 0.0
        comp_s = 0.0
        level = 0

        while any(f.size for f in frontiers):
            level += 1
            outboxes: list[np.ndarray] = []
            per_gpu_comp = np.zeros(p, dtype=np.float64)
            for g in range(p):
                frontier = frontiers[g]
                if frontier.size == 0:
                    outboxes.append(np.zeros(0, dtype=np.int64))
                    per_gpu_comp[g] = self.netmodel.iteration_overhead()
                    continue
                _, neighbors = part.adjacency[g].gather_neighbors(frontier)
                neighbors = np.asarray(neighbors, dtype=np.int64)
                edges_examined += int(neighbors.size)
                per_gpu_comp[g] = (
                    self.netmodel.iteration_overhead()
                    + self.netmodel.traversal_time(neighbors.size, backward=False)
                    + self.netmodel.filter_time(neighbors.size)
                )
                outboxes.append(neighbors)

            # Exchange: every discovered vertex travels to its owner as a
            # 64-bit id (no degree separation, no 32-bit conversion), one
            # message per (sender, owner) pair priced like the 2D exchange.
            targets = np.concatenate(outboxes)
            owners = layout.flat_gpu_of(targets)
            senders = np.repeat(np.arange(p), [out.size for out in outboxes])
            sent = np.bincount(senders * p + owners, minlength=p * p).reshape(p, p)
            np.fill_diagonal(sent, 0)
            remote_bytes += int(sent.sum()) * 8
            per_gpu_send = self.netmodel.send_times(sent * 8, self.topology.same_rank_table)
            order = np.argsort(owners, kind="stable")
            inboxes = np.split(targets[order], np.cumsum(np.bincount(owners, minlength=p))[:-1])

            for g in range(p):
                if inboxes[g].size:
                    received = sorted_unique(inboxes[g])
                    slots = layout.local_index_of(received)
                    fresh = slots[levels[g][slots] == -1]
                    levels[g][fresh] = level
                    frontiers[g] = fresh
                else:
                    frontiers[g] = np.zeros(0, dtype=np.int64)

            comp_s += float(per_gpu_comp.max())
            comm_s += max(per_gpu_send)

        distances = np.full(n, -1, dtype=np.int64)
        for g in range(p):
            owned = layout.owned_vertices(g, n)
            visited = levels[g] != -1
            distances[owned[visited]] = levels[g][visited]
        return OneDBFSResult(
            distances=distances,
            iterations=level,
            edges_examined=edges_examined,
            remote_bytes=remote_bytes,
            modeled_comm_s=comm_s,
            modeled_comp_s=comp_s,
        )

    def dobfs_broadcast_bytes(self) -> int:
        """Analytic volume a direction-optimized 1D BFS would communicate.

        The paper's §II-B: backward-pull on a 1D partition requires
        broadcasting newly visited vertices to every peer holding their
        neighbours, which in practice means ``8m`` bytes over a full run.
        """
        return 8 * self.partition.num_directed_edges
