"""Tests for cluster topology and the buffer-moving communicator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import Communicator
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout
from repro.utils.bitmask import BatchBitmask, Bitmask


@pytest.fixture()
def topo_2x2():
    return ClusterTopology(ClusterLayout(num_ranks=2, gpus_per_rank=2))


@pytest.fixture()
def comm_2x2(topo_2x2):
    return Communicator(topo_2x2, NetworkModel())


class TestTopology:
    def test_rank_of_gpu(self):
        topo = ClusterTopology(ClusterLayout(num_ranks=4, gpus_per_rank=2, num_nodes=2))
        np.testing.assert_array_equal(topo.rank_of_gpu(np.arange(8)), [0, 0, 1, 1, 2, 2, 3, 3])

    def test_same_rank(self):
        topo = ClusterTopology(ClusterLayout(num_ranks=4, gpus_per_rank=2, num_nodes=2))
        assert topo.same_rank(0, 1)
        assert not topo.same_rank(1, 2)
        gpus = np.arange(8)
        np.testing.assert_array_equal(
            topo.same_rank_table, topo.same_rank(gpus[:, None], gpus[None, :])
        )

    def test_staging_table(self, topo_2x2):
        # A rank's traffic for GPU d waits on its GPU with d's within-rank index.
        np.testing.assert_array_equal(
            topo_2x2.staging_table, [[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]]
        )
        # Staging never leaves the rank, and after it remote traffic flows
        # only between GPUs of equal within-rank index.
        topo = ClusterTopology(ClusterLayout(num_ranks=3, gpus_per_rank=4))
        staging, gpus = topo.staging_table, np.arange(12)
        assert topo.same_rank(gpus[:, None], staging).all()
        np.testing.assert_array_equal(staging % 4, np.broadcast_to(gpus % 4, (12, 12)))

    def test_tables_are_read_only(self, topo_2x2):
        with pytest.raises(ValueError):
            topo_2x2.staging_table[0, 0] = 3


class TestDelegateMaskReduce:
    def test_merged_mask_is_union(self, comm_2x2):
        masks = [
            Bitmask.from_indices(20, [1]),
            Bitmask.from_indices(20, [2, 3]),
            Bitmask.from_indices(20, []),
            Bitmask.from_indices(20, [3, 19]),
        ]
        result = comm_2x2.allreduce(masks)
        np.testing.assert_array_equal(result.merged.to_indices(), [1, 2, 3, 19])
        assert result.global_bytes > 0
        assert comm_2x2.stats.delegate_reductions == 1

    def test_wrong_mask_count_rejected(self, comm_2x2):
        with pytest.raises(ValueError):
            comm_2x2.allreduce([Bitmask(8)])

    def test_size_mismatch_rejected(self, comm_2x2):
        with pytest.raises(ValueError):
            comm_2x2.allreduce(
                [Bitmask(8), Bitmask(8), Bitmask(8), Bitmask(16)]
            )

    def test_single_rank_has_no_global_bytes(self):
        topo = ClusterTopology(ClusterLayout(num_ranks=1, gpus_per_rank=4))
        comm = Communicator(topo, NetworkModel())
        result = comm.allreduce([Bitmask.from_indices(8, [1])] * 4)
        assert result.global_bytes == 0
        assert result.global_time_s == 0.0
        assert result.local_time_s > 0.0

    def test_value_and_lane_updates(self, comm_2x2):
        big = np.iinfo(np.int64).max
        values = [np.array([5, big, 7]), np.array([3, 9, big]), np.full(3, big), np.full(3, big)]
        result = comm_2x2.allreduce(values, combine=np.minimum)
        np.testing.assert_array_equal(result.merged, [3, 9, 7])
        assert comm_2x2.stats.delegate_value_bytes == result.global_bytes == 2 * 24 * 2
        lanes = [BatchBitmask(3, 70) for _ in range(4)]
        lanes[1].set_lanes([2], [69])
        result = comm_2x2.allreduce(lanes)
        assert result.merged.nonzero_rows().tolist() == [2]
        # 3 rows x 70 lanes, packed: 27 bytes per update.
        assert comm_2x2.stats.delegate_mask_bytes == result.global_bytes == 2 * 27 * 2
        assert comm_2x2.stats.delegate_reductions == 2

    def test_value_size_mismatch_rejected(self, comm_2x2):
        with pytest.raises(ValueError, match="same size"):
            comm_2x2.allreduce([np.zeros(3, dtype=np.int64)] * 3 + [np.zeros(4, dtype=np.int64)])

    def test_blocking_faster_than_nonblocking(self, comm_2x2):
        masks = [Bitmask.from_indices(1 << 16, [5])] * 4
        blocking = comm_2x2.allreduce(masks, blocking=True)
        nonblocking = comm_2x2.allreduce(masks, blocking=False)
        assert nonblocking.global_time_s > blocking.global_time_s


class TestNormalExchange:
    def test_vertices_arrive_at_owner_as_local_slots(self, comm_2x2, topo_2x2):
        layout = topo_2x2.layout
        # GPU 0 discovered global vertices 0..7; they must be routed to their
        # owners and converted to local slots (v // p).
        outboxes = [np.arange(8, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * 3
        result = comm_2x2.exchange(outboxes)
        for dst in range(4):
            expected_globals = np.asarray(
                [v for v in range(8) if layout.flat_gpu_of(v) == dst], dtype=np.int64
            )
            np.testing.assert_array_equal(
                np.sort(result.inboxes[dst]), np.sort(layout.local_index_of(expected_globals))
            )

    def test_self_delivery_costs_no_remote_bytes(self, comm_2x2, topo_2x2):
        layout = topo_2x2.layout
        own = layout.owned_vertices(2, 100)[:5]
        outboxes = [np.zeros(0, dtype=np.int64)] * 4
        outboxes[2] = own
        result = comm_2x2.exchange(outboxes)
        assert result.remote_bytes == 0
        assert result.inboxes[2].size == 5

    def test_duplicates_kept_without_uniquify(self, comm_2x2):
        outboxes = [np.asarray([1, 1, 1, 1], dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * 3
        result = comm_2x2.exchange(outboxes, local_all2all=False, uniquify=False)
        total = sum(box.size for box in result.inboxes)
        assert total == 4

    def test_uniquify_removes_duplicates(self, comm_2x2):
        outboxes = [np.asarray([1, 1, 1, 1], dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * 3
        result = comm_2x2.exchange(outboxes, local_all2all=True, uniquify=True)
        total = sum(box.size for box in result.inboxes)
        assert total == 1
        assert comm_2x2.stats.normal_vertices_deduplicated == 3

    def test_local_all2all_reduces_remote_pairs(self):
        """With local-all2all, remote messages only flow between same-index GPUs."""
        layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
        topo = ClusterTopology(layout)
        rng = np.random.default_rng(0)
        outboxes = [rng.integers(0, 1000, size=200).astype(np.int64) for _ in range(4)]

        plain = Communicator(topo, NetworkModel())
        plain.exchange([o.copy() for o in outboxes], local_all2all=False)
        grouped = Communicator(topo, NetworkModel())
        grouped.exchange([o.copy() for o in outboxes], local_all2all=True)
        # The same remote payload flows either way...
        assert grouped.stats.normal_bytes_remote == plain.stats.normal_bytes_remote
        # ...but local-all2all sends strictly fewer remote messages and moves
        # some bytes over NVLink instead.
        assert grouped.stats.normal_messages <= plain.stats.normal_messages
        assert grouped.stats.normal_bytes_local >= plain.stats.normal_bytes_local

    def test_delivery_identical_with_and_without_local_all2all(self):
        layout = ClusterLayout(num_ranks=3, gpus_per_rank=2)
        topo = ClusterTopology(layout)
        rng = np.random.default_rng(1)
        outboxes = [rng.integers(0, 500, size=100).astype(np.int64) for _ in range(6)]
        a = Communicator(topo, NetworkModel()).exchange(
            [o.copy() for o in outboxes], local_all2all=False
        )
        b = Communicator(topo, NetworkModel()).exchange(
            [o.copy() for o in outboxes], local_all2all=True
        )
        for x, y in zip(a.inboxes, b.inboxes):
            np.testing.assert_array_equal(np.sort(x), np.sort(y))

    def test_wrong_outbox_count_rejected(self, comm_2x2):
        with pytest.raises(ValueError):
            comm_2x2.exchange([np.zeros(0, dtype=np.int64)] * 3)

    def test_stats_accumulate_bytes(self, comm_2x2):
        outboxes = [np.arange(50, dtype=np.int64) for _ in range(4)]
        comm_2x2.exchange(outboxes)
        stats = comm_2x2.stats.as_dict()
        assert stats["normal_vertices_sent"] > 0
        assert stats["normal_bytes_remote"] > 0
