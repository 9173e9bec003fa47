"""Tests for cluster topology and the buffer-moving communicator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import Communicator
from repro.cluster.netmodel import NetworkModel, StepBill
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout
from repro.utils.bitmask import BatchBitmask


@pytest.fixture()
def topo_2x2():
    return ClusterTopology(ClusterLayout(num_ranks=2, gpus_per_rank=2))


@pytest.fixture()
def comm_2x2(topo_2x2):
    return Communicator(topo_2x2)


def _price_reduce(comm, result):
    """The modeled times of a step whose only communication is ``result``."""
    return NetworkModel().price(StepBill(reduce=result.bill), comm.topology, 0.0)


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


def _ids(*ids):
    return np.asarray(ids, dtype=np.int64)


class TestDelegateMaskReduce:
    def test_merged_mask_is_union(self, comm_2x2):
        proposals = [_ids(1), _ids(3, 2, 3), None, _ids(19, 3)]
        result = comm_2x2.allreduce(proposals, 20)
        np.testing.assert_array_equal(result.ids, [1, 2, 3, 19])
        assert result.values is None
        # The dense 20-bit mask is what is billed and counted: 3 bytes.
        assert result.bill == (3, True)
        assert comm_2x2.stats.delegate_mask_bytes == 2 * 3 * 2
        assert comm_2x2.stats.delegate_reductions == 1

    def test_wrong_mask_count_rejected(self, comm_2x2):
        with pytest.raises(ValueError, match="one per GPU"):
            comm_2x2.allreduce([_ids(1)], 8)
        with pytest.raises(ValueError, match="no GPU proposed"):
            comm_2x2.allreduce([None] * 4, 8)

    @pytest.mark.parametrize("bad", [-1, 8, 1 << 40])
    @pytest.mark.parametrize("dense", [False, True])
    def test_size_mismatch_rejected(self, comm_2x2, bad, dense):
        # A proposal for a delegate outside [0, d), on both sides of the
        # dense cutoff, on the mask and the values channel.
        ids = np.arange(8) if dense else _ids(3)
        with pytest.raises(ValueError, match="out of range"):
            comm_2x2.allreduce([np.append(ids, bad), None, None, None], 8)
        with pytest.raises(ValueError, match="out of range"):
            comm_2x2.allreduce([None, (np.append(ids, bad), np.append(ids, bad)), None, None], 8)
        assert comm_2x2.stats.delegate_reductions == 0

    def test_single_rank_has_no_global_bytes(self):
        topo = ClusterTopology(ClusterLayout(num_ranks=1, gpus_per_rank=4))
        comm = Communicator(topo)
        result = comm.allreduce([_ids(1)] * 4, 8)
        assert comm.stats.delegate_mask_bytes == 0
        times = _price_reduce(comm, result)
        assert times.remote_delegate_reduce_s == 0.0
        assert times.local_communication_s > 0.0

    def test_value_and_lane_updates(self, comm_2x2):
        big = np.iinfo(np.int64).max
        values = [(_ids(0, 2), _ids(5, 7)), (_ids(0, 1), _ids(3, 9)), None, (_ids(1), _ids(big))]
        result = comm_2x2.allreduce(values, 3, combine=np.minimum, identity=big)
        np.testing.assert_array_equal(result.ids, [0, 1, 2])
        np.testing.assert_array_equal(result.values, [3, 9, 7])
        assert comm_2x2.stats.delegate_value_bytes == 2 * 24 * 2
        lanes = BatchBitmask(3, 70)
        lanes.set_lanes([2], [69])
        proposals = [None, (_ids(2), lanes.words[[2]]), None, None]
        result = comm_2x2.allreduce(proposals, 3, width=70)
        assert result.ids.tolist() == [2] and result.values.tolist() == [[0, 1 << 5]]
        # 3 rows x 70 lanes, packed: 27 bytes per update.
        assert comm_2x2.stats.delegate_mask_bytes == 2 * 27 * 2
        assert comm_2x2.stats.delegate_reductions == 2

    @pytest.mark.parametrize("size", [3, 100])
    def test_value_size_mismatch_rejected(self, comm_2x2, size):
        with pytest.raises(ValueError, match="pair up"):
            comm_2x2.allreduce([(_ids(0, 1, 2), _ids(1, 2)), None, None, None], size)

    def test_blocking_faster_than_nonblocking(self, comm_2x2):
        proposals = [_ids(5)] * 4
        blocking = comm_2x2.allreduce(proposals, 1 << 16, blocking=True)
        nonblocking = comm_2x2.allreduce(proposals, 1 << 16, blocking=False)
        assert (
            _price_reduce(comm_2x2, nonblocking).remote_delegate_reduce_s
            > _price_reduce(comm_2x2, blocking).remote_delegate_reduce_s
        )


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
        assert comm_2x2.stats.normal_bytes_remote == 0
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

        plain = Communicator(topo)
        plain.exchange([o.copy() for o in outboxes], local_all2all=False)
        grouped = Communicator(topo)
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
        a = Communicator(topo).exchange(
            [o.copy() for o in outboxes], local_all2all=False
        )
        b = Communicator(topo).exchange(
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
