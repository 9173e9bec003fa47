"""Tests for the hardware spec, the analytic network model and step pricing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.comm import Communicator
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import IDLE_KERNEL, ExchangeBill, NetworkModel, StepBill
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout


class TestHardwareSpec:
    def test_defaults_describe_ray(self):
        hw = HardwareSpec()
        assert hw.nvlink_bandwidth_Bps == pytest.approx(40e9)
        assert hw.nic_bandwidth_Bps == pytest.approx(12.5e9)
        assert hw.staging_copies == 2  # no NIC-GPU RDMA on Ray

    def test_inverse_bandwidth_g(self):
        hw = HardwareSpec()
        assert hw.inverse_bandwidth_g == pytest.approx(1.0 / 12.5e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec(gpu_forward_edges_per_s=0)
        with pytest.raises(ValueError):
            HardwareSpec(nic_latency_s=-1)
        with pytest.raises(ValueError):
            HardwareSpec(min_efficiency=0.0)
        with pytest.raises(ValueError):
            HardwareSpec(allreduce_software_factor=0.5)
        with pytest.raises(ValueError):
            HardwareSpec(staging_copies=-1)

    def test_replace_builds_hypothetical_machines(self):
        hw = replace(HardwareSpec(), staging_copies=0)
        assert hw.staging_copies == 0


class TestMessageEfficiency:
    def test_efficiency_grows_with_message_size(self):
        model = NetworkModel()
        sizes = [1 << k for k in range(10, 25)]
        effs = [model.message_efficiency(s) for s in sizes]
        assert all(a <= b + 1e-12 for a, b in zip(effs, effs[1:]))

    def test_peak_near_optimal_size(self):
        """The paper's §VI-A1 sweep: ~4 MB messages reach (near) full bandwidth."""
        model = NetworkModel()
        assert model.message_efficiency(4e6) > 0.95
        assert model.message_efficiency(16e6) > 0.99
        assert model.message_efficiency(128e3) < 0.5

    def test_floor_for_tiny_messages(self):
        model = NetworkModel()
        assert model.message_efficiency(1) >= model.hardware.min_efficiency
        assert model.message_efficiency(0) == model.hardware.min_efficiency

    def test_effective_bandwidth_bounded_by_peak(self):
        model = NetworkModel()
        assert model.effective_nic_bandwidth(1 << 22) <= model.hardware.nic_bandwidth_Bps


class TestTransfers:
    def test_zero_bytes_cost_nothing(self):
        model = NetworkModel()
        assert model.intra_node_time(0) == 0.0
        assert model.inter_node_time(0) == 0.0

    def test_inter_node_slower_than_intra_node(self):
        model = NetworkModel()
        for nbytes in [1 << 12, 1 << 20, 1 << 24]:
            assert model.inter_node_time(nbytes) > model.intra_node_time(nbytes)

    def test_p2p_dispatches_on_locality(self):
        model = NetworkModel()
        assert model.p2p_time(1 << 20, same_rank=True) == model.intra_node_time(1 << 20)
        assert model.p2p_time(1 << 20, same_rank=False) == model.inter_node_time(1 << 20)

    def test_staging_copies_increase_cost(self):
        with_staging = NetworkModel(HardwareSpec(staging_copies=2))
        rdma = NetworkModel(HardwareSpec(staging_copies=0))
        assert with_staging.inter_node_time(1 << 22) > rdma.inter_node_time(1 << 22)

    def test_time_scales_roughly_linearly_for_large_messages(self):
        model = NetworkModel()
        t1 = model.inter_node_time(8e6)
        t2 = model.inter_node_time(16e6)
        assert 1.8 < t2 / t1 < 2.2


class TestCollectivesAndKernels:
    def test_allreduce_zero_for_single_rank(self):
        model = NetworkModel()
        assert model.global_allreduce_time(1 << 20, num_ranks=1) == 0.0

    def test_allreduce_grows_logarithmically(self):
        model = NetworkModel()
        t2 = model.global_allreduce_time(1 << 20, 2)
        t4 = model.global_allreduce_time(1 << 20, 4)
        t16 = model.global_allreduce_time(1 << 20, 16)
        assert t4 == pytest.approx(2 * t2)
        assert t16 == pytest.approx(4 * t2)

    def test_nonblocking_reduce_penalty(self):
        """Fig. 8: blocking reduction is faster on Ray's unoptimized Iallreduce."""
        model = NetworkModel()
        blocking = model.global_allreduce_time(1 << 20, 8, blocking=True)
        nonblocking = model.global_allreduce_time(1 << 20, 8, blocking=False)
        assert nonblocking > blocking

    def test_local_reduce_zero_for_single_gpu_rank(self):
        model = NetworkModel()
        assert model.local_reduce_time(1 << 20, gpus_per_rank=1) == 0.0
        assert model.local_broadcast_time(1 << 20, gpus_per_rank=1) == 0.0

    def test_local_reduce_grows_with_gpus(self):
        model = NetworkModel()
        assert model.local_reduce_time(1 << 20, 4) > model.local_reduce_time(1 << 20, 2)

    def test_traversal_time_uses_direction_rate(self):
        model = NetworkModel()
        fwd = model.traversal_time(1_000_000, backward=False)
        bwd = model.traversal_time(1_000_000, backward=True)
        assert bwd < fwd

    def test_traversal_and_filter_reject_negative(self):
        model = NetworkModel()
        with pytest.raises(ValueError):
            model.traversal_time(-1)
        with pytest.raises(ValueError):
            model.filter_time(-1)

    def test_kernel_overhead_floor(self):
        model = NetworkModel()
        assert model.traversal_time(0) == pytest.approx(model.hardware.kernel_overhead_s)

    def test_send_times_sum_each_senders_messages(self):
        model = NetworkModel()
        nbytes = np.array([[0, 1000, 3000], [0, 0, 0], [7, 0, 0]])
        near = np.array([[True, True, False], [True, True, False], [False, False, True]])
        times = model.send_times(nbytes, near)
        assert times == [
            model.intra_node_time(1000) + model.inter_node_time(3000),
            0.0,
            model.inter_node_time(7),
        ]


class TestPrice:
    """:meth:`NetworkModel.price` against the documented formulas, on
    hand-built bills."""

    TOPOLOGY = ClusterTopology(ClusterLayout.from_notation("2x1x2"))

    def test_idle_kernel_costs_its_launch(self):
        model = NetworkModel()
        overhead = model.hardware.iteration_overhead_s
        for idle in (IDLE_KERNEL, (0, True)):
            times = model.price(StepBill([[idle]]), self.TOPOLOGY, 0.3)
            assert times.computation_s == overhead + model.traversal_time(0)
        assert model.traversal_time(0) > 0.0

    def test_gpu_computation_adds_overhead_filter_then_kernels(self):
        model = NetworkModel()
        bill = StepBill([[(40, False), IDLE_KERNEL], [(9, True)]], filters=[6, 100])
        times = model.price(bill, self.TOPOLOGY, 0.3)
        gpu0 = model.hardware.iteration_overhead_s + model.filter_time(6)
        gpu0 += model.traversal_time(40)
        gpu0 += model.traversal_time(0)
        gpu1 = model.hardware.iteration_overhead_s + model.filter_time(100)
        gpu1 += model.traversal_time(9, backward=True)
        assert times.computation_s == max(gpu0, gpu1)

    def test_no_communication_means_elapsed_is_computation(self):
        model = NetworkModel()
        bill = StepBill([[(12345, True), IDLE_KERNEL], [(7, False)]], filters=[3, 0])
        times = model.price(bill, self.TOPOLOGY, 0.7)
        assert times.computation_s > 0.0
        assert times[1:4] == (0.0, 0.0, 0.0)
        assert times.elapsed_s == times.computation_s

    def test_uniquify_filters_sum_in_first_seen_order(self):
        """The comm golden's ``disjoint`` shape: GPU 0 sends only to GPU 3 and
        GPU 1 only to GPU 1, so staging GPU 1 receives ids for destination 3
        before destination 1, and its filters are billed — and summed — in
        that order."""
        layout = self.TOPOLOGY.layout
        to_3 = layout.global_from_local(3, np.array([0, 1, 2, 0]))
        to_1 = layout.global_from_local(1, np.array([5, 6]))
        result = Communicator(self.TOPOLOGY).exchange(
            [to_3, to_1, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)],
            local_all2all=True,
            uniquify=True,
        )
        bill = result.bill
        assert bill.held == [(1, 4), (1, 2)]

        model = NetworkModel()
        times = model.price(StepBill(exchange=bill), self.TOPOLOGY, 0.0)
        same_rank = self.TOPOLOGY.same_rank_table
        local = model.send_times(
            bill.hops * bill.wire, same_rank[np.arange(4)[:, None], self.TOPOLOGY.staging_table]
        )
        local[1] += model.filter_time(4)
        local[1] += model.filter_time(2)
        assert times.local_communication_s == max(
            model.filter_time(size) + hop for size, hop in zip(bill.sizes, local)
        )
        assert times.remote_normal_exchange_s == max(
            model.send_times(bill.sent * bill.wire, same_rank)
        )

    def test_reduce(self):
        model = NetworkModel()
        for blocking in (True, False):
            times = model.price(StepBill(reduce=(4096, blocking)), self.TOPOLOGY, 0.0)
            assert times.local_communication_s == model.local_reduce_time(
                4096, 2
            ) + model.local_broadcast_time(4096, 2)
            assert times.remote_delegate_reduce_s == model.global_allreduce_time(
                4096, 2, blocking=blocking
            )

    def test_overlay_is_added_after_the_overlap(self):
        model = NetworkModel()
        exchange = ExchangeBill([3, 0, 0, 0], wire=4, sent=np.array(
            [[0, 0, 3, 0], [0] * 4, [0] * 4, [0] * 4]
        ))
        plain = StepBill([[(100, False)]] * 4, filters=[10] * 4, exchange=exchange)
        overlaid = StepBill(
            [[(100, False)]] * 4, filters=[10] * 4, exchange=exchange, overlay_edges=50
        )
        base = model.price(plain, self.TOPOLOGY, 0.5)
        times = model.price(overlaid, self.TOPOLOGY, 0.5)
        extra = model.traversal_time(50)
        comm = base.local_communication_s + base.remote_normal_exchange_s
        assert 0.0 < comm and base.elapsed_s < base.computation_s + comm
        assert times.computation_s == base.computation_s + extra
        assert times.elapsed_s == base.elapsed_s + extra
        assert times[1:4] == base[1:4]
