"""Tests for the hardware spec and the analytic network model."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel


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
        import numpy as np

        model = NetworkModel()
        nbytes = np.array([[0, 1000, 3000], [0, 0, 0], [7, 0, 0]])
        near = np.array([[True, True, False], [True, True, False], [False, False, True]])
        times = model.send_times(nbytes, near)
        assert times == [
            model.intra_node_time(1000) + model.inter_node_time(3000),
            0.0,
            model.inter_node_time(7),
        ]
