"""Tests for the weak/strong scaling experiment drivers."""

from __future__ import annotations

import pytest

from repro.core.options import BFSOptions
from repro.partition.layout import ClusterLayout
from repro.perfmodel.scaling import run_configuration, strong_scaling_sweep, weak_scaling_sweep


class TestRunConfiguration:
    def test_returns_aggregated_point(self):
        point = run_configuration(
            scale=11, layout=ClusterLayout(2, 2), threshold=32, num_sources=4, seed=3
        )
        assert point.num_gpus == 4
        assert point.gteps_geo_mean > 0
        assert point.elapsed_ms_geo_mean > 0
        assert point.num_sources >= 1
        assert point.threshold == 32

    def test_threshold_suggestion_used_when_none(self):
        point = run_configuration(scale=11, layout=ClusterLayout(1, 2), num_sources=3, seed=3)
        assert point.threshold > 0

    def test_do_off_is_slower_or_equal_in_computation(self):
        on = run_configuration(
            scale=12, layout=ClusterLayout(2, 2), threshold=32, num_sources=4, seed=5
        )
        off = run_configuration(
            scale=12,
            layout=ClusterLayout(2, 2),
            threshold=32,
            options=BFSOptions(direction_optimized=False),
            num_sources=4,
            seed=5,
        )
        assert on.breakdown.computation <= off.breakdown.computation


class TestSweeps:
    def test_weak_scaling_keeps_per_gpu_scale(self):
        points = weak_scaling_sweep(
            scale_per_gpu=10, gpu_counts=[1, 2, 4], gpus_per_rank=2, num_sources=3, seed=7
        )
        assert [p.num_gpus for p in points] == [1, 2, 4]
        assert [p.scale for p in points] == [10, 11, 12]

    def test_strong_scaling_fixes_scale(self):
        points = strong_scaling_sweep(
            scale=12, gpu_counts=[2, 4], gpus_per_rank=2, num_sources=3, seed=7
        )
        assert all(p.scale == 12 for p in points)
        assert [p.num_gpus for p in points] == [2, 4]

    def test_invalid_gpu_count_rejected(self):
        with pytest.raises(ValueError):
            weak_scaling_sweep(10, [0])
        with pytest.raises(ValueError):
            strong_scaling_sweep(10, [-1])
