"""Correctness and behaviour tests for the distributed BFS engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial_bfs import serial_bfs
from repro.core.engine import DistributedBFS
from repro.core.options import BFSOptions
from repro.graph.csr import CSRGraph
from repro.graph.degree import out_degrees
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.validate.graph500 import validate_distances


@pytest.fixture(scope="module")
def rmat_csr_ref(request):
    return None


def reference_distances(edges, source):
    return serial_bfs(CSRGraph.from_edgelist(edges), source)


class TestCorrectnessAcrossConfigurations:
    @pytest.mark.parametrize("threshold", [4, 32, 10**9])
    @pytest.mark.parametrize("do", [True, False])
    def test_matches_serial_oracle(self, rmat_small, any_layout, threshold, do):
        graph = build_partitions(rmat_small, any_layout, threshold)
        engine = DistributedBFS(graph, options=BFSOptions(direction_optimized=do))
        for source in [0, 7, 1234]:
            result = engine.run(source)
            ref = reference_distances(rmat_small, source)
            np.testing.assert_array_equal(result.distances, ref)

    def test_exchange_optimizations_do_not_change_answers(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        base = DistributedBFS(graph, options=BFSOptions()).run(3)
        tuned = DistributedBFS(
            graph,
            options=BFSOptions(local_all2all=True, uniquify=True, blocking_reduce=False),
        ).run(3)
        np.testing.assert_array_equal(base.distances, tuned.distances)

    def test_delegate_source(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        source = int(graph.delegate_vertices[0])
        result = DistributedBFS(graph).run(source)
        np.testing.assert_array_equal(result.distances, reference_distances(rmat_small, source))

    def test_isolated_source_terminates_after_one_iteration(self, rmat_small, small_layout):
        deg = out_degrees(rmat_small)
        isolated = np.flatnonzero(deg == 0)
        if isolated.size == 0:
            pytest.skip("fixture graph has no isolated vertices")
        graph = build_partitions(rmat_small, small_layout, 32)
        result = DistributedBFS(graph).run(int(isolated[0]))
        assert result.num_visited == 1
        assert result.iterations <= 1
        assert not result.traversed_more_than_one_iteration()

    def test_star_graph_two_levels(self, star_graph):
        layout = ClusterLayout(2, 2)
        graph = build_partitions(star_graph, layout, threshold=5)
        result = DistributedBFS(graph).run(0)
        assert result.depth == 1 if out_degrees(star_graph)[0] > 0 else 0
        np.testing.assert_array_equal(result.distances, reference_distances(star_graph, 0))

    def test_path_graph_long_diameter(self, path_graph):
        layout = ClusterLayout(2, 2)
        graph = build_partitions(path_graph, layout, threshold=4)
        result = DistributedBFS(graph).run(0)
        np.testing.assert_array_equal(result.distances, reference_distances(path_graph, 0))
        assert result.depth == 49
        # One trailing super-step discovers nothing and terminates the run.
        assert result.iterations == result.depth + 1

    def test_grid_graph(self, grid_graph, small_layout):
        graph = build_partitions(grid_graph, small_layout, threshold=3)
        result = DistributedBFS(graph).run(0)
        np.testing.assert_array_equal(result.distances, reference_distances(grid_graph, 0))

    def test_validates_against_graph500_rules(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = DistributedBFS(graph).run(42)
        report = validate_distances(rmat_small, 42, result.distances)
        report.raise_if_invalid()

    def test_out_of_range_source_rejected(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        with pytest.raises(ValueError):
            DistributedBFS(graph).run(rmat_small.num_vertices)


class TestResultMetrics:
    @pytest.fixture(scope="class")
    def result(self, rmat_small):
        layout = ClusterLayout(2, 2)
        graph = build_partitions(rmat_small, layout, 32)
        return DistributedBFS(graph).run(5)

    def test_iterations_equal_depth(self, result):
        assert result.iterations >= result.depth

    def test_timing_breakdown_is_positive_and_consistent(self, result):
        timing = result.timing
        assert timing.elapsed_ms > 0
        assert timing.computation > 0
        # Overlap means elapsed <= sum of parts.
        assert timing.elapsed_ms <= timing.parts_sum() + 1e-9
        assert timing.iterations == result.iterations
        assert len(result.records) == result.iterations

    def test_teps_positive_and_scales_with_counted_edges(self, result):
        assert result.gteps() > 0
        assert result.teps(1000) == pytest.approx(result.teps(2000) / 2)

    def test_records_cover_every_iteration(self, result):
        assert len(result.records) == result.iterations
        assert [r.iteration for r in result.records] == list(range(1, result.iterations + 1))

    def test_workload_accounting(self, result):
        per_kernel = result.workload_by_kernel()
        assert sum(per_kernel.values()) == result.total_edges_examined
        assert set(per_kernel) == {"nn", "nd", "dn", "dd"}

    def test_comm_stats_present(self, result):
        stats = result.comm_stats
        assert stats.delegate_reductions > 0
        assert stats.normal_vertices_sent >= 0

    def test_summary_keys(self, result):
        summary = result.summary()
        assert {"gteps", "elapsed_ms", "iterations", "visited"} <= set(summary)

    def test_zero_elapsed_teps_raises(self, result):
        from dataclasses import replace

        from repro.utils.timing import TimingBreakdown

        broken = replace(result, timing=TimingBreakdown())
        with pytest.raises(ValueError):
            broken.teps()


class TestDirectionOptimizationBehaviour:
    def test_do_reduces_examined_edges_on_rmat(self, rmat_medium):
        """The headline claim: DO cuts traversal workload on scale-free graphs."""
        layout = ClusterLayout(2, 2)
        graph = build_partitions(rmat_medium, layout, 64)
        src = int(np.argmax(out_degrees(rmat_medium)))
        plain = DistributedBFS(graph, options=BFSOptions(direction_optimized=False)).run(src)
        optimized = DistributedBFS(graph, options=BFSOptions(direction_optimized=True)).run(src)
        np.testing.assert_array_equal(plain.distances, optimized.distances)
        assert optimized.total_edges_examined < 0.7 * plain.total_edges_examined

    def test_do_switches_some_kernel_backward(self, rmat_medium):
        layout = ClusterLayout(2, 2)
        graph = build_partitions(rmat_medium, layout, 64)
        src = int(np.argmax(out_degrees(rmat_medium)))
        result = DistributedBFS(graph, options=BFSOptions()).run(src)
        backward_events = sum(
            sum(rec.directions.values()) for rec in result.records
        )
        assert backward_events > 0

    def test_plain_bfs_never_goes_backward(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = DistributedBFS(graph, options=BFSOptions(direction_optimized=False)).run(3)
        assert all(sum(rec.directions.values()) == 0 for rec in result.records)

    def test_nn_workload_unaffected_by_do(self, rmat_small, small_layout):
        """nn visits never use DO, so their total workload must be identical."""
        graph = build_partitions(rmat_small, small_layout, 32)
        plain = DistributedBFS(graph, options=BFSOptions(direction_optimized=False)).run(3)
        opt = DistributedBFS(graph, options=BFSOptions(direction_optimized=True)).run(3)
        assert plain.workload_by_kernel()["nn"] == opt.workload_by_kernel()["nn"]


class TestEngineConfigurations:
    def test_run_many(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        results = DistributedBFS(graph).run_many([0, 1, 2])
        assert len(results) == 3
        assert [r.source for r in results] == [0, 1, 2]

    def test_single_gpu_layout_has_no_remote_traffic(self, rmat_small):
        graph = build_partitions(rmat_small, ClusterLayout(1, 1), 32)
        result = DistributedBFS(graph).run(3)
        assert result.comm_stats.normal_bytes_remote == 0
        assert result.comm_stats.delegate_mask_bytes == 0
        np.testing.assert_array_equal(result.distances, reference_distances(rmat_small, 3))

    def test_no_delegate_graph_runs_pure_nn_path(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 10**9)
        result = DistributedBFS(graph).run(3)
        np.testing.assert_array_equal(result.distances, reference_distances(rmat_small, 3))
        per_kernel = result.workload_by_kernel()
        assert per_kernel["nd"] == 0 and per_kernel["dn"] == 0 and per_kernel["dd"] == 0
        assert result.comm_stats.delegate_reductions == 0

    def test_max_iterations_guard(self, path_graph):
        graph = build_partitions(path_graph, ClusterLayout(1, 2), 4)
        engine = DistributedBFS(graph, options=BFSOptions(max_iterations=5))
        with pytest.raises(RuntimeError):
            engine.run(0)

    def test_custom_hardware_changes_modeled_time_not_answers(self, rmat_small, small_layout):
        from repro.cluster.hardware import HardwareSpec

        graph = build_partitions(rmat_small, small_layout, 32)
        fast = DistributedBFS(
            graph, hardware=HardwareSpec(nic_bandwidth_Bps=100e9, staging_copies=0)
        ).run(3)
        slow = DistributedBFS(
            graph, hardware=HardwareSpec(nic_bandwidth_Bps=1e9)
        ).run(3)
        np.testing.assert_array_equal(fast.distances, slow.distances)
        assert fast.timing.elapsed_ms < slow.timing.elapsed_ms
