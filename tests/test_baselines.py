"""Tests for the serial and distributed baseline BFS implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bfs_1d import OneDBFS
from repro.baselines.bfs_2d import TwoDBFS
from repro.baselines.serial_bfs import bfs_from_edgelist, serial_bfs, serial_bfs_edge_workload
from repro.baselines.serial_dobfs import serial_dobfs
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.layout import ClusterLayout
from repro.partition.partition_1d import partition_1d
from repro.partition.partition_2d import partition_2d


class TestSerialBFS:
    def test_path_distances(self):
        edges = EdgeList(np.arange(5), np.arange(1, 6), 6).prepared(hash_seed=None)
        dist = bfs_from_edgelist(edges, 0)
        np.testing.assert_array_equal(dist, [0, 1, 2, 3, 4, 5])

    def test_unreachable_vertices(self):
        csr = CSRGraph.from_edges([0], [1], 4, 4)
        dist = serial_bfs(csr, 0)
        np.testing.assert_array_equal(dist, [0, 1, -1, -1])

    def test_against_scipy(self, rmat_small, rmat_small_csr):
        shortest_path = pytest.importorskip("scipy.sparse.csgraph").shortest_path

        dist = serial_bfs(rmat_small_csr, 11)
        sp = shortest_path(rmat_small_csr.to_scipy(), method="D", unweighted=True, indices=11)
        expected = np.where(np.isinf(sp), -1, sp).astype(np.int64)
        np.testing.assert_array_equal(dist, expected)

    def test_workload_is_sum_of_reached_degrees(self, rmat_small_csr):
        dist, workload = serial_bfs_edge_workload(rmat_small_csr, 3)
        reached = np.flatnonzero(dist >= 0)
        assert workload == int(rmat_small_csr.out_degrees()[reached].sum())

    def test_non_square_rejected(self):
        csr = CSRGraph.from_edges([0], [1], 1, 2)
        with pytest.raises(ValueError):
            serial_bfs(csr, 0)

    def test_bad_source_rejected(self, rmat_small_csr):
        with pytest.raises(ValueError):
            serial_bfs(rmat_small_csr, -1)


class TestSerialDOBFS:
    def test_matches_plain_bfs(self, rmat_small_csr):
        for source in [0, 5, 99]:
            plain = serial_bfs(rmat_small_csr, source)
            do = serial_dobfs(rmat_small_csr, source)
            np.testing.assert_array_equal(plain.astype(np.int64), do.distances)

    def test_reduces_workload_on_scale_free_graph(self, rmat_small_csr):
        source = 5
        _, topdown_workload = serial_bfs_edge_workload(rmat_small_csr, source)
        do = serial_dobfs(rmat_small_csr, source)
        assert do.bottom_up_iterations > 0
        assert do.edges_examined < 0.6 * topdown_workload

    def test_mostly_top_down_on_a_path(self):
        # A path has no dense core: the heuristic may flip briefly near the
        # tail (where few unexplored edges remain) but must spend most of the
        # traversal in top-down mode and still produce exact distances.
        edges = EdgeList(np.arange(39), np.arange(1, 40), 40).prepared(hash_seed=None)
        csr = CSRGraph.from_edgelist(edges)
        do = serial_dobfs(csr, 0)
        assert do.bottom_up_iterations < do.iterations / 2
        assert do.distances.max() == 39
        np.testing.assert_array_equal(do.distances, serial_bfs(csr, 0))

    def test_invalid_parameters(self, rmat_small_csr):
        with pytest.raises(ValueError):
            serial_dobfs(rmat_small_csr, 0, alpha=0)
        with pytest.raises(ValueError):
            serial_dobfs(rmat_small_csr, -1)
        with pytest.raises(ValueError):
            serial_dobfs(CSRGraph.from_edges([0], [1], 1, 2), 0)


class TestOneDBFS:
    @pytest.fixture(scope="class")
    def setup(self, rmat_small):
        layout = ClusterLayout(2, 2)
        partition = partition_1d(rmat_small, layout)
        return rmat_small, OneDBFS(partition)

    def test_matches_serial(self, setup, rmat_small_csr):
        edges, bfs = setup
        for source in [0, 3, 77]:
            result = bfs.run(source)
            np.testing.assert_array_equal(result.distances, serial_bfs(rmat_small_csr, source))

    def test_accounts_remote_bytes(self, setup):
        _, bfs = setup
        result = bfs.run(3)
        assert result.remote_bytes > 0
        assert result.modeled_comm_s > 0
        assert result.elapsed_s > result.modeled_comp_s

    def test_1d_communicates_more_than_degree_separated(self, rmat_small):
        """The motivation for degree separation: 1D sends every discovery as
        a 64-bit id, the paper's scheme sends only nn updates (32-bit) plus
        compact delegate masks."""
        from repro.core.engine import DistributedBFS
        from repro.partition.subgraphs import build_partitions

        layout = ClusterLayout(2, 2)
        source = 3
        one_d = OneDBFS(partition_1d(rmat_small, layout)).run(source)
        graph = build_partitions(rmat_small, layout, 32)
        ours = DistributedBFS(graph).run(source)
        ours_bytes = (
            ours.comm_stats.normal_bytes_remote + ours.comm_stats.delegate_mask_bytes
        )
        assert ours_bytes < one_d.remote_bytes

    def test_bad_source(self, setup):
        _, bfs = setup
        with pytest.raises(ValueError):
            bfs.run(-1)


class TestTwoDBFS:
    @pytest.fixture(scope="class")
    def setup(self, rmat_small):
        layout = ClusterLayout(2, 2)
        partition = partition_2d(rmat_small, layout)
        return rmat_small, TwoDBFS(partition)

    def test_matches_serial(self, setup, rmat_small_csr):
        _, bfs = setup
        for source in [0, 9, 55]:
            result = bfs.run(source)
            np.testing.assert_array_equal(result.distances, serial_bfs(rmat_small_csr, source))

    def test_communication_accounting(self, setup):
        _, bfs = setup
        result = bfs.run(9)
        assert result.broadcast_bytes > 0
        assert result.reduction_bytes > 0
        assert result.total_comm_bytes == result.broadcast_bytes + result.reduction_bytes

    def test_single_gpu_has_no_comm(self, rmat_small, rmat_small_csr):
        partition = partition_2d(rmat_small, ClusterLayout(1, 1))
        result = TwoDBFS(partition).run(3)
        assert result.total_comm_bytes == 0
        np.testing.assert_array_equal(result.distances, serial_bfs(rmat_small_csr, 3))

    def test_bad_source(self, setup):
        _, bfs = setup
        with pytest.raises(ValueError):
            bfs.run(10**9)
