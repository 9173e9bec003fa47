"""Tests for the baseline 1D and 2D partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.layout import ClusterLayout
from repro.partition.partition_1d import partition_1d
from repro.partition.partition_2d import grid_shape_for, partition_2d


class TestOneD:
    def test_edges_conserved(self, rmat_small, small_layout):
        part = partition_1d(rmat_small, small_layout)
        assert sum(csr.num_edges for csr in part.adjacency) == rmat_small.num_edges

    def test_rows_follow_ownership(self, rmat_small, small_layout):
        part = partition_1d(rmat_small, small_layout)
        owner = small_layout.flat_gpu_of(rmat_small.src)
        for g in range(small_layout.num_gpus):
            assert part.adjacency[g].num_edges == int(np.count_nonzero(owner == g))

    def test_reconstruction(self, rmat_small, small_layout):
        part = partition_1d(rmat_small, small_layout)
        recovered = set()
        for g in range(small_layout.num_gpus):
            owned = small_layout.owned_vertices(g, rmat_small.num_vertices)
            csr = part.adjacency[g]
            s, d = csr.gather_neighbors(np.arange(csr.num_rows))
            for u, v in zip(owned[s], np.asarray(d, dtype=np.int64)):
                recovered.add((int(u), int(v)))
        expected = {(int(u), int(v)) for u, v in zip(rmat_small.src, rmat_small.dst)}
        assert recovered == expected

    def test_balance_on_scale_free_graph(self, rmat_small):
        layout = ClusterLayout(4, 2)
        part = partition_1d(rmat_small, layout)
        per_gpu = np.asarray([csr.num_edges for csr in part.adjacency])
        # 1D by hashed vertex is reasonably balanced but a single high-degree
        # hub can skew it; just assert nothing is empty and nothing holds more
        # than half the edges.
        assert per_gpu.min() > 0
        assert per_gpu.max() < rmat_small.num_edges // 2


class TestGridShape:
    def test_perfect_squares(self):
        assert grid_shape_for(16) == (4, 4)
        assert grid_shape_for(1) == (1, 1)

    def test_non_squares_most_square_factorisation(self):
        assert grid_shape_for(8) == (2, 4)
        assert grid_shape_for(12) == (3, 4)
        assert grid_shape_for(7) == (1, 7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_shape_for(0)


class TestTwoD:
    def test_edges_conserved(self, rmat_small, small_layout):
        part = partition_2d(rmat_small, small_layout)
        assert sum(block.num_edges for row in part.blocks for block in row) == rmat_small.num_edges

    def test_block_membership(self, rmat_small):
        layout = ClusterLayout(4, 1)
        part = partition_2d(rmat_small, layout)
        # Every edge must sit in the block addressed by (src % rows, dst % cols).
        src_block = rmat_small.src % part.grid_rows
        dst_block = rmat_small.dst % part.grid_cols
        for i in range(part.grid_rows):
            for j in range(part.grid_cols):
                expected = int(np.count_nonzero((src_block == i) & (dst_block == j)))
                assert part.blocks[i][j].num_edges == expected

    def test_local_index_round_trip(self, rmat_small, small_layout):
        part = partition_2d(rmat_small, small_layout)
        v = np.arange(rmat_small.num_vertices)
        rb, rl = part.row_block_of(v), part.row_local_of(v)
        np.testing.assert_array_equal(rl * part.grid_rows + rb, v)
