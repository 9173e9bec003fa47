"""Tests for Algorithm 1 (the edge distributor) and its guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EdgeList
from repro.graph.rmat import generate_rmat
from repro.partition.delegates import separate_by_degree
from repro.partition.distributor import EDGE_CATEGORIES, distribute_edges
from repro.partition.layout import ClusterLayout


def _make(edges, threshold, layout):
    sep = separate_by_degree(edges, threshold)
    return sep, distribute_edges(edges, sep, layout)


class TestAlgorithmRules:
    def test_normal_source_goes_to_source_owner(self, rmat_small, small_layout):
        sep, assignment = _make(rmat_small, 32, small_layout)
        nn_or_nd = ~sep.is_delegate[rmat_small.src]
        expected = small_layout.flat_gpu_of(rmat_small.src[nn_or_nd])
        np.testing.assert_array_equal(assignment.owner[nn_or_nd], expected)

    def test_dn_edges_go_to_destination_owner(self, rmat_small, small_layout):
        sep, assignment = _make(rmat_small, 32, small_layout)
        dn = sep.is_delegate[rmat_small.src] & ~sep.is_delegate[rmat_small.dst]
        expected = small_layout.flat_gpu_of(rmat_small.dst[dn])
        np.testing.assert_array_equal(assignment.owner[dn], expected)

    def test_dd_edges_follow_min_degree_rule(self, rmat_small, small_layout):
        sep, assignment = _make(rmat_small, 32, small_layout)
        deg = sep.degrees
        dd = sep.is_delegate[rmat_small.src] & sep.is_delegate[rmat_small.dst]
        u, v = rmat_small.src[dd], rmat_small.dst[dd]
        du, dv = deg[u], deg[v]
        anchor = np.where(du < dv, u, np.where(du > dv, v, np.minimum(u, v)))
        np.testing.assert_array_equal(
            assignment.owner[dd], small_layout.flat_gpu_of(anchor)
        )

    def test_categories_match_separation(self, rmat_small, small_layout):
        sep, assignment = _make(rmat_small, 32, small_layout)
        src_d = sep.is_delegate[rmat_small.src]
        dst_d = sep.is_delegate[rmat_small.dst]
        np.testing.assert_array_equal(
            assignment.category == EDGE_CATEGORIES["nn"], ~src_d & ~dst_d
        )
        np.testing.assert_array_equal(
            assignment.category == EDGE_CATEGORIES["dd"], src_d & dst_d
        )

    def test_mismatched_separation_rejected(self, rmat_small, small_layout):
        other = generate_rmat(9, rng=9)
        sep = separate_by_degree(other, 8)
        with pytest.raises(ValueError):
            distribute_edges(rmat_small, sep, small_layout)


class TestPaperGuarantees:
    def test_every_edge_assigned_exactly_once(self, rmat_small, small_layout):
        _, assignment = _make(rmat_small, 32, small_layout)
        assert assignment.owner.size == rmat_small.num_edges
        assert assignment.edges_per_gpu().sum() == rmat_small.num_edges

    def test_non_nn_edge_pairs_land_on_the_same_gpu(self, rmat_small, small_layout):
        """The symmetry property: the reverse of every nd/dn/dd edge is co-located."""
        sep, assignment = _make(rmat_small, 32, small_layout)
        owner_of = {}
        for i in range(rmat_small.num_edges):
            owner_of[(int(rmat_small.src[i]), int(rmat_small.dst[i]))] = int(assignment.owner[i])
        nn_code = EDGE_CATEGORIES["nn"]
        for i in range(rmat_small.num_edges):
            if assignment.category[i] == nn_code:
                continue
            u, v = int(rmat_small.src[i]), int(rmat_small.dst[i])
            assert owner_of[(v, u)] == owner_of[(u, v)], f"edge pair ({u},{v}) split across GPUs"

    def test_edge_balance_on_scale_free_graph(self, rmat_medium):
        """The distributor should spread edges nearly evenly (paper: 'Balanced')."""
        layout = ClusterLayout(num_ranks=4, gpus_per_rank=2)
        _, assignment = _make(rmat_medium, 64, layout)
        per_gpu = assignment.edges_per_gpu()
        assert per_gpu.max() / per_gpu.mean() < 1.15

    def test_category_counts_match_census(self, rmat_small, small_layout):
        from repro.partition.delegates import census_for_thresholds

        _, assignment = _make(rmat_small, 32, small_layout)
        census = census_for_thresholds(rmat_small, [32])[0]
        counts = dict(zip(EDGE_CATEGORIES, np.bincount(assignment.category, minlength=4)))
        assert counts["nn"] == census.nn_edges
        assert counts["nd"] == census.nd_edges
        assert counts["dn"] == census.dn_edges
        assert counts["dd"] == census.dd_edges

    def test_single_gpu_gets_everything(self, rmat_small):
        layout = ClusterLayout(1, 1)
        _, assignment = _make(rmat_small, 32, layout)
        assert np.all(assignment.owner == 0)

    @given(
        n=st.integers(2, 40),
        prank=st.integers(1, 4),
        pgpu=st.integers(1, 3),
        threshold=st.integers(0, 10),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_symmetry_of_non_nn_edges(self, n, prank, pgpu, threshold, data):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=60,
            )
        )
        edges = EdgeList(
            np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64),
            n,
        ).prepared(hash_seed=None)
        layout = ClusterLayout(prank, pgpu)
        sep = separate_by_degree(edges, threshold)
        assignment = distribute_edges(edges, sep, layout)
        owner_of = {
            (int(s), int(d)): int(o)
            for s, d, o in zip(edges.src, edges.dst, assignment.owner)
        }
        nn_code = EDGE_CATEGORIES["nn"]
        for i in range(edges.num_edges):
            if assignment.category[i] == nn_code:
                continue
            u, v = int(edges.src[i]), int(edges.dst[i])
            assert owner_of[(v, u)] == owner_of[(u, v)]
