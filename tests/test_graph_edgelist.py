"""Tests for the EdgeList container and graph-preparation operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EdgeList
from repro.utils.rng import deterministic_hash_permutation


def small_edgelists():
    """Hypothesis strategy for small random edge lists."""
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=120,
        ).map(
            lambda pairs: EdgeList(
                np.asarray([p[0] for p in pairs], dtype=np.int64),
                np.asarray([p[1] for p in pairs], dtype=np.int64),
                n,
            )
        )
    )


class TestConstruction:
    def test_basic_fields(self):
        e = EdgeList([0, 1], [1, 2], 3)
        assert e.num_edges == 2
        assert e.num_vertices == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EdgeList([0, 1], [1], 3)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="edge endpoint 5 out of range"):
            EdgeList([0], [5], 3)
        with pytest.raises(ValueError, match="edge endpoint -1 out of range"):
            EdgeList([-1], [0], 3)

    def test_isolated_vertices_allowed(self):
        e = EdgeList([0], [1], 10)
        assert e.num_vertices == 10

    def test_copy_is_deep(self):
        e = EdgeList([0, 1], [1, 0], 2)
        c = e.copy()
        c.src[0] = 1
        assert e.src[0] == 0


class TestSymmetrize:
    def test_symmetrized_doubles_edges(self):
        e = EdgeList([0, 1], [1, 2], 3)
        sym = e.symmetrized()
        assert sym.num_edges == 4
        assert sym.is_symmetric()

    def test_is_symmetric_detects_asymmetry(self):
        assert not EdgeList([0], [1], 2).is_symmetric()
        assert EdgeList([0, 1], [1, 0], 2).is_symmetric()

    @given(small_edgelists())
    @settings(max_examples=60, deadline=None)
    def test_property_symmetrized_is_symmetric(self, edges):
        assert edges.symmetrized().is_symmetric()


class TestDeduplicate:
    def test_removes_duplicates(self):
        e = EdgeList([0, 0, 0], [1, 1, 2], 3).deduplicated()
        assert e.num_edges == 2

    def test_preserves_distinct_edges(self):
        e = EdgeList([0, 1, 2], [1, 2, 0], 3).deduplicated()
        assert e.num_edges == 3

    @given(small_edgelists())
    @settings(max_examples=60, deadline=None)
    def test_property_dedup_matches_python_set(self, edges):
        dedup = edges.deduplicated()
        expected = {(int(s), int(d)) for s, d in zip(edges.src, edges.dst)}
        got = {(int(s), int(d)) for s, d in zip(dedup.src, dedup.dst)}
        assert got == expected
        assert dedup.num_edges == len(expected)


class TestSelfLoopsAndRelabel:
    def test_without_self_loops(self):
        e = EdgeList([0, 1, 2], [0, 2, 2], 3).without_self_loops()
        assert e.num_edges == 1
        assert (e.src[0], e.dst[0]) == (1, 2)

    def test_relabel_applies_permutation(self):
        e = EdgeList([0, 1], [1, 2], 3)
        perm = np.asarray([2, 0, 1])
        r = e.relabeled(perm)
        assert (r.src[0], r.dst[0]) == (2, 0)
        assert (r.src[1], r.dst[1]) == (0, 1)

    def test_relabel_rejects_non_bijection(self):
        e = EdgeList([0], [1], 3)
        with pytest.raises(ValueError):
            e.relabeled(np.asarray([0, 0, 1]))
        with pytest.raises(ValueError):
            e.relabeled(np.asarray([0, 1]))

    @given(small_edgelists(), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_property_relabel_preserves_edge_count_and_degrees(self, edges, seed):
        perm = deterministic_hash_permutation(edges.num_vertices, seed=seed)
        r = edges.relabeled(perm)
        assert r.num_edges == edges.num_edges
        deg_before = np.bincount(edges.src, minlength=edges.num_vertices)
        deg_after = np.bincount(r.src, minlength=edges.num_vertices)
        np.testing.assert_array_equal(np.sort(deg_before), np.sort(deg_after))


class TestPrepared:
    def test_prepared_is_symmetric_dedup_no_loops(self):
        e = EdgeList([0, 0, 1, 2, 2], [0, 1, 2, 2, 1], 4)
        p = e.prepared(hash_seed=5)
        assert p.is_symmetric()
        assert np.all(p.src != p.dst)
        # no duplicates
        pairs = {(int(s), int(d)) for s, d in zip(p.src, p.dst)}
        assert len(pairs) == p.num_edges

    def test_prepared_without_hash_keeps_ids(self):
        e = EdgeList([0], [1], 5)
        p = e.prepared(hash_seed=None)
        assert {(int(s), int(d)) for s, d in zip(p.src, p.dst)} == {(0, 1), (1, 0)}

    @given(small_edgelists())
    @settings(max_examples=40, deadline=None)
    def test_property_prepared_invariants(self, edges):
        p = edges.prepared(hash_seed=3)
        assert p.is_symmetric()
        assert np.all(p.src != p.dst) or p.num_edges == 0
        pairs = {(int(s), int(d)) for s, d in zip(p.src, p.dst)}
        assert len(pairs) == p.num_edges
