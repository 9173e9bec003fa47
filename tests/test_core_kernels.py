"""Tests for the forward-push and backward-pull visit kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import backward_visit, forward_visit
from repro.graph.csr import CSRGraph


@pytest.fixture()
def small_csr():
    #   0 -> 1, 2
    #   1 -> 2
    #   2 -> (none)
    #   3 -> 0, 1, 2
    return CSRGraph.from_edges(
        [0, 0, 1, 3, 3, 3], [1, 2, 2, 0, 1, 2], num_rows=4, num_cols=4
    )


class TestForwardVisit:
    def test_gathers_all_neighbors(self, small_csr):
        out = forward_visit(small_csr, np.asarray([0, 3]))
        assert not out.backward
        assert out.edges_examined == 5
        np.testing.assert_array_equal(np.sort(out.discovered), [0, 1, 1, 2, 2])

    def test_empty_frontier(self, small_csr):
        out = forward_visit(small_csr, np.zeros(0, dtype=np.int64))
        assert out.edges_examined == 0
        assert out.discovered.size == 0

    def test_workload_equals_frontier_out_degree(self, small_csr):
        frontier = np.asarray([1, 3])
        out = forward_visit(small_csr, frontier)
        assert out.edges_examined == small_csr.frontier_workload(frontier)


class TestBackwardVisit:
    def test_discovers_candidates_with_frontier_parent(self, small_csr):
        # Parents of 2 are {0, 1, 3}; frontier = {1}: candidate 2 is found by
        # pulling through the reverse graph.
        reverse = small_csr.reversed()
        frontier_flags = np.zeros(4, dtype=bool)
        frontier_flags[1] = True
        out = backward_visit(reverse, np.asarray([2, 3]), frontier_flags)
        assert out.backward
        np.testing.assert_array_equal(out.discovered, [2])

    def test_early_exit_workload_counting(self):
        # Candidate 0 has parents [1, 2, 3] (sorted columns); with 1 in the
        # frontier it stops after examining one edge, with only 3 in the
        # frontier it examines all three.
        reverse = CSRGraph.from_edges([0, 0, 0], [1, 2, 3], num_rows=1, num_cols=4)
        first = np.zeros(4, dtype=bool)
        first[1] = True
        out_first = backward_visit(reverse, np.asarray([0]), first)
        assert out_first.edges_examined == 1
        last = np.zeros(4, dtype=bool)
        last[3] = True
        out_last = backward_visit(reverse, np.asarray([0]), last)
        assert out_last.edges_examined == 3
        none = np.zeros(4, dtype=bool)
        out_none = backward_visit(reverse, np.asarray([0]), none)
        assert out_none.edges_examined == 3
        assert out_none.discovered.size == 0

    def test_candidates_without_parents_cost_nothing(self):
        reverse = CSRGraph.from_edges([1], [0], num_rows=3, num_cols=2)
        out = backward_visit(reverse, np.asarray([0, 2]), np.asarray([True, True]))
        assert out.edges_examined == 0
        assert out.discovered.size == 0

    def test_empty_candidates(self, small_csr):
        out = backward_visit(small_csr, np.zeros(0, dtype=np.int64), np.zeros(4, dtype=bool))
        assert out.edges_examined == 0

    @given(
        n=st.integers(2, 20),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_backward_equals_forward_reachability(self, n, data):
        """Backward pull must discover exactly the unvisited vertices adjacent
        to the frontier (same set a forward push would produce)."""
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
        )
        src = np.asarray([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
        dst = np.asarray([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
        csr = CSRGraph.from_edges(src, dst, n, n)  # symmetric by construction
        frontier = np.unique(
            np.asarray(data.draw(st.lists(st.integers(0, n - 1), max_size=6)), dtype=np.int64)
        )
        candidates = np.setdiff1d(np.arange(n), frontier)
        flags = np.zeros(n, dtype=bool)
        flags[frontier] = True

        backward = backward_visit(csr, candidates, flags)
        fwd = forward_visit(csr, frontier)
        expected = np.intersect1d(np.unique(fwd.discovered), candidates)
        np.testing.assert_array_equal(np.sort(backward.discovered), expected)
        # Early-exit workload can never exceed the full parent-list scan.
        assert backward.edges_examined <= csr.frontier_workload(candidates)
