"""Tests for the forward-push and backward-pull visit kernels."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
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
        # pulling through the reverse graph (small_csr's edges, transposed).
        reverse = CSRGraph.from_edges(
            [1, 2, 2, 0, 1, 2], [0, 0, 1, 3, 3, 3], num_rows=4, num_cols=4
        )
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


# --------------------------------------------------------------------------- #
# The pull by rounds is the scalar early-exit loop, on both sides of the cutoff
# --------------------------------------------------------------------------- #
def scalar_backward_visit(csr: CSRGraph, candidates, in_frontier):
    """The serial early-exit scan ``backward_visit`` must reproduce: each
    candidate, in the order given, reads its parents until the first one in
    the frontier."""
    discovered, sources, examined = [], [], 0
    for candidate in candidates:
        for parent in csr.neighbors(int(candidate)):
            examined += 1
            if in_frontier[parent]:
                discovered.append(int(candidate))
                sources.append(int(parent))
                break
    return (
        np.asarray(discovered, dtype=np.int64), np.asarray(sources, dtype=np.int64), examined
    )


def pull_bodies(cutoff):
    """Patches that select each statement of the pull: the NumPy rounds with
    ``cutoff``, and the compiled scan when its library loaded."""
    yield mock.patch.multiple(kernels, PULL_ONE_PASS_EDGES=cutoff, _LIB=None)
    if kernels._LIB is not None:
        yield mock.patch.object(kernels, "_LIB", kernels._LIB)


def assert_pull_is_the_scalar_scan(csr, candidates, in_frontier, cutoff):
    discovered, sources, examined = scalar_backward_visit(csr, candidates, in_frontier)
    for body in pull_bodies(cutoff):
        with body:
            out = backward_visit(csr, candidates, in_frontier)
        assert out.backward
        np.testing.assert_array_equal(out.discovered, discovered)
        np.testing.assert_array_equal(out.sources, sources)
        assert out.discovered.dtype == np.int64 and out.sources.dtype == np.int64
        assert out.edges_examined == examined and type(out.edges_examined) is int


#: Both sides of the one-pass cutoff without building a big graph: every call
#: goes by rounds (0), calls of a handful of edges stay one pass (12, 60),
#: every call stays one pass (the shipped value, far above these graphs).
CUTOFFS = (0, 12, 60, kernels.PULL_ONE_PASS_EDGES)


def skewed_csr(rng, num_rows, num_cols, num_edges, column_dtype, hashed):
    """A random rectangular CSR with a few hub columns.  Unhashed, the hubs
    are the lowest ids, so they head every sorted parent list (the Graph500
    workload's shape: most hits at offset 0); hashed, they sit anywhere.
    Every seventh row stays empty."""
    rows = rng.integers(0, num_rows, size=num_edges)
    cols = (num_cols * rng.random(num_edges) ** 3).astype(np.int64)
    if hashed:
        cols = rng.permutation(num_cols)[cols]
    keep = rows % 7 != 3
    return CSRGraph.from_edges(
        rows[keep], cols[keep], num_rows, num_cols, column_dtype=column_dtype
    )


class TestBackwardVisitIsTheScalarScan:
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_rows=st.integers(1, 40),
        num_cols=st.integers(1, 40),
        num_edges=st.integers(0, 300),
        column_dtype=st.sampled_from([np.int32, np.int64]),
        hashed=st.booleans(),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        cutoff=st.sampled_from(CUTOFFS),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_rounds_equal_scalar_loop(
        self, seed, num_rows, num_cols, num_edges, column_dtype, hashed, density, cutoff, data
    ):
        rng = np.random.default_rng(seed)
        csr = skewed_csr(rng, num_rows, num_cols, num_edges, column_dtype, hashed)
        # Unsorted, duplicated, possibly empty; zero-length rows included.
        candidates = np.asarray(
            data.draw(st.lists(st.integers(0, num_rows - 1), max_size=60)), dtype=np.int64
        )
        in_frontier = rng.random(num_cols) < density
        assert_pull_is_the_scalar_scan(csr, candidates, in_frontier, cutoff)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("hashed", [False, True])
    @pytest.mark.parametrize("column_dtype", [np.int32, np.int64])
    def test_every_candidate_of_a_hub_heavy_graph(self, cutoff, hashed, column_dtype):
        """Long lists (hits beyond the fixed-width rounds), all rows as
        candidates, sorted and reversed, sparse and dense frontiers."""
        rng = np.random.default_rng(20)
        csr = skewed_csr(rng, 120, 90, 4000, column_dtype, hashed)
        assert csr.out_degrees().max() > 40 and (csr.out_degrees() == 0).any()
        for density in (0.02, 0.5):
            in_frontier = rng.random(90) < density
            for candidates in (np.arange(120), np.arange(120)[::-1], rng.integers(0, 120, 300)):
                assert_pull_is_the_scalar_scan(csr, candidates, in_frontier, cutoff)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_nobody_hits_and_everybody_hits_at_once(self, cutoff):
        rng = np.random.default_rng(21)
        csr = skewed_csr(rng, 50, 50, 600, np.int32, hashed=False)
        candidates = np.arange(50)
        held = csr.frontier_workload(candidates)
        for body in pull_bodies(cutoff):
            with body:
                nobody = backward_visit(csr, candidates, np.zeros(50, dtype=bool))
                everybody = backward_visit(csr, candidates, np.ones(50, dtype=bool))
            assert nobody.discovered.size == 0 and nobody.sources.size == 0
            assert nobody.sources.dtype == np.int64 and nobody.edges_examined == held
            has_parents = np.flatnonzero(csr.out_degrees())
            np.testing.assert_array_equal(everybody.discovered, has_parents)
            np.testing.assert_array_equal(
                everybody.sources, [csr.neighbors(int(row))[0] for row in has_parents]
            )
            assert everybody.edges_examined == has_parents.size

    @pytest.mark.parametrize("cutoff", [0, kernels.PULL_ONE_PASS_EDGES])
    @pytest.mark.parametrize("bad", [-1, 4, 1 << 40])
    def test_out_of_range_candidates_raise(self, small_csr, cutoff, bad):
        for body in pull_bodies(cutoff):
            with body, pytest.raises(IndexError):
                backward_visit(small_csr, np.asarray([0, bad, 3]), np.ones(4, dtype=bool))
