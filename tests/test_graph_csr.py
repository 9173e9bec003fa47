"""Tests for the CSR adjacency structure and its traversal helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList


class TestConstruction:
    def test_from_edges_basic(self):
        csr = CSRGraph.from_edges([0, 0, 2], [1, 2, 0], num_rows=3, num_cols=3)
        assert csr.num_edges == 3
        np.testing.assert_array_equal(csr.out_degrees(), [2, 0, 1])
        np.testing.assert_array_equal(csr.neighbors(0), [1, 2])
        np.testing.assert_array_equal(csr.neighbors(1), [])

    def test_rectangular_csr(self):
        csr = CSRGraph.from_edges([0, 1], [5, 9], num_rows=2, num_cols=10)
        assert csr.num_rows == 2 and csr.num_cols == 10

    def test_empty(self):
        csr = CSRGraph.empty(4, 7)
        assert csr.num_edges == 0
        assert csr.out_degrees().sum() == 0

    def test_column_dtype_preserved(self):
        csr32 = CSRGraph.from_edges([0], [1], 2, 2, column_dtype=np.int32)
        csr64 = CSRGraph.from_edges([0], [1], 2, 2, column_dtype=np.int64)
        assert csr32.column_dtype == np.int32
        assert csr64.column_dtype == np.int64

    def test_nbytes_accounting(self):
        csr32 = CSRGraph.from_edges([0, 1], [1, 0], 2, 2, column_dtype=np.int32)
        csr64 = CSRGraph.from_edges([0, 1], [1, 0], 2, 2, column_dtype=np.int64)
        assert csr32.nbytes() == 4 * 3 + 4 * 2
        assert csr64.nbytes() == 8 * 3 + 8 * 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [5], num_rows=1, num_cols=3)
        with pytest.raises(ValueError):
            CSRGraph.from_edges([5], [0], num_rows=1, num_cols=3)
        with pytest.raises(ValueError):
            CSRGraph(np.asarray([0, 1]), np.asarray([0]), num_rows=2, num_cols=1)
        with pytest.raises(ValueError):
            CSRGraph(np.asarray([0, 2, 1]), np.asarray([0, 0]), num_rows=2, num_cols=1)

    def test_from_edgelist_square(self):
        edges = EdgeList([0, 1, 2], [1, 2, 0], 3)
        csr = CSRGraph.from_edgelist(edges)
        assert csr.num_rows == csr.num_cols == 3
        assert csr.num_edges == 3

    def test_neighbors_out_of_range(self):
        csr = CSRGraph.empty(2, 2)
        with pytest.raises(IndexError):
            csr.neighbors(5)


class TestGatherNeighbors:
    def test_gather_concatenates_neighbor_lists(self):
        csr = CSRGraph.from_edges([0, 0, 1, 3], [1, 2, 3, 0], 4, 4)
        rows, cols = csr.gather_neighbors(np.asarray([0, 3]))
        np.testing.assert_array_equal(rows, [0, 0, 3])
        np.testing.assert_array_equal(cols, [1, 2, 0])

    def test_gather_empty_frontier(self):
        csr = CSRGraph.from_edges([0], [1], 2, 2)
        rows, cols = csr.gather_neighbors(np.zeros(0, dtype=np.int64))
        assert rows.size == 0 and cols.size == 0

    def test_gather_rows_with_no_neighbors(self):
        csr = CSRGraph.from_edges([0], [1], 3, 3)
        rows, cols = csr.gather_neighbors(np.asarray([1, 2]))
        assert cols.size == 0

    def test_gather_duplicated_rows_counts_twice(self):
        csr = CSRGraph.from_edges([0, 0], [1, 2], 2, 3)
        _, cols = csr.gather_neighbors(np.asarray([0, 0]))
        assert cols.size == 4

    def test_gather_out_of_range_raises(self):
        csr = CSRGraph.empty(2, 2)
        with pytest.raises(IndexError):
            csr.gather_neighbors(np.asarray([5]))
        weighted = CSRGraph.from_edges([0], [1], 2, 2, weights=[1.0])
        for bad in ([0, 2], [-1, 1]):
            with pytest.raises(IndexError, match="out of range"):
                weighted.gather_neighbors_with_weights(np.asarray(bad))
            with pytest.raises(IndexError, match="out of range"):
                weighted.gather_neighbors(np.asarray(bad))

    def test_frontier_workload(self):
        csr = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3, 3)
        assert csr.frontier_workload(np.asarray([0])) == 2
        assert csr.frontier_workload(np.asarray([0, 1])) == 3
        assert csr.frontier_workload(np.zeros(0, dtype=np.int64)) == 0

    @given(
        n=st.integers(min_value=1, max_value=25),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_gather_matches_per_row_lists(self, n, data):
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80)
        )
        src = np.asarray([p[0] for p in pairs], dtype=np.int64)
        dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
        column_dtype = data.draw(st.sampled_from([np.int32, np.int64]))
        weights = np.arange(src.size, dtype=np.float64) + 0.5
        csr = CSRGraph.from_edges(src, dst, n, n, column_dtype=column_dtype, weights=weights)
        # Unsorted, with repeats: every occurrence of a row lists it again.
        frontier = data.draw(
            st.lists(st.integers(0, n - 1), max_size=10).map(np.asarray)
        )
        frontier = np.asarray(frontier, dtype=np.int64)
        rows, cols = csr.gather_neighbors(frontier)
        expected_cols = np.concatenate(
            [csr.neighbors(int(r)) for r in frontier]
        ) if frontier.size else np.zeros(0, dtype=np.int64)
        expected_rows = np.repeat(frontier, csr.out_degrees()[frontier])
        expected_weights = np.concatenate(
            [csr.edge_weights[csr.row_offsets[r] : csr.row_offsets[r + 1]] for r in frontier]
        ) if frontier.size else np.zeros(0)
        np.testing.assert_array_equal(np.asarray(cols, dtype=np.int64), expected_cols)
        np.testing.assert_array_equal(rows, expected_rows)
        assert rows.dtype == np.int64 and cols.dtype == column_dtype
        # The weighted gather is the same listing with the weights beside it.
        w_rows, w_cols, w = csr.gather_neighbors_with_weights(frontier)
        np.testing.assert_array_equal(w_rows, rows)
        np.testing.assert_array_equal(w_cols, cols)
        np.testing.assert_array_equal(w, expected_weights)
        assert w_cols.dtype == column_dtype and w.dtype == np.float64


class TestScipy:
    def test_to_scipy_shape_and_count(self):
        pytest.importorskip("scipy")
        csr = CSRGraph.from_edges([0, 1, 1], [1, 0, 2], 2, 3)
        mat = csr.to_scipy()
        assert mat.shape == (2, 3)
        assert mat.nnz == 3


def reference_csr(
    src, dst, num_rows, num_cols, column_dtype=np.int64, sort_columns=True, weights=None
):
    """The ``lexsort`` construction ``from_edges`` used before the packed-key sort.

    Kept as the oracle: ``(row_offsets, column_indices, edge_weights)``.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    if num_rows:
        np.cumsum(np.bincount(src, minlength=num_rows), out=row_offsets[1:])
    order = np.lexsort((dst, src)) if sort_columns else np.argsort(src, kind="stable")
    w = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()[order]
    return row_offsets, dst[order].astype(column_dtype), w


def assert_csr_identical(csr: CSRGraph, reference, num_rows, num_cols) -> None:
    row_offsets, columns, weights = reference
    assert (csr.num_rows, csr.num_cols) == (num_rows, num_cols)
    for got, want in ((csr.row_offsets, row_offsets), (csr.column_indices, columns)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if weights is None:
        assert csr.edge_weights is None
    else:
        assert csr.edge_weights.dtype == np.float64
        np.testing.assert_array_equal(csr.edge_weights, weights)


class TestPackedKeySortIdentity:
    """``from_edges`` sorts one packed key; the arrays must equal the lexsort's."""

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        num_rows=st.integers(0, 9),
        num_cols=st.integers(1, 9),
        column_dtype=st.sampled_from([np.int32, np.int64]),
        weighted=st.booleans(),
        sort_columns=st.booleans(),
    )
    def test_random_inputs(self, data, num_rows, num_cols, column_dtype, weighted, sort_columns):
        # Small universes and up to 60 edges: duplicate (row, column) pairs
        # with different weights are the rule, so stability is exercised.
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, num_rows - 1), st.integers(0, num_cols - 1)), max_size=60
            )
            if num_rows
            else st.just([])
        )
        src = np.asarray([p[0] for p in pairs], dtype=np.int64)
        dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
        weights = np.arange(src.size, dtype=np.float64)[::-1] / 4 if weighted else None
        kwargs = dict(column_dtype=column_dtype, sort_columns=sort_columns, weights=weights)
        csr = CSRGraph.from_edges(src, dst, num_rows, num_cols, **kwargs)
        assert_csr_identical(
            csr, reference_csr(src, dst, num_rows, num_cols, **kwargs), num_rows, num_cols
        )

    def test_duplicate_weighted_edges_keep_input_order(self):
        src, dst = [1, 0, 1, 1, 0, 1], [2, 3, 2, 0, 3, 2]
        weights = [0.5, 0.25, 0.125, 1.0, 0.75, 0.0625]
        csr = CSRGraph.from_edges(src, dst, 2, 4, weights=weights)
        np.testing.assert_array_equal(csr.column_indices, [3, 3, 0, 2, 2, 2])
        np.testing.assert_array_equal(csr.edge_weights, [0.25, 0.75, 1.0, 0.5, 0.125, 0.0625])
        assert_csr_identical(csr, reference_csr(src, dst, 2, 4, weights=weights), 2, 4)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_empty_input_and_zero_rows(self, weighted):
        weights = np.zeros(0) if weighted else None
        for num_rows, num_cols in ((0, 0), (0, 5), (3, 0), (3, 5)):
            csr = CSRGraph.from_edges([], [], num_rows, num_cols, np.int32, weights=weights)
            assert_csr_identical(
                csr, reference_csr([], [], num_rows, num_cols, np.int32, weights=weights),
                num_rows, num_cols,
            )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_wide_universe_takes_the_lexsort_fallback(self, weighted):
        """2**62 columns x 5 rows needs 65 key bits: no packed key exists."""
        num_rows, num_cols = 5, 2**62
        rng = np.random.default_rng(7)
        src = rng.integers(0, num_rows, size=200)
        dst = rng.integers(0, num_cols, size=200)
        dst[:50] = dst[50:100]  # duplicate columns, some in the same row
        src[:25] = src[50:75]
        weights = rng.random(200) if weighted else None
        csr = CSRGraph.from_edges(src, dst, num_rows, num_cols, weights=weights)
        assert_csr_identical(
            csr, reference_csr(src, dst, num_rows, num_cols, weights=weights), num_rows, num_cols
        )
        # One bit fewer fits (1 row bit + 62 column bits) and must agree too.
        csr = CSRGraph.from_edges(src % 2, dst, 2, num_cols, weights=weights)
        assert_csr_identical(
            csr, reference_csr(src % 2, dst, 2, num_cols, weights=weights), 2, num_cols
        )

    def test_result_is_validated_input_not_aliased(self):
        dst = np.asarray([2, 1, 0], dtype=np.int64)
        csr = CSRGraph.from_edges([0, 0, 0], dst, 1, 3, sort_columns=False)
        csr.column_indices[:] = 0
        np.testing.assert_array_equal(dst, [2, 1, 0])
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [1], 1, 2, weights=[-1.0])
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [1], 1, 2, weights=[1.0, 2.0])
