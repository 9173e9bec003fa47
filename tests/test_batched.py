"""Tests for the batched (MS-BFS style) traversal path.

The load-bearing property is *batched-vs-sequential equivalence*: every lane
of a batched run must be bit-identical to a sequential single-source run from
that lane's source, for every delegate threshold (including the all-normal
and almost-all-delegate extremes), every layout, and both the plain and the
hop-capped program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import DistributedBFS, TraversalEngine
from repro.core.kernels import (
    batched_backward_visit,
    batched_filter_frontier,
    batched_forward_visit,
)
from repro.core.programs import (
    BatchedBFSLevels,
    BatchedReachability,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    KHopReachability,
)
from repro.graph.csr import CSRGraph
from repro.partition.subgraphs import build_partitions
from repro.utils.bitmask import BatchBitmask


# --------------------------------------------------------------------------- #
# BatchBitmask
# --------------------------------------------------------------------------- #
def _lanes(mask: BatchBitmask) -> set:
    """Every set ``(row, lane)`` bit of a batch mask."""
    bits = np.unpackbits(mask.words.view(np.uint8), axis=1, bitorder="little")
    return {(int(r), int(lane)) for r, lane in zip(*np.nonzero(bits))}


class TestBatchBitmask:
    def test_set_and_read_lanes(self):
        mask = BatchBitmask(rows=10, width=5)
        mask.set_lanes(np.array([3, 3, 7]), np.array([0, 4, 2]))
        assert _lanes(mask) == {(3, 0), (3, 4), (7, 2)}
        assert sorted(mask.nonzero_rows().tolist()) == [3, 7]
        assert mask.rows_any().tolist() == [
            False, False, False, True, False, False, False, True, False, False,
        ]

    def test_wide_masks_span_words(self):
        mask = BatchBitmask(rows=4, width=130)
        assert mask.nwords == 3
        mask.set_lanes(np.array([1, 1, 2]), np.array([0, 129, 64]))
        assert _lanes(mask) == {(1, 0), (1, 129), (2, 64)}

    def test_or_rows_combines_duplicates(self):
        mask = BatchBitmask(rows=3, width=8)
        words = np.array([[1], [2]], dtype=np.uint64)
        mask.or_rows(np.array([0, 0]), words)
        assert mask.get_rows(np.array([0]))[0, 0] == np.uint64(3)

    def test_or_with_merges_into_a_copy(self):
        a, b = BatchBitmask(4, 4), BatchBitmask(4, 4)
        a.set_lanes(np.array([0, 1]), np.array([0, 1]))
        b.set_lanes(np.array([1, 2]), np.array([1, 2]))
        merged = a.copy().or_with(b)
        assert _lanes(merged) == {(0, 0), (1, 1), (2, 2)}
        assert _lanes(a) == {(0, 0), (1, 1)}  # the copy left ``a`` alone

    def test_packed_nbytes_is_tight(self):
        assert BatchBitmask(10, 3).packed_nbytes == (10 * 3 + 7) // 8
        assert BatchBitmask(0, 64).packed_nbytes == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="width"):
            BatchBitmask(4, 0)
        with pytest.raises(IndexError, match="row index"):
            BatchBitmask(4, 4).set_lanes(np.array([4]), np.array([0]))
        with pytest.raises(IndexError, match="lane index"):
            BatchBitmask(4, 4).set_lanes(np.array([0]), np.array([4]))
        with pytest.raises(ValueError, match="shape mismatch"):
            BatchBitmask(4, 4).or_with(BatchBitmask(4, 5))


# --------------------------------------------------------------------------- #
# Batched kernels
# --------------------------------------------------------------------------- #
def _tiny_csr() -> CSRGraph:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
    edges = np.array([[0, 1], [0, 2], [1, 2], [3, 0]], dtype=np.int64)
    return CSRGraph.from_edges(edges[:, 0], edges[:, 1], num_rows=4, num_cols=4)


class TestBatchedKernels:
    def test_filter_drops_zero_degree_rows(self):
        rows = np.array([0, 2, 3], dtype=np.int64)
        words = np.array([[1], [2], [4]], dtype=np.uint64)
        degrees = np.array([2, 1, 0, 1], dtype=np.int64)
        kept_rows, kept_words = batched_filter_frontier(rows, words, degrees)
        assert kept_rows.tolist() == [0, 3]
        assert kept_words[:, 0].tolist() == [1, 4]

    def test_forward_or_combines_lane_words(self):
        csr = _tiny_csr()
        frontier = np.array([0, 1], dtype=np.int64)
        words = np.array([[1], [2]], dtype=np.uint64)  # lane 0 at row 0, lane 1 at row 1
        out = batched_forward_visit(csr, frontier, words)
        assert not out.backward
        assert out.edges_examined == 3
        assert out.discovered.tolist() == [1, 2]
        # Vertex 2 is reached by both rows: its word is the OR of both lanes.
        assert out.words[:, 0].tolist() == [1, 3]

    def test_backward_pull_collects_all_lanes(self):
        csr = _tiny_csr()  # rows pull from their out-neighbour lists here
        parent_words = np.zeros((4, 1), dtype=np.uint64)
        parent_words[1, 0] = 1  # lane 0 frontier at vertex 1
        parent_words[2, 0] = 2  # lane 1 frontier at vertex 2
        wanted = np.full((1, 1), np.uint64(0xFF), dtype=np.uint64)
        out = batched_backward_visit(csr, np.array([0], dtype=np.int64), parent_words, wanted)
        assert out.backward
        # Full scan: both of row 0's parents examined, both lanes collected.
        assert out.edges_examined == 2
        assert out.discovered.tolist() == [0]
        assert out.words[0, 0] == np.uint64(3)

    def test_backward_respects_wanted_lanes(self):
        csr = _tiny_csr()
        parent_words = np.zeros((4, 1), dtype=np.uint64)
        parent_words[1, 0] = 3
        wanted = np.array([[2]], dtype=np.uint64)  # lane 0 already visited
        out = batched_backward_visit(csr, np.array([0], dtype=np.int64), parent_words, wanted)
        assert out.words[0, 0] == np.uint64(2)

    def test_empty_inputs(self):
        csr = _tiny_csr()
        empty = np.zeros(0, dtype=np.int64)
        ew = np.zeros((0, 1), dtype=np.uint64)
        assert batched_forward_visit(csr, empty, ew).discovered.size == 0
        assert (
            batched_backward_visit(csr, empty, np.zeros((4, 1), dtype=np.uint64), ew)
            .discovered.size
            == 0
        )


# --------------------------------------------------------------------------- #
# Batched-vs-sequential equivalence
# --------------------------------------------------------------------------- #
def _sources_for(edges, count: int = 6) -> list[int]:
    """A spread of sources: low ids, a high id, and a repeat-friendly mix."""
    n = edges.num_vertices
    return [0, 1, n // 3, n // 2, n - 1, 5]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("threshold", [1, 4, 32, 1 << 30])
    def test_levels_bit_identical_across_thresholds(self, rmat_small, small_layout, threshold):
        graph = build_partitions(rmat_small, small_layout, threshold)
        engine = TraversalEngine(graph)
        sources = _sources_for(rmat_small)
        batch = engine.run_batch(BatchedBFSLevels(sources))
        assert batch.width == len(sources)
        for lane, source in enumerate(sources):
            sequential = engine.run(BFSLevels(source=source))
            np.testing.assert_array_equal(batch.distances[lane], sequential.distances)

    @pytest.mark.parametrize("max_hops", [0, 1, 3])
    def test_khop_bit_identical(self, rmat_small, small_layout, max_hops):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        sources = _sources_for(rmat_small)
        batch = engine.run_batch(BatchedReachability(sources, max_hops=max_hops))
        for lane, source in enumerate(sources):
            sequential = engine.run(KHopReachability(source=source, max_hops=max_hops))
            np.testing.assert_array_equal(batch.distances[lane], sequential.distances)

    def test_equivalence_across_layouts(self, rmat_small, any_layout):
        graph = build_partitions(rmat_small, any_layout, threshold=16)
        engine = TraversalEngine(graph)
        sources = [0, 7, 1000]
        batch = engine.run_batch(BatchedBFSLevels(sources))
        for lane, source in enumerate(sources):
            np.testing.assert_array_equal(
                batch.distances[lane], engine.run(BFSLevels(source=source)).distances
            )

    def test_wide_batch_spanning_multiple_words(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        rng = np.random.default_rng(5)
        sources = rng.integers(0, rmat_small.num_vertices, size=70).tolist()
        batch = engine.run_batch(BatchedBFSLevels(sources))
        # Spot-check lanes in every word (0, 63, 64, 69).
        for lane in (0, 63, 64, 69):
            np.testing.assert_array_equal(
                batch.distances[lane],
                engine.run(BFSLevels(source=sources[lane])).distances,
            )

    def test_duplicate_lanes_are_independent(self, path_graph, small_layout):
        graph = build_partitions(path_graph, small_layout, threshold=4)
        engine = TraversalEngine(graph)
        batch = engine.run_batch(BatchedBFSLevels([3, 3, 10]))
        np.testing.assert_array_equal(batch.distances[0], batch.distances[1])
        assert not np.array_equal(batch.distances[0], batch.distances[2])

    def test_per_lane_iterations_match_sequential(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        sources = _sources_for(rmat_small)
        batch = engine.run_batch(BatchedBFSLevels(sources))
        for lane, source in enumerate(sources):
            lane_result = batch.result_for_lane(lane)
            sequential = engine.run(BFSLevels(source=source))
            assert lane_result.iterations == sequential.iterations
            assert lane_result.source == source

    def test_no_direction_optimization_still_identical(self, rmat_small, small_layout):
        from repro.core.options import BFSOptions

        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph, options=BFSOptions(direction_optimized=False))
        sources = [0, 99]
        batch = engine.run_batch(BatchedBFSLevels(sources))
        for lane, source in enumerate(sources):
            np.testing.assert_array_equal(
                batch.distances[lane], engine.run(BFSLevels(source=source)).distances
            )

    def test_batch_counters_deterministic(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        first = engine.run_batch(BatchedBFSLevels([0, 5, 9]))
        second = engine.run_batch(BatchedBFSLevels([0, 5, 9]))
        assert first.total_edges_examined == second.total_edges_examined
        assert first.iterations == second.iterations
        assert first.timing.elapsed_ms == second.timing.elapsed_ms

    def test_source_validation(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        with pytest.raises(ValueError, match="out of range"):
            engine.run_batch(BatchedBFSLevels([rmat_small.num_vertices]))
        with pytest.raises(ValueError, match="at least one source"):
            BatchedBFSLevels([])
        with pytest.raises(ValueError, match="max_hops"):
            BatchedReachability([0], max_hops=-1)


# --------------------------------------------------------------------------- #
# run_many: dedup + batched routing
# --------------------------------------------------------------------------- #
class TestRunMany:
    def test_dedup_saves_traversals_and_fans_out(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        campaign = DistributedBFS(graph).run_many([0, 7, 0, 7, 7])
        assert len(campaign) == 5
        assert campaign.saved_traversals == 3
        assert campaign.summary()["saved_traversals"] == 3
        # Duplicate positions share the first run's result object.
        assert campaign[0] is campaign[2]
        assert campaign[1] is campaign[4]
        assert campaign[0].source == 0 and campaign[1].source == 7

    def test_batched_routing_matches_sequential(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        sources = [0, 3, 9, 100, 3]
        sequential = engine.run_many([BFSLevels(source=s) for s in sources])
        batched = engine.run_many(
            [BFSLevels(source=s) for s in sources], batch_size=4
        )
        assert len(sequential) == len(batched) == 5
        assert batched.saved_traversals == 1
        for a, b in zip(sequential, batched):
            assert a.source == b.source
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_khop_batched_routing(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        programs = [KHopReachability(source=s, max_hops=2) for s in (0, 5, 11)]
        batched = engine.run_many(programs, batch_size=8)
        for result, source in zip(batched, (0, 5, 11)):
            np.testing.assert_array_equal(
                result.distances,
                engine.run(KHopReachability(source=source, max_hops=2)).distances,
            )

    def test_mixed_programs_fall_back_to_sequential(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        campaign = engine.run_many(
            [BFSLevels(source=0), BFSParents(source=0), ConnectedComponents()],
            batch_size=8,
        )
        assert len(campaign) == 3
        assert campaign.saved_traversals == 0

    def test_mixed_hop_caps_fall_back(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, threshold=16)
        engine = TraversalEngine(graph)
        campaign = engine.run_many(
            [
                KHopReachability(source=0, max_hops=1),
                KHopReachability(source=1, max_hops=2),
            ],
            batch_size=8,
        )
        assert [r.max_hops for r in campaign] == [1, 2]

    def test_session_run_many_routes_batched(self, rmat_small):
        from repro.session import Session

        graph = Session(layout="2x1x2").load(rmat_small).threshold(16).build()
        campaign = graph.run_many([0, 4, 4, 9])
        assert campaign.saved_traversals == 1
        np.testing.assert_array_equal(
            campaign[1].distances, campaign[2].distances
        )
        with pytest.raises(ValueError, match="unknown program"):
            graph.run_many([0], program="components")
