"""Tests for the per-run traversal state container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.programs import BFSLevels
from repro.core.programs.base import single_source_init
from repro.core.state import UNVISITED, TraversalState
from repro.partition.subgraphs import build_partitions


@pytest.fixture()
def partitioned(rmat_small, small_layout):
    return build_partitions(rmat_small, small_layout, threshold=32)


def bfs_state(graph, source: int) -> TraversalState:
    """The state a BFS from ``source`` starts from."""
    return TraversalState.from_init(graph, single_source_init(graph, source, value=0))


#: BFS's acceptance rule: a vertex takes its first value only.
visit_once = BFSLevels(source=0).accept


class TestInitialization:
    def test_normal_source(self, partitioned):
        # Pick a source that is not a delegate.
        sep = partitioned.separation
        source = int(np.flatnonzero(~sep.is_delegate)[0])
        state = bfs_state(partitioned, source)
        owner = int(partitioned.layout.flat_gpu_of(source))
        slot = int(partitioned.layout.local_index_of(source))
        assert state.normal_values[owner][slot] == 0
        assert state.delegate_frontier.size == 0
        assert state.normal_frontiers[owner].size == 1
        assert np.count_nonzero(state.gather_values() != UNVISITED) == 1

    def test_delegate_source(self, partitioned):
        source = int(partitioned.delegate_vertices[0])
        state = bfs_state(partitioned, source)
        assert state.delegate_values[0] == 0
        assert state.delegate_visited.test_many(np.asarray([0]))[0]
        np.testing.assert_array_equal(state.delegate_frontier, [0])
        assert all(f.size == 0 for f in state.normal_frontiers)

    def test_out_of_range_source(self, partitioned):
        with pytest.raises(ValueError):
            bfs_state(partitioned, partitioned.num_vertices)
        with pytest.raises(ValueError):
            bfs_state(partitioned, -1)


def levels(size: int, level: int) -> np.ndarray:
    return np.full(size, level, dtype=np.int64)


class TestMarking:
    def test_mark_normals_only_marks_unvisited(self, partitioned):
        state = bfs_state(partitioned, int(np.flatnonzero(~partitioned.separation.is_delegate)[0]))
        gpu = 0
        slots = np.asarray([1, 2, 3])
        fresh = state.update_normals(gpu, slots, levels(3, 1), visit_once)
        np.testing.assert_array_equal(fresh, [1, 2, 3])
        again = state.update_normals(gpu, slots, levels(3, 2), visit_once)
        assert again.size == 0
        assert np.all(state.normal_values[gpu][[1, 2, 3]] == 1)

    def test_mark_delegates_sets_mask_and_levels(self, partitioned):
        source = int(partitioned.delegate_vertices[0])
        state = bfs_state(partitioned, source)
        fresh = state.update_delegates(np.asarray([0, 1, 2]), levels(3, 3), visit_once)
        np.testing.assert_array_equal(fresh, [1, 2])  # 0 was the source
        assert state.delegate_values[1] == 3
        assert state.delegate_visited.test_many(np.asarray([2]))[0]

    def test_frontier_empty(self, partitioned):
        source = int(partitioned.delegate_vertices[0])
        state = bfs_state(partitioned, source)
        assert not state.frontier_empty()
        state.delegate_frontier = np.zeros(0, dtype=np.int64)
        assert state.frontier_empty()


class TestGather:
    def test_gather_distances_covers_source_only_initially(self, partitioned):
        source = int(partitioned.delegate_vertices[0])
        state = bfs_state(partitioned, source)
        distances = state.gather_values()
        assert distances[source] == 0
        assert np.count_nonzero(distances != UNVISITED) == 1

    def test_gather_distances_merges_normal_and_delegate_levels(self, partitioned):
        sep = partitioned.separation
        source = int(np.flatnonzero(~sep.is_delegate)[0])
        state = bfs_state(partitioned, source)
        state.update_delegates(np.asarray([0]), levels(1, 4), visit_once)
        # Pick a slot on GPU 1 whose global vertex is a normal vertex (the
        # engine never marks delegate-occupied slots through the normal path).
        slot = int(np.flatnonzero(partitioned.gpus[1].local_is_normal)[0])
        gpu1_fresh = state.update_normals(1, np.asarray([slot]), levels(1, 2), visit_once)
        assert gpu1_fresh.size == 1
        distances = state.gather_values()
        assert distances[partitioned.delegate_vertices[0]] == 4
        gpu1_global = partitioned.gpus[1].owned_global_ids()[slot]
        assert distances[gpu1_global] == 2
