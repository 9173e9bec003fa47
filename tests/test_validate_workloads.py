"""Tests for the Graph500-style validator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial_bfs import serial_bfs
from repro.graph.csr import CSRGraph
from repro.validate.graph500 import validate_distances


class TestValidator:
    def test_accepts_correct_distances(self, rmat_small, rmat_small_csr):
        dist = serial_bfs(rmat_small_csr, 4)
        report = validate_distances(rmat_small, 4, dist)
        assert report.valid
        assert report.num_visited == int(np.count_nonzero(dist >= 0))
        report.raise_if_invalid()  # must not raise

    def test_rejects_wrong_source_level(self, rmat_small, rmat_small_csr):
        dist = serial_bfs(rmat_small_csr, 4).copy()
        dist[4] = 1
        report = validate_distances(rmat_small, 4, dist)
        assert not report.valid
        with pytest.raises(AssertionError):
            report.raise_if_invalid()

    def test_rejects_level_skip(self, path_graph):
        dist = serial_bfs(CSRGraph.from_edgelist(path_graph), 0).copy()
        dist[10] = 99  # breaks the edge condition around vertex 10
        report = validate_distances(path_graph, 0, dist)
        assert not report.valid
        assert any("spans levels" in e or "in-neighbour" in e for e in report.errors)

    def test_rejects_missing_parent(self, rmat_small, rmat_small_csr):
        dist = serial_bfs(rmat_small_csr, 4).copy()
        visited = np.flatnonzero(dist > 0)
        dist[visited[0]] = dist.max() + 1
        report = validate_distances(rmat_small, 4, dist)
        assert not report.valid

    def test_rejects_unvisited_neighbor_of_visited(self, path_graph):
        dist = serial_bfs(CSRGraph.from_edgelist(path_graph), 0).copy()
        dist[dist >= 25] = -1  # truncate the traversal artificially
        report = validate_distances(path_graph, 0, dist)
        assert not report.valid
        assert any("connects visited and unvisited" in e for e in report.errors)

    def test_rejects_reference_mismatch(self, rmat_small, rmat_small_csr):
        dist = serial_bfs(rmat_small_csr, 4)
        ref = dist.copy()
        ref[ref >= 0] += 0  # identical
        ok = validate_distances(rmat_small, 4, dist, reference=ref)
        assert ok.valid
        ref2 = dist.copy()
        changed = np.flatnonzero(ref2 > 0)[0]
        ref2[changed] += 1
        bad = validate_distances(rmat_small, 4, dist, reference=ref2)
        assert not bad.valid

    def test_rejects_wrong_shape(self, rmat_small):
        report = validate_distances(rmat_small, 0, np.zeros(3, dtype=np.int64))
        assert not report.valid

    def test_multiple_zero_distances_rejected(self, path_graph):
        dist = serial_bfs(CSRGraph.from_edgelist(path_graph), 0).copy()
        dist[1] = 0
        report = validate_distances(path_graph, 0, dist)
        assert not report.valid

