"""Tests for degree analysis, whole-graph properties, permutation and I/O."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.graph.degree import degree_histogram, degree_summary, in_degrees, out_degrees
from repro.graph.edgelist import EdgeList
from repro.graph.generators import path_edges, star_edges
from repro.graph.io import (
    binary_edge_count,
    iter_binary,
    load_binary,
    load_npz,
    load_text,
    save_binary,
    save_npz,
    save_text,
)
from repro.graph.permute import apply_vertex_permutation, hashed_relabel, invert_permutation
from repro.graph.properties import analyze_graph, bfs_depth_estimate
from repro.graph.rmat import generate_rmat


class TestDegrees:
    def test_out_and_in_degrees(self):
        e = EdgeList([0, 0, 1], [1, 2, 2], 4)
        np.testing.assert_array_equal(out_degrees(e), [2, 1, 0, 0])
        np.testing.assert_array_equal(in_degrees(e), [0, 1, 2, 0])

    def test_histogram(self):
        values, counts = degree_histogram(np.asarray([0, 0, 1, 3, 3, 3]))
        np.testing.assert_array_equal(values, [0, 1, 3])
        np.testing.assert_array_equal(counts, [2, 1, 3])

    def test_histogram_empty(self):
        values, counts = degree_histogram(np.zeros(0, dtype=np.int64))
        assert values.size == 0 and counts.size == 0

    def test_summary_star(self):
        s = degree_summary(star_edges(9))
        assert s.max_degree == 9
        assert s.isolated_vertices == 9
        assert s.gini > 0.8  # a star is maximally unequal

    def test_summary_regular_graph_has_low_gini(self):
        e = path_edges(100).prepared(hash_seed=None)
        s = degree_summary(e)
        assert s.gini < 0.2


class TestProperties:
    def test_path_diameter_estimate(self):
        pytest.importorskip("scipy")
        e = path_edges(30).prepared(hash_seed=None)
        assert bfs_depth_estimate(e, source=0) == 29

    def test_analyze_counts_components(self):
        pytest.importorskip("scipy")
        # Two disjoint edges -> 2 components + 1 isolated vertex = 3 weak comps.
        e = EdgeList([0, 2], [1, 3], 5).prepared(hash_seed=None)
        props = analyze_graph(e)
        assert props.num_components == 3
        assert props.num_isolated == 1
        assert props.largest_component_size == 2

    def test_analyze_empty_graph(self):
        props = analyze_graph(EdgeList([], [], 0))
        assert props.num_vertices == 0
        assert props.num_components == 0

    def test_import_repro_leaves_scipy_unloaded(self):
        """SciPy is an optional dependency: only the two statistics helpers
        import it, on call."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        probe = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestPermute:
    def test_invert_permutation(self):
        perm = np.asarray([2, 0, 1])
        inv = invert_permutation(perm)
        np.testing.assert_array_equal(perm[inv], [0, 1, 2])

    def test_apply_permutation_matches_edgelist_method(self):
        e = EdgeList([0, 1], [1, 2], 3)
        perm = np.asarray([1, 2, 0])
        a = apply_vertex_permutation(e, perm)
        b = e.relabeled(perm)
        np.testing.assert_array_equal(a.src, b.src)

    def test_hashed_relabel_returns_permutation(self):
        e = generate_rmat(8, rng=1, hash_seed=None)
        relabeled, perm = hashed_relabel(e, seed=9)
        assert perm.shape == (e.num_vertices,)
        # Mapping back with the inverse permutation restores the original.
        inv = invert_permutation(perm)
        restored = relabeled.relabeled(inv)
        assert {(int(s), int(d)) for s, d in zip(restored.src, restored.dst)} == {
            (int(s), int(d)) for s, d in zip(e.src, e.dst)
        }


class TestIO:
    def test_npz_roundtrip(self, tmp_path):
        e = generate_rmat(8, rng=3)
        path = tmp_path / "graph.npz"
        save_npz(path, e)
        loaded = load_npz(path)
        assert loaded.num_vertices == e.num_vertices
        np.testing.assert_array_equal(loaded.src, e.src)
        np.testing.assert_array_equal(loaded.dst, e.dst)

    def test_npz_rejects_wrong_archive(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError):
            load_npz(path)

    def test_text_roundtrip_with_header(self, tmp_path):
        e = EdgeList([0, 4], [4, 2], 10)
        path = tmp_path / "graph.txt"
        save_text(path, e)
        loaded = load_text(path)
        assert loaded.num_vertices == 10
        np.testing.assert_array_equal(loaded.src, e.src)

    def test_text_roundtrip_without_header(self, tmp_path):
        e = EdgeList([0, 4], [4, 2], 10)
        path = tmp_path / "graph.txt"
        save_text(path, e, header=False)
        loaded = load_text(path)
        # Without a header the vertex count is inferred from the max id.
        assert loaded.num_vertices == 5
        loaded10 = load_text(path, num_vertices=10)
        assert loaded10.num_vertices == 10

    def test_text_empty_graph(self, tmp_path):
        e = EdgeList([], [], 3)
        path = tmp_path / "empty.txt"
        save_text(path, e)
        loaded = load_text(path, num_vertices=3)
        assert loaded.num_edges == 0
        assert loaded.num_vertices == 3

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint32])
    def test_npz_roundtrip_across_dtypes(self, tmp_path, dtype):
        src = np.array([0, 3, 7], dtype=dtype)
        dst = np.array([1, 0, 2], dtype=dtype)
        e = EdgeList(src, dst, 9)
        path = tmp_path / "g.npz"
        save_npz(path, e)
        loaded = load_npz(path)
        # Loads always normalize to int64 regardless of the input dtype.
        assert loaded.src.dtype == np.int64 and loaded.dst.dtype == np.int64
        np.testing.assert_array_equal(loaded.src, src.astype(np.int64))
        np.testing.assert_array_equal(loaded.dst, dst.astype(np.int64))

    def test_npz_empty_graph(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_npz(path, EdgeList([], [], 5))
        loaded = load_npz(path)
        assert loaded.num_edges == 0 and loaded.num_vertices == 5

    def test_npz_preserves_isolated_vertices(self, tmp_path):
        # Vertex 9 has no incident edge; num_vertices must survive the trip.
        e = EdgeList([0, 1], [1, 2], 10)
        path = tmp_path / "iso.npz"
        save_npz(path, e)
        assert load_npz(path).num_vertices == 10


class TestBinaryIO:
    def test_roundtrip(self, tmp_path):
        e = generate_rmat(8, rng=3)
        path = tmp_path / "graph.bin"
        save_binary(path, e)
        loaded = load_binary(path)
        assert loaded.num_vertices == e.num_vertices
        np.testing.assert_array_equal(loaded.src, e.src)
        np.testing.assert_array_equal(loaded.dst, e.dst)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_roundtrip_across_dtypes(self, tmp_path, dtype):
        e = EdgeList(
            np.array([0, 5], dtype=dtype), np.array([2, 1], dtype=dtype), 7
        )
        path = tmp_path / "g.bin"
        save_binary(path, e)
        loaded = load_binary(path)
        assert loaded.src.dtype == np.int64
        np.testing.assert_array_equal(loaded.src, [0, 5])
        np.testing.assert_array_equal(loaded.dst, [2, 1])

    def test_empty_graph_and_isolated_vertices(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_binary(path, EdgeList([], [], 4))
        loaded = load_binary(path)
        assert loaded.num_edges == 0 and loaded.num_vertices == 4
        assert binary_edge_count(path) == (4, 0)
        assert list(iter_binary(path)) == []

    def test_streamed_iteration_matches_bulk_load(self, tmp_path):
        e = generate_rmat(8, rng=5)
        path = tmp_path / "g.bin"
        save_binary(path, e)
        chunks = list(iter_binary(path, chunk_edges=500))
        assert all(s.size <= 500 for s, _ in chunks)
        np.testing.assert_array_equal(np.concatenate([s for s, _ in chunks]), e.src)
        np.testing.assert_array_equal(np.concatenate([d for _, d in chunks]), e.dst)
        assert binary_edge_count(path) == (e.num_vertices, e.num_edges)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a binary edge list"):
            load_binary(path)

    def test_truncated_payload_rejected(self, tmp_path):
        e = EdgeList([0, 1, 2], [1, 2, 0], 3)
        path = tmp_path / "t.bin"
        save_binary(path, e)
        data = path.read_bytes()
        path.write_bytes(data[:-8])  # chop half an edge record off
        with pytest.raises(ValueError, match="truncated"):
            load_binary(path)
