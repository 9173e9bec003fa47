"""Tests for out-degrees, whole-graph properties and I/O."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList
from repro.graph.io import (
    binary_edge_count,
    iter_binary,
    load_npz,
    save_binary,
    save_npz,
)
from repro.graph.properties import analyze_graph, bfs_depth_estimate
from repro.graph.rmat import generate_rmat


class TestDegrees:
    def test_out_degrees(self):
        e = EdgeList([0, 0, 1], [1, 2, 2], 4)
        np.testing.assert_array_equal(out_degrees(e), [2, 1, 0, 0])


class TestProperties:
    def test_path_diameter_estimate(self):
        pytest.importorskip("scipy")
        e = EdgeList(np.arange(29), np.arange(1, 30), 30).prepared(hash_seed=None)
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

    def test_import_repro_leaves_asyncio_and_bench_unloaded(self):
        """``repro.bench`` and the cluster tier (which imports ``asyncio``)
        load on first use of one of their names, not on ``import repro``,
        nor on the benchmark adapter's imports."""
        root = Path(repro.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        probe = (
            "import sys; sys.path.insert(0, 'benchmarks/perf'); import repro, adapter; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('asyncio', 'ssl') "
            "or m.startswith(('repro.bench', 'repro.serve.cluster')))); "
            "repro.run_suite, repro.serve.ReplicaPool; "
            "print('asyncio' in sys.modules, 'repro.bench' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["[]", "True True"]


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


def _read_back(path, chunk_edges=1 << 20) -> list[np.ndarray]:
    """Each column of a binary edge list: its :func:`iter_binary` chunks joined."""
    return [np.concatenate(column) for column in zip(*iter_binary(path, chunk_edges))]


class TestBinaryIO:
    def test_roundtrip(self, tmp_path):
        e = generate_rmat(8, rng=3)
        path = tmp_path / "graph.bin"
        save_binary(path, e)
        src, dst = _read_back(path)
        assert binary_edge_count(path) == (e.num_vertices, e.num_edges)
        np.testing.assert_array_equal(src, e.src)
        np.testing.assert_array_equal(dst, e.dst)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_roundtrip_across_dtypes(self, tmp_path, dtype):
        e = EdgeList(
            np.array([0, 5], dtype=dtype), np.array([2, 1], dtype=dtype), 7
        )
        path = tmp_path / "g.bin"
        save_binary(path, e)
        src, dst = _read_back(path)
        assert src.dtype == np.int64
        np.testing.assert_array_equal(src, [0, 5])
        np.testing.assert_array_equal(dst, [2, 1])

    def test_weighted_roundtrip(self, tmp_path):
        """REPROEL2 streams back ``(src, dst, weights)`` triples; an empty
        weighted file streams nothing, and a cut one fails."""
        e = EdgeList([0, 1, 2], [1, 2, 0], 4, weights=[0.5, 2.0, 3.25])
        path = tmp_path / "w.bin"
        save_binary(path, e)
        assert path.read_bytes()[:8] == b"REPROEL2"
        assert [len(chunk) for chunk in iter_binary(path, chunk_edges=2)] == [3, 3]
        src, dst, weights = _read_back(path)
        np.testing.assert_array_equal(src, e.src)
        np.testing.assert_array_equal(dst, e.dst)
        np.testing.assert_array_equal(weights, e.weights)
        assert binary_edge_count(path) == (4, 3)
        path.write_bytes(path.read_bytes()[:-8])  # chop the last weight off
        with pytest.raises(ValueError, match="truncated"):
            list(iter_binary(path))
        save_binary(path, EdgeList([], [], 3, weights=[]))
        assert path.read_bytes()[:8] == b"REPROEL2"
        assert binary_edge_count(path) == (3, 0)
        assert list(iter_binary(path)) == []

    def test_empty_graph_and_isolated_vertices(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_binary(path, EdgeList([], [], 4))
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
            list(iter_binary(path))

    def test_truncated_payload_rejected(self, tmp_path):
        e = EdgeList([0, 1, 2], [1, 2, 0], 3)
        path = tmp_path / "t.bin"
        save_binary(path, e)
        data = path.read_bytes()
        path.write_bytes(data[:-8])  # chop half an edge record off
        with pytest.raises(ValueError, match="truncated"):
            list(iter_binary(path))
