"""Tests for the storage subsystem: codec, stores, out-of-core builds, wiring.

The load-bearing invariant throughout is *storage invariance*: traversal
answers and workload counters must be bit-identical whether the partitioned
graph lives in plain ndarrays, in an mmap-backed store, or in a compressed
store — on every execution backend.  The out-of-core build has its own
equivalence contract: fed the same edges, it must produce byte-identical
stores to the in-memory save path.
"""

from __future__ import annotations

import gc
import json
import os
import shutil

import numpy as np
import pytest

import repro
from repro.bench.runner import run_scenario, values_checksum
from repro.bench.scenarios import Scenario
from repro.core.engine import TraversalEngine
from repro.core.programs import (
    BatchedBFSLevels,
    BFSLevels,
    ConnectedComponents,
    KHopReachability,
)
from repro.core.frontier import run_visit
from repro.core.kernels import (
    backward_visit,
    batched_backward_visit,
    batched_forward_visit,
    contrib_visit,
    forward_visit,
    weighted_forward_visit,
)
from repro.exec import ProcessBackend
from repro.graph.csr import CSRGraph
from repro.graph.generators import wdc_like_edge_chunks
from repro.graph.rmat import generate_rmat, generate_rmat_edge_chunks, generate_rmat_edges
from repro.obs import Tracer, set_tracer
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import (
    STORAGE_NAMES,
    apply_storage,
    chunks_from_edgelist,
    compress_csr,
    external_build,
    StoreHandle,
    load_graph_store,
    save_graph_store,
    varint_encode,
    varint_sizes,
)
from repro.storage.codec import _varint_decode
from repro.utils.rss import max_rss_mb


# --------------------------------------------------------------------------- #
# Varint + compressed CSR codec
# --------------------------------------------------------------------------- #
class TestVarint:
    def test_roundtrip_random(self):
        gen = np.random.default_rng(7)
        values = gen.integers(0, 1 << 62, size=2000, dtype=np.int64)
        payload, sizes = varint_encode(values)
        assert payload.size == int(sizes.sum())
        np.testing.assert_array_equal(_varint_decode(payload), values)

    def test_boundary_values(self):
        # Every power-of-two boundary where the encoded size steps up.
        values = np.array(
            [0, 1, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 63) - 1], dtype=np.int64
        )
        payload, sizes = varint_encode(values)
        np.testing.assert_array_equal(sizes, varint_sizes(values))
        np.testing.assert_array_equal(_varint_decode(payload), values)

    def test_empty(self):
        payload, sizes = varint_encode(np.zeros(0, dtype=np.int64))
        assert payload.size == 0 and sizes.size == 0
        assert _varint_decode(payload).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_encode(np.array([-1], dtype=np.int64))


class TestCompressedCSR:
    def _random_csr(self, seed=3, num_rows=50, num_cols=400):
        gen = np.random.default_rng(seed)
        degrees = gen.integers(0, 12, size=num_rows)
        ro = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(degrees, out=ro[1:])
        cols = np.concatenate(
            [np.sort(gen.choice(num_cols, size=d, replace=False)) for d in degrees]
        ) if int(ro[-1]) else np.zeros(0, dtype=np.int64)
        return CSRGraph.unchecked(ro, cols.astype(np.int64), num_rows, num_cols)

    def test_full_decode_roundtrip(self):
        csr = self._random_csr()
        packed = compress_csr(csr)
        decoded = packed.decode()
        np.testing.assert_array_equal(decoded.row_offsets, csr.row_offsets)
        np.testing.assert_array_equal(decoded.column_indices, csr.column_indices)
        assert packed.num_edges == csr.num_edges
        assert packed.payload.nbytes < csr.column_indices.nbytes  # it compresses

    def test_decode_rows_subset(self):
        csr = self._random_csr(seed=5)
        packed = compress_csr(csr)
        rows = np.array([0, 7, 7, 49, 13], dtype=np.int64)
        partial = packed.decode_rows(rows)
        # The partial view keeps the full shape; requested rows are exact.
        assert partial.num_rows == csr.num_rows
        for r in rows:
            lo, hi = int(csr.row_offsets[r]), int(csr.row_offsets[r + 1])
            plo, phi = int(partial.row_offsets[r]), int(partial.row_offsets[r + 1])
            np.testing.assert_array_equal(
                partial.column_indices[plo:phi], csr.column_indices[lo:hi]
            )

    def test_empty_and_zero_degree_rows(self):
        ro = np.array([0, 0, 3, 3], dtype=np.int64)
        cols = np.array([2, 5, 9], dtype=np.int64)
        csr = CSRGraph.unchecked(ro, cols, 3, 10)
        packed = compress_csr(csr)
        decoded = packed.decode()
        np.testing.assert_array_equal(decoded.row_offsets, ro)
        np.testing.assert_array_equal(decoded.column_indices, cols)
        empty = compress_csr(CSRGraph.unchecked(np.zeros(1, np.int64), np.zeros(0, np.int64), 0, 4))
        assert empty.decode().num_edges == 0


# --------------------------------------------------------------------------- #
# Store save/load round trips
# --------------------------------------------------------------------------- #
class TestGraphStore:
    @pytest.mark.parametrize("storage", ["mmap", "compressed"])
    def test_roundtrip_preserves_everything(self, rmat_small, tmp_path, storage):
        layout = ClusterLayout.from_notation("1x2x2")
        graph = build_partitions(rmat_small, layout, 32)
        save_graph_store(graph, tmp_path / "store", storage=storage)
        loaded = load_graph_store(tmp_path / "store")

        assert loaded.storage == storage
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_directed_edges == graph.num_directed_edges
        assert loaded.layout.notation() == graph.layout.notation()
        assert loaded.census.as_dict() == graph.census.as_dict()
        np.testing.assert_array_equal(loaded.separation.degrees, graph.separation.degrees)
        np.testing.assert_array_equal(
            loaded.separation.delegate_vertices, graph.separation.delegate_vertices
        )
        for g in range(layout.num_gpus):
            for key in ("nn", "nd", "dn", "dd"):
                ours = getattr(loaded.gpus[g], key)
                theirs = getattr(graph.gpus[g], key)
                if hasattr(ours, "decode"):
                    ours = ours.decode()
                np.testing.assert_array_equal(ours.row_offsets, theirs.row_offsets)
                np.testing.assert_array_equal(ours.column_indices, theirs.column_indices)

    def test_mmap_arrays_are_zero_copy_views(self, rmat_small, tmp_path):
        layout = ClusterLayout.from_notation("1x1x2")
        graph = build_partitions(rmat_small, layout, 64)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        loaded = load_graph_store(tmp_path / "s")
        # Views over the mapped segment own no data of their own.
        assert not loaded.gpus[0].nn.column_indices.flags["OWNDATA"]
        assert not loaded.separation.degrees.flags["OWNDATA"]

    def test_store_descriptor_lists_every_csr(self, rmat_small, tmp_path):
        layout = ClusterLayout.from_notation("1x1x2")
        graph = build_partitions(rmat_small, layout, 64)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        desc = load_graph_store(tmp_path / "s").store.descriptor()
        assert desc["segment"].startswith("file://")
        csrs = [gpu["csrs"] for gpu in desc["gpus"]]
        assert [list(entries) for entries in csrs] == [["nn", "nd", "dn", "dd"]] * 2
        assert all(e["kind"] == "raw" for entries in csrs for e in entries.values())
        assert {
            f"g{g}.{key}.{part}" for g in range(2) for key in ("nn", "nd", "dn", "dd")
            for part in ("ro", "ci")
        } <= set(desc["arrays"])

    def test_store_handle_array_access(self, rmat_small, tmp_path):
        layout = ClusterLayout.from_notation("1x1x1")
        graph = build_partitions(rmat_small, layout, 64)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        handle = StoreHandle(tmp_path / "s")
        np.testing.assert_array_equal(handle.array("sep.degrees"), graph.separation.degrees)
        with pytest.raises(KeyError):
            handle.array("no.such.array")


class TestDamagedStore:
    """A ``graph.bin`` shorter or longer than its manifest says fails at
    attach, naming the store and both byte counts."""

    @pytest.fixture()
    def store(self, tmp_path):
        graph = build_partitions(generate_rmat(10, rng=3), ClusterLayout.from_notation("2x1x2"), 32)
        return save_graph_store(graph, tmp_path / "s", storage="mmap")

    @staticmethod
    def resize(store, delta: int) -> tuple[int, int]:
        segment = store / "graph.bin"
        size = segment.stat().st_size
        os.truncate(segment, size + delta)
        return size, size + delta

    @pytest.mark.parametrize("delta", [-64, -1, 8])
    def test_attach_checks_the_segment_length(self, store, delta):
        expected, actual = self.resize(store, delta)
        message = f"expects {expected:,} bytes of graph.bin, the file holds {actual:,}"
        with pytest.raises(ValueError, match=message) as caught:
            load_graph_store(store)
        assert str(store) in str(caught.value)

    def test_cli_prints_one_error_line(self, store, capsys):
        from repro.cli import main

        self.resize(store, -64)
        assert main(["bfs", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: graph store {store} is truncated")
        assert err.count("\n") == 1


class TestRebuiltStore:
    """A store rebuilt at the path of one already loaded loads as the new
    graph, on every backend, and a dropped store-backed graph unmaps its file."""

    LAYOUT = ClusterLayout.from_notation("2x1x2")

    def graphs(self):
        """Two different graphs; the second is the larger, so a stale mapping
        of the first never reads past the end of the rewritten file."""
        return (
            build_partitions(generate_rmat(10, rng=3), self.LAYOUT, 32),
            build_partitions(generate_rmat(11, rng=4), self.LAYOUT, 32),
        )

    @staticmethod
    def assert_same_graph(loaded, expected) -> None:
        assert loaded.num_vertices == expected.num_vertices
        assert loaded.num_directed_edges == expected.num_directed_edges
        for ours, theirs in zip(loaded.gpus, expected.gpus):
            for key in ("nn", "nd", "dn", "dd"):
                a, b = getattr(ours, key), getattr(theirs, key)
                np.testing.assert_array_equal(a.row_offsets, b.row_offsets)
                np.testing.assert_array_equal(a.column_indices, b.column_indices)

    def test_rmtree_and_rebuild_loads_the_new_graph(self, tmp_path):
        first, second = self.graphs()
        store = save_graph_store(first, tmp_path / "s", storage="mmap")
        old = load_graph_store(store)
        shutil.rmtree(store)
        save_graph_store(second, store, storage="mmap")
        new = load_graph_store(store)
        self.assert_same_graph(new, second)
        assert _run_programs(new, "inline") == _run_programs(second, "inline")
        self.assert_same_graph(old, first)  # the old graph still reads its own file

    def test_saving_over_the_directory_loads_the_new_graph(self, tmp_path):
        first, second = self.graphs()
        store = save_graph_store(first, tmp_path / "s", storage="mmap")
        load_graph_store(store)
        save_graph_store(second, store, storage="mmap")
        self.assert_same_graph(load_graph_store(store), second)

    @pytest.mark.parametrize("storage", ["mmap", "compressed"])
    def test_process_backend_reads_the_rebuilt_store(self, tmp_path, storage):
        first, second = self.graphs()
        store = save_graph_store(first, tmp_path / "s", storage=storage)
        for graph in (first, second):
            if graph is second:
                shutil.rmtree(store)
                save_graph_store(second, store, storage=storage)
            loaded = load_graph_store(store)
            backend = ProcessBackend(loaded, workers=2)
            try:
                answers = _run_programs(loaded, backend)
            finally:
                backend.close()
            assert answers == _run_programs(loaded, "inline") == _run_programs(graph, "inline")

    def test_workers_refuse_a_store_rebuilt_under_its_graph(self, tmp_path):
        first, second = self.graphs()
        store = save_graph_store(first, tmp_path / "s", storage="mmap")
        stale = load_graph_store(store)
        shutil.rmtree(store)
        save_graph_store(second, store, storage="mmap")
        backend = ProcessBackend(stale, workers=2)
        try:
            with pytest.raises(ValueError, match="changed since its graph was loaded"):
                _run_programs(stale, backend)
        finally:
            backend.close()

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_dropped_graph_unmaps_its_store(self, tmp_path):
        store = save_graph_store(self.graphs()[0], tmp_path / "s", storage="compressed")
        segment = str((store / "graph.bin").resolve())

        def mapped() -> bool:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                return segment in fh.read()

        graph = load_graph_store(store)
        _run_programs(graph, "inline")
        assert mapped()
        del graph
        gc.collect()
        assert not mapped()


# --------------------------------------------------------------------------- #
# apply_storage guard rails
# --------------------------------------------------------------------------- #
class TestApplyStorage:
    def test_memory_is_identity(self, rmat_small):
        graph = build_partitions(rmat_small, ClusterLayout.from_notation("1x1x1"), 64)
        assert apply_storage(graph, "memory") is graph

    def test_unknown_mode_rejected(self, rmat_small):
        graph = build_partitions(rmat_small, ClusterLayout.from_notation("1x1x1"), 64)
        with pytest.raises(ValueError, match="storage must be one of"):
            apply_storage(graph, "disk")

    def test_reconversion_rejected(self, rmat_small, tmp_path):
        graph = build_partitions(rmat_small, ClusterLayout.from_notation("1x1x1"), 64)
        mapped = apply_storage(graph, "mmap", path=tmp_path / "s")
        with pytest.raises(ValueError, match="already mmap-backed"):
            apply_storage(mapped, "compressed")
        with pytest.raises(ValueError, match="cannot convert"):
            apply_storage(mapped, "memory")


# --------------------------------------------------------------------------- #
# Compressed rows decode where a visit's CSR is resolved, on every backend
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def zgraphs(tmp_path_factory):
    """A weighted graph in memory and as a compressed store."""
    edges = generate_rmat(10, rng=3, weights_seed=5)
    raw = build_partitions(edges, ClusterLayout.from_notation("1x1x2"), 64)
    path = tmp_path_factory.mktemp("zstore") / "s"
    return raw, apply_storage(raw, "compressed", path=path)


def _visits(raw):
    """The ``run_visit`` arguments after the graph of one visit per visit
    kind on GPU 0 (nn pushes; backward dn pulls scan the nd CSR against a
    dense delegate buffer)."""
    gpu = raw.gpus[0]
    d = raw.num_delegates
    rows = np.flatnonzero(gpu.nn.out_degrees() > 0)
    candidates = np.arange(gpu.num_local, dtype=np.int64)
    words = np.arange(1, rows.size + 1, dtype=np.uint64).reshape(-1, 1)
    flags = np.zeros(d, dtype=bool)
    flags[::3] = True
    lanes = (np.arange(d, dtype=np.uint64) % np.uint64(5)).reshape(-1, 1)
    wanted = np.full((candidates.size, 1), 7, dtype=np.uint64)
    push = (0, "nn", "nn")
    pull = (0, "dn", "nd")
    return {
        "forward": (*push, forward_visit, rows),
        "weighted": (*push, weighted_forward_visit, rows),
        "contrib": (*push, contrib_visit, rows, rows * 3 + 1),
        "backward": (*pull, backward_visit, candidates, flags),
        "batched forward": (*push, batched_forward_visit, rows, words),
        "batched backward": (*pull, batched_backward_visit, candidates, lanes, wanted),
    }


def _assert_outputs_equal(a, b) -> None:
    fields_a, fields_b = vars(a), vars(b)
    assert fields_a.keys() == fields_b.keys()
    for name, value in fields_a.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, fields_b[name])
        else:
            assert value == fields_b[name], name


class TestDecodeAtPlanBoundary:
    """The boundary between the walk's decision and its kernel: where
    ``run_visit`` resolves a visit's CSR, compressed rows are decoded."""

    KINDS = ["forward", "weighted", "contrib", "backward", "batched forward", "batched backward"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_compressed_outputs_equal_raw(self, zgraphs, kind):
        raw, compressed = zgraphs
        visit = _visits(raw)[kind]
        assert not isinstance(compressed.gpus[0].nn, CSRGraph)
        out, compressed_out = (run_visit(graph, *visit) for graph in (raw, compressed))
        assert out.edges_examined > 0
        _assert_outputs_equal(out, compressed_out)

    def test_one_lazy_decode_span_per_decoded_visit(self, zgraphs):
        raw, compressed = zgraphs
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            for kind, visit in _visits(raw).items():
                expected = run_visit(raw, *visit)
                before = len(tracer.events)
                _assert_outputs_equal(expected, run_visit(compressed, *visit))
                decodes = [
                    e for e in tracer.events[before:] if e["name"] == "lazy-decode"
                ]
                assert [e["cat"] for e in decodes] == ["storage"], kind
                assert decodes[0]["tid"] == 1  # GPU 0's track
        finally:
            set_tracer(previous)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_raw_visit_records_one_worker_span(self, zgraphs, kind):
        """A raw CSR decodes nothing: the visit's one span is its kernel's,
        named for the kernel and its direction, on GPU 0's track."""
        raw, _ = zgraphs
        visit = _visits(raw)[kind]
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            out = run_visit(raw, *visit)
        finally:
            set_tracer(previous)
        direction = "pull" if out.backward else "push"
        assert direction == ("pull" if "backward" in kind else "push")
        assert [(e["cat"], e["name"], e["tid"]) for e in tracer.events] == [
            ("worker", f"{visit[1]}:{direction}", 1)
        ]

    def test_an_untraced_visit_reads_no_clock(self, zgraphs, monkeypatch):
        raw, compressed = zgraphs

        def clock():
            raise AssertionError("an untraced visit read the clock")

        monkeypatch.setattr("repro.core.frontier.now_s", clock)
        for visit in _visits(raw).values():
            _assert_outputs_equal(run_visit(raw, *visit), run_visit(compressed, *visit))

    def test_a_process_run_traces_the_inline_decode_spans(self, zgraphs):
        """A run placed in a pool worker returns the same ``lazy-decode``
        spans, on the same GPU tracks, as the run in place."""
        _, compressed = zgraphs
        source = int(np.argmax(compressed.separation.degrees))
        tracks = {}
        for backend in ("inline", "process"):
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                with TraversalEngine(compressed, backend=backend) as engine:
                    engine.run(BFSLevels(source))
            finally:
                set_tracer(previous)
            tracks[backend] = sorted(
                (e["cat"], e["tid"]) for e in tracer.events if e["name"] == "lazy-decode"
            )
        assert tracks["inline"] and tracks["process"] == tracks["inline"]


# --------------------------------------------------------------------------- #
# Edge chunk streams + chunked generators
# --------------------------------------------------------------------------- #
class TestEdgeChunks:
    def test_chunks_from_edgelist_is_exact_partition(self):
        e = generate_rmat_edges(7, rng=4)
        chunks = list(chunks_from_edgelist(e, 700))
        assert all(s.size <= 700 for s, _ in chunks)
        np.testing.assert_array_equal(np.concatenate([s for s, _ in chunks]), e.src)

    @pytest.mark.parametrize("chunk_edges", [1 << 11, 1 << 13])
    def test_rmat_chunks_deterministic_and_bounded(self, chunk_edges):
        a = list(generate_rmat_edge_chunks(10, seed=5, chunk_edges=chunk_edges))
        b = list(generate_rmat_edge_chunks(10, seed=5, chunk_edges=chunk_edges))
        assert len(a) == len(b)
        total = 0
        for (sa, da), (sb, db) in zip(a, b):
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(da, db)
            assert sa.size <= chunk_edges
            assert int(sa.max()) < 1 << 10 and int(da.max()) < 1 << 10
            total += sa.size
        assert total == 16 * (1 << 10)  # Graph500 edge factor

    def test_wdc_chunks_deterministic_and_bounded(self):
        kwargs = dict(num_vertices=1 << 11, seed=9, chunk_edges=1 << 11)
        a = list(wdc_like_edge_chunks(**kwargs))
        b = list(wdc_like_edge_chunks(**kwargs))
        assert len(a) == len(b) and len(a) > 1
        for (sa, da), (sb, db) in zip(a, b):
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(da, db)
            assert sa.size <= 1 << 11
            assert int(max(sa.max(), da.max())) < 1 << 11
            assert int(min(sa.min(), da.min())) >= 0

    def test_chunk_size_is_part_of_the_draw(self):
        # Chunked generators draw per chunk, so a different chunking is a
        # *different* (equally valid) graph — exactly why build scenarios
        # keep chunk_edges in their spec identity.
        fine = np.concatenate(
            [s for s, _ in generate_rmat_edge_chunks(8, seed=3, chunk_edges=512)]
        )
        coarse = np.concatenate(
            [s for s, _ in generate_rmat_edge_chunks(8, seed=3, chunk_edges=4096)]
        )
        assert fine.size == coarse.size
        assert not np.array_equal(fine, coarse)


# --------------------------------------------------------------------------- #
# The out-of-core build vs the in-memory pipeline
# --------------------------------------------------------------------------- #
class TestExternalBuild:
    @pytest.mark.parametrize("storage", ["mmap", "compressed"])
    @pytest.mark.parametrize("notation", ["1x1x1", "1x2x2"])
    def test_bitwise_equivalent_to_in_memory_build(self, tmp_path, storage, notation):
        raw = generate_rmat_edges(9, rng=6)
        layout = ClusterLayout.from_notation(notation)
        prepared = raw.prepared(hash_seed=1)
        graph = build_partitions(prepared, layout, 24)
        save_graph_store(graph, tmp_path / "mem", storage=storage)

        _, report = external_build(
            chunks_from_edgelist(raw, 1500),
            raw.num_vertices,
            layout,
            tmp_path / "ext",
            threshold=24,
            storage=storage,
            block_edges=1000,
        )
        assert report["num_directed_edges"] == prepared.num_edges

        mem = load_graph_store(tmp_path / "mem")
        ext = load_graph_store(tmp_path / "ext")
        np.testing.assert_array_equal(mem.separation.degrees, ext.separation.degrees)
        assert mem.census.as_dict() == ext.census.as_dict()
        for g in range(layout.num_gpus):
            for key in ("nn", "nd", "dn", "dd"):
                a, b = getattr(mem.gpus[g], key), getattr(ext.gpus[g], key)
                if hasattr(a, "decode"):
                    a, b = a.decode(), b.decode()
                np.testing.assert_array_equal(a.row_offsets, b.row_offsets)
                np.testing.assert_array_equal(a.column_indices, b.column_indices)
            np.testing.assert_array_equal(
                mem.gpus[g].nd_source_list, ext.gpus[g].nd_source_list
            )

    def test_block_size_invariance(self, tmp_path):
        raw = generate_rmat_edges(8, rng=2)
        layout = ClusterLayout.from_notation("1x1x2")
        for label, block in (("a", 333), ("b", 1 << 20)):
            external_build(
                chunks_from_edgelist(raw, 900),
                raw.num_vertices,
                layout,
                tmp_path / label,
                storage="mmap",
                block_edges=block,
            )
        a = (tmp_path / "a" / "graph.bin").read_bytes()
        b = (tmp_path / "b" / "graph.bin").read_bytes()
        assert a == b

    def test_streamed_threshold_matches_suggestion(self, tmp_path):
        from repro.partition.delegates import suggest_threshold

        raw = generate_rmat_edges(9, rng=8)
        layout = ClusterLayout.from_notation("1x2x2")
        _, report = external_build(
            chunks_from_edgelist(raw, 2000),
            raw.num_vertices,
            layout,
            tmp_path / "s",
            threshold=None,
            storage="mmap",
            block_edges=1500,
        )
        expected = suggest_threshold(raw.prepared(hash_seed=1), layout.num_gpus)
        assert report["threshold"] == int(expected)

    @pytest.mark.parametrize("hash_seed", [1, None])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_range_endpoint_rejected(self, tmp_path, bad, hash_seed):
        """A chunk endpoint outside ``[0, n)`` is one ``ValueError`` naming it,
        before the hash permutation could wrap ``-1`` onto a real vertex."""
        chunks = [(np.array([0, 1, 2]), np.array([1, 2, 3])), (np.array([5]), np.array([bad]))]
        with pytest.raises(ValueError, match=f"edge endpoint {bad} out of range"):
            external_build(
                chunks,
                64,
                ClusterLayout.from_notation("1x1x2"),
                tmp_path / "bad",
                threshold=4,
                hash_seed=hash_seed,
            )


# --------------------------------------------------------------------------- #
# The storage-invariance contract: identical counters on every backend
# --------------------------------------------------------------------------- #
def _run_programs(graph, backend):
    """Deterministic fingerprint of four programs + one batched run."""
    engine = TraversalEngine(graph, backend=backend)
    out = {}
    try:
        for name, program in (
            ("levels", BFSLevels(source=1)),
            ("parents", ConnectedComponents()),
            ("khop", KHopReachability(source=1, max_hops=3)),
        ):
            result = engine.run(program)
            out[name] = (
                int(result.total_edges_examined),
                int(result.iterations),
                values_checksum(result),
            )
        batch = engine.run_batch(BatchedBFSLevels(sources=[1, 2, 3, 5]))
        out["batched"] = [values_checksum(r) for r in batch.per_source_results()]
    finally:
        engine.close()
    return out


class TestStorageInvariance:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_counters_identical_across_modes(self, rmat_small, tmp_path, backend):
        layout = ClusterLayout.from_notation("1x2x2")
        base = build_partitions(rmat_small, layout, 32)
        expected = _run_programs(base, backend)
        for storage in ("mmap", "compressed"):
            graph = load_graph_store_for(base, tmp_path / storage, storage)
            assert _run_programs(graph, backend) == expected, (storage, backend)


def load_graph_store_for(graph, path, storage):
    save_graph_store(graph, path, storage=storage)
    return load_graph_store(path)


# --------------------------------------------------------------------------- #
# Session + environment wiring
# --------------------------------------------------------------------------- #
class TestSessionStorage:
    def test_fluent_storage_is_counter_invariant(self, tmp_path):
        plain = repro.session().generate(scale=9, seed=4).build().bfs(1)
        packed = (
            repro.session()
            .generate(scale=9, seed=4)
            .storage("compressed", path=tmp_path / "s")
            .build()
            .bfs(1)
        )
        assert values_checksum(plain) == values_checksum(packed)
        assert plain.total_edges_examined == packed.total_edges_examined

    def test_storage_name_and_mutate_guard(self, tmp_path):
        gs = repro.session().generate(scale=8).storage("mmap", path=tmp_path / "s").build()
        assert gs.storage_name == "mmap"
        with pytest.raises(RuntimeError, match="stores are immutable"):
            gs.mutate()

    def test_env_var_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORAGE", "mmap")
        gs = repro.session().generate(scale=8).build()
        assert gs.storage_name == "mmap"

    def test_invalid_storage_rejected(self):
        with pytest.raises(ValueError, match="storage must be one of"):
            repro.session().storage("ssd")


# --------------------------------------------------------------------------- #
# Bench integration: storage axis, build scenarios, gate phase, selectors
# --------------------------------------------------------------------------- #
class TestBenchStorage:
    def test_record_carries_storage_outside_spec(self):
        spec = Scenario("t-lv", "rmat", 9, "levels", sources=1)
        records = {
            st: run_scenario(spec, repeats=1, check_determinism=False, storage=st)
            for st in STORAGE_NAMES
        }
        specs = {json.dumps(r["spec"], sort_keys=True) for r in records.values()}
        assert len(specs) == 1  # storage never lands in the spec
        base = records["memory"]["counters"]
        for st, record in records.items():
            assert record["storage"] == st
            assert record["counters"] == base
            assert set(record["max_rss_mb"]) >= {"graph_build", "partition", "traversal"}
            if st != "memory":
                assert record["wall_s"]["storage"] >= 0.0

    def test_build_scenario_record_shape(self):
        spec = Scenario(
            "t-build", "rmat", 9, "build", sources=1, chunk_edges=2048, block_edges=2048
        )
        record = run_scenario(spec, repeats=1, check_determinism=False)
        assert record["gate_phase"] == "graph_build"
        assert record["storage"] == "mmap"  # memory coerces to a real store
        assert record["spec"]["chunk_edges"] == 2048
        assert "block_edges" not in record["spec"]
        assert record["build"]["num_chunks"] == 4  # 16 * 2**9 / 2048
        for phase in ("ingest", "merge", "threshold", "distribute", "assemble"):
            assert record["wall_s"][f"build_{phase}"] >= 0.0
        assert record["counters"]["total_edges_examined"] > 0

    def test_build_counters_storage_invariant(self):
        spec = Scenario(
            "t-build2", "rmat", 9, "build", sources=2, chunk_edges=4096, block_edges=4096
        )
        a = run_scenario(spec, repeats=1, check_determinism=False, storage="mmap")
        b = run_scenario(spec, repeats=1, check_determinism=False, storage="compressed")
        assert a["counters"] == b["counters"]
        assert a["sources"] == b["sources"]

    def test_mutating_scenarios_pin_memory(self):
        dyn = Scenario(
            "t-dyn", "rmat", 8, "dynamic", update_batches=2, update_edges=50
        )
        record = run_scenario(dyn, repeats=1, check_determinism=False, storage="mmap")
        assert record["storage"] == "memory"


# --------------------------------------------------------------------------- #
# Peak-RSS plumbing
# --------------------------------------------------------------------------- #
class TestPeakRSS:
    def test_max_rss_positive_and_monotone(self):
        first = max_rss_mb()
        assert first > 0
        ballast = np.ones(1 << 22, dtype=np.int64)  # 32 MiB
        ballast[::4096] = 2  # touch every page
        assert max_rss_mb() >= first

    def test_census_json_reports_rss(self, capsys):
        from repro.cli import main

        assert main(["census", "--scale", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_rss_mb"] > 0


# --------------------------------------------------------------------------- #
# CLI build + store-backed traversal commands
# --------------------------------------------------------------------------- #
class TestCLIStorage:
    def test_build_then_traverse_store(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import save_npz

        # The chunked generators are a *different* deterministic draw than
        # the in-memory ones, so equivalence is asserted through a shared
        # npz: the external build prepares raw edges exactly like
        # EdgeList.prepared(hash_seed=1) does.
        raw = generate_rmat_edges(9, rng=3)
        save_npz(tmp_path / "raw.npz", raw)
        save_npz(tmp_path / "prep.npz", raw.prepared(hash_seed=1))

        store = tmp_path / "store"
        assert main([
            "build", "--npz", str(tmp_path / "raw.npz"), "--storage", "compressed",
            "--out", str(store), "--chunk-edges", "4096", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["storage"] == "compressed"
        assert report["max_rss_mb"] > 0

        assert main(["bfs", "--store", str(store), "--sources", "1", "--json"]) == 0
        store_run = json.loads(capsys.readouterr().out)

        assert main([
            "bfs", "--npz", str(tmp_path / "prep.npz"), "--sources", "1", "--json",
        ]) == 0
        mem_run = json.loads(capsys.readouterr().out)
        assert (
            store_run["runs"][0]["edges_examined"]
            == mem_run["runs"][0]["edges_examined"]
        )

    def test_validate_rejected_for_stores(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        assert main([
            "build", "--scale", "8", "--storage", "mmap", "--out", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["bfs", "--store", str(store), "--validate"]) == 2

    def test_storage_flag_on_components(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "components", "--scale", "8", "--storage", "mmap", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["storage"] == "mmap"
