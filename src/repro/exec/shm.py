"""Shared-memory buffers backing the process execution backend.

The per-GPU kernel tasks of a super-step read two kinds of data:

* the **static graph** — every GPU's four CSR subgraphs (row offsets +
  column indices), which never change after partitioning and dominate the
  bytes a worker touches; and
* the **per-step dense frontier buffers** a backward pull tests parents
  against — the replicated delegate frontier and, when some nd kernel pulls,
  that GPU's local-slot frontier; ``bool`` flags for one-bit frontiers,
  ``uint64`` lane words for batched ones.

Shipping either through the task pickle every super-step would serialise
the very data the pool exists to avoid copying, so
:class:`SharedGraphStore` places both in POSIX shared memory
(:mod:`multiprocessing.shared_memory`): the graph is exported once at
backend construction, the dense-frontier scratch is rewritten in place by the
coordinator before each dispatch (the pool barrier orders the writes
against the reads), and tasks carry only a small descriptor of names and
offsets.  Workers attach lazily and cache their attachments, so after the
first task per graph a worker reads everything through plain ``numpy``
views at memory speed.

All offsets are 8-byte aligned so the views are aligned for every dtype
involved (``int64`` offsets, ``int32``/``int64`` columns, ``uint64`` lane
words, ``bool`` flags).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "SharedGraphStore",
    "SegmentCache",
    "csrs_from_descriptor",
    "dense_views_from_descriptor",
    "csr_view",
]

#: Subgraph attributes exported per GPU, in a fixed order.
CSR_KEYS = ("nn", "nd", "dn", "dd")


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


def csr_view(
    row_offsets: np.ndarray,
    column_indices: np.ndarray,
    num_rows: int,
    num_cols: int,
    edge_weights: np.ndarray | None = None,
) -> CSRGraph:
    """A :class:`CSRGraph` over existing buffers, skipping re-validation.

    The arrays were validated when the partition was built; re-running the
    O(edges) checks on every worker attach would only burn the memory
    bandwidth the shared mapping saves.
    """
    csr = object.__new__(CSRGraph)
    csr.row_offsets = row_offsets
    csr.column_indices = column_indices
    csr.num_rows = int(num_rows)
    csr.num_cols = int(num_cols)
    csr.edge_weights = edge_weights
    return csr


class FileSegment:
    """A memory-mapped file posing as a shared-memory segment.

    Graph stores (:mod:`repro.storage.segments`) are addressed with
    ``file://<path>`` segment names; attaching maps the file read-only and
    exposes the same ``buf``/``close`` surface
    :class:`multiprocessing.shared_memory.SharedMemory` has, so the cache,
    view building and eviction logic need no storage-specific branches.
    """

    def __init__(self, path: str) -> None:
        import mmap as _mmap

        self._file = open(path, "rb")
        import os as _os

        size = _os.fstat(self._file.fileno()).st_size
        self._mm = _mmap.mmap(self._file.fileno(), size, access=_mmap.ACCESS_READ)
        self.buf = memoryview(self._mm)

    def close(self) -> None:
        self.buf.release()
        self._mm.close()
        self._file.close()


#: Prefix marking a segment name as a file path rather than POSIX shm.
FILE_SEGMENT_PREFIX = "file://"


class SegmentCache:
    """Worker-side LRU cache of attached shared-memory segments.

    Keeps at most ``capacity`` segments attached; evicted segments are
    closed (their memory is freed once every process has dropped them,
    since the coordinator unlinks segments it replaces or retires).
    ``file://`` names attach graph-store files by mmap instead of POSIX
    shared memory; everything downstream of the attach is identical.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = int(capacity)
        self._segments: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
        #: Derived structures (CSR dictionaries) keyed by segment name, so a
        #: worker rebuilds views only when it first sees a graph.
        self.derived: dict[str, object] = {}

    def get(self, name: str) -> shared_memory.SharedMemory:
        segment = self._segments.get(name)
        if segment is not None:
            self._segments.move_to_end(name)
            return segment
        if name.startswith(FILE_SEGMENT_PREFIX):
            segment = FileSegment(name[len(FILE_SEGMENT_PREFIX) :])
        else:
            segment = shared_memory.SharedMemory(name=name)
        self._segments[name] = segment
        while len(self._segments) > self.capacity:
            stale_name, stale = self._segments.popitem(last=False)
            self.derived.pop(stale_name, None)
            try:
                stale.close()
            except BufferError:
                # Some numpy view into this mapping is still alive (e.g. a
                # task mid-flight holds CSR views).  Drop our reference and
                # let the mapping unmap when the last view dies — never
                # crash the worker over an eviction.
                pass
        return segment

    def touch(self, name: str) -> None:
        """Refresh ``name``'s recency without (re)attaching it."""
        if name in self._segments:
            self._segments.move_to_end(name)

    def array(self, name: str, offset: int, dtype, shape) -> np.ndarray:
        """A numpy view into segment ``name`` at ``offset``."""
        segment = self.get(name)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(segment.buf, dtype=dtype, count=count, offset=offset)
        return view.reshape(shape)


def csrs_from_descriptor(cache: SegmentCache, descriptor: dict) -> dict:
    """Materialise ``{(gpu, key): CSRGraph}`` views from a graph descriptor."""
    name = descriptor["segment"]
    built = cache.derived.get(name)
    if built is not None:
        # Mark the backing segment hot: the derived fast path bypasses
        # ``get``, and without the touch a heavily-reused graph segment
        # looks LRU-cold and can be evicted from under its own live views
        # while this very task still reads them.
        cache.touch(name)
        return built
    csrs: dict = {}
    for (gpu, key), entry in descriptor["csrs"].items():
        if entry[0] == "z":
            # Compressed store entry: varint payload + byte offsets in place
            # of a raw column array (see repro.storage.segments).  Weighted
            # entries append the raw weight-array offset.
            from repro.storage.codec import CompressedCSR

            _, ro_off, bo_off, pl_off, pl_len, num_rows, num_edges, col_dtype, num_cols = entry[:9]
            weights = (
                cache.array(name, entry[9], np.float64, (num_edges,))
                if len(entry) > 9
                else None
            )
            csrs[(gpu, key)] = CompressedCSR(
                payload=cache.array(name, pl_off, np.uint8, (pl_len,)),
                byte_offsets=cache.array(name, bo_off, np.int64, (num_rows + 1,)),
                row_offsets=cache.array(name, ro_off, np.int64, (num_rows + 1,)),
                num_rows=int(num_rows),
                num_cols=int(num_cols),
                column_dtype=np.dtype(col_dtype),
                edge_weights=weights,
            )
            continue
        ro_off, num_rows, ci_off, num_edges, col_dtype, num_cols = entry[:6]
        row_offsets = cache.array(name, ro_off, np.int64, (num_rows + 1,))
        columns = cache.array(name, ci_off, np.dtype(col_dtype), (num_edges,))
        weights = (
            cache.array(name, entry[6], np.float64, (num_edges,))
            if len(entry) > 6
            else None
        )
        csrs[(gpu, key)] = csr_view(row_offsets, columns, num_rows, num_cols, weights)
    cache.derived[name] = csrs
    return csrs


class SharedGraphStore:
    """Coordinator-side owner of one graph's shared-memory buffers."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.num_delegates = int(graph.num_delegates)
        self.num_locals = tuple(int(gpu.num_local) for gpu in graph.gpus)
        self._closed = False

        # ---- static graph segment ------------------------------------- #
        storage = getattr(graph, "storage", "memory")
        if storage != "memory" and getattr(graph, "storage_path", None):
            # Store-backed graph: workers attach the store's graph.bin by
            # mmap (``file://`` segment) — no shm copy of the graph exists.
            from repro.storage.segments import store_graph_descriptor

            self._graph_segment = None
            self._graph_descriptor = store_graph_descriptor(graph.storage_path)
        else:
            entries: dict = {}
            offset = 0
            arrays: list[tuple[int, np.ndarray]] = []
            for g, gpu in enumerate(graph.gpus):
                for key in CSR_KEYS:
                    csr = getattr(gpu, key)
                    ro = np.ascontiguousarray(csr.row_offsets, dtype=np.int64)
                    ci = np.ascontiguousarray(csr.column_indices)
                    ro_off = _align(offset)
                    offset = ro_off + ro.nbytes
                    ci_off = _align(offset)
                    offset = ci_off + ci.nbytes
                    arrays.append((ro_off, ro))
                    arrays.append((ci_off, ci))
                    entry = (
                        ro_off,
                        csr.num_rows,
                        ci_off,
                        csr.num_edges,
                        ci.dtype.str,
                        csr.num_cols,
                    )
                    if csr.edge_weights is not None:
                        w = np.ascontiguousarray(csr.edge_weights, dtype=np.float64)
                        w_off = _align(offset)
                        offset = w_off + w.nbytes
                        arrays.append((w_off, w))
                        entry = entry + (w_off,)
                    entries[(g, key)] = entry
            self._graph_segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
            buf = self._graph_segment.buf
            for arr_off, arr in arrays:
                view = np.frombuffer(buf, dtype=arr.dtype, count=arr.size, offset=arr_off)
                view[:] = arr
            self._graph_descriptor = {
                "segment": self._graph_segment.name,
                "csrs": entries,
            }

        # ---- dense-frontier scratch (rewritten before each dispatch) ---- #
        self._dense_segment: shared_memory.SharedMemory | None = None
        self._dense_row_bytes = 0
        self._dense_offsets: tuple = ()
        self._ensure_dense_capacity(1)

    @property
    def graph_descriptor(self) -> dict:
        """Picklable description of the static graph segment (shipped per task)."""
        return self._graph_descriptor

    # ------------------------------------------------------------------ #
    # Per-step dense frontier buffers (coordinator side)
    # ------------------------------------------------------------------ #
    def _ensure_dense_capacity(self, row_bytes: int) -> None:
        """Size the scratch for dense buffers of ``row_bytes`` bytes per row.

        The segment holds one 8-aligned block per buffer — the delegate rows
        first, then each GPU's local slots — every block ``rows * row_bytes``
        long, so one layout serves 1-byte flags and ``nwords * 8``-byte lane
        words alike.  Growing replaces the segment under a fresh name (tasks
        always name the segment they expect, so workers never read a stale
        layout); the old segment is unlinked and lingers only until the
        workers' caches evict their attachment.
        """
        if row_bytes <= self._dense_row_bytes:
            return
        offsets = []
        offset = 0
        for rows in (self.num_delegates, *self.num_locals):
            offsets.append(offset)
            offset = _align(offset + rows * row_bytes)
        if self._dense_segment is not None:
            self._dense_segment.close()
            self._dense_segment.unlink()
        self._dense_segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self._dense_row_bytes = row_bytes
        self._dense_offsets = tuple(offsets)

    def publish_dense(self, delegate: np.ndarray, local: list) -> tuple:
        """Write one step's dense frontier buffers; returns their descriptor.

        ``delegate`` is the replicated delegate buffer; ``local[g]`` is GPU
        ``g``'s own buffer or ``None`` when none of its tasks pulls from it.
        All share one dtype and row shape.  The returned picklable descriptor
        is what :func:`dense_views_from_descriptor` rebuilds worker-side views
        from.
        """
        dtype = delegate.dtype
        row_shape = delegate.shape[1:]
        self._ensure_dense_capacity(dtype.itemsize * math.prod(row_shape))
        buf = self._dense_segment.buf
        for offset, dense in zip(self._dense_offsets, (delegate, *local)):
            if dense is not None and dense.size:
                view = np.frombuffer(buf, dtype=dtype, count=dense.size, offset=offset)
                view.reshape(dense.shape)[...] = dense
        return (
            self._dense_segment.name,
            dtype.str,
            row_shape,
            self._dense_offsets,
            (self.num_delegates, *self.num_locals),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The graph segment is None for store-backed graphs (the store file
        # belongs to the store, never unlinked here).
        for segment in (self._graph_segment, self._dense_segment):
            if segment is None:
                continue
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


def dense_views_from_descriptor(
    cache: SegmentCache, descriptor: tuple, gpu: int, has_local: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Worker-side views of the dense delegate buffer + ``gpu``'s own buffer.

    ``descriptor`` comes from :meth:`SharedGraphStore.publish_dense`; the
    local view is built only when the coordinator wrote one this step.
    """
    name, dtype, row_shape, offsets, rows = descriptor
    delegate = cache.array(name, offsets[0], dtype, (rows[0], *row_shape))
    local = (
        cache.array(name, offsets[gpu + 1], dtype, (rows[gpu + 1], *row_shape))
        if has_local
        else None
    )
    return delegate, local
