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
against the reads), and tasks carry only segment names.

The graph goes in the store layout (:mod:`repro.storage.segments`): a
memory graph's subgraph arrays are packed into one segment, while a
store-backed graph's stay in its ``graph.bin``, which workers map by its
``file://`` name.  Either way the graph's descriptor is pickled once, into
the backend's own segment, and a task names the arrays' segment and where
that pickled table lies; a worker unpickles it only the first time it sees
the graph, then reads through plain ``numpy`` views at memory speed.

All offsets are 8-byte aligned so the views are aligned for every dtype
involved (``int64`` offsets, ``int32``/``int64`` columns, ``uint64`` lane
words, ``bool`` flags).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import secrets
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from repro.storage.segments import (
    CSR_KEYS,
    FILE_SEGMENT_PREFIX,
    csr_arrays,
    file_segment_name,
    load_csr,
    pack_arrays,
)

__all__ = [
    "SharedGraphStore",
    "SegmentCache",
    "csrs_from_descriptor",
    "dense_views_from_descriptor",
]


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class FileSegment:
    """A memory-mapped file posing as a shared-memory segment.

    Graph stores (:mod:`repro.storage.segments`) are addressed with
    ``file://<path>#<identity>`` segment names
    (:func:`~repro.storage.segments.file_segment_name`); attaching maps the
    file read-only and exposes the same ``buf``/``close`` surface
    :class:`multiprocessing.shared_memory.SharedMemory` has, so the cache,
    view building and eviction logic need no storage-specific branches.  A
    file whose identity no longer matches its name is refused: the store was
    rebuilt since the graph naming it was loaded.
    """

    def __init__(self, name: str) -> None:
        path = name[len(FILE_SEGMENT_PREFIX) :].rpartition("#")[0]
        with open(path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            if file_segment_name(path, stat) != name:
                raise ValueError(f"graph store file {path} changed since its graph was loaded")
            self._mm = mmap.mmap(fh.fileno(), stat.st_size, access=mmap.ACCESS_READ)
        self.buf = memoryview(self._mm)

    def close(self) -> None:
        self.buf.release()
        self._mm.close()



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
            segment = FileSegment(name)
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


def csrs_from_descriptor(cache: SegmentCache, descriptor: tuple) -> dict:
    """Materialise ``{(gpu, key): CSR}`` views from a task's graph descriptor.

    ``descriptor`` is :attr:`SharedGraphStore.graph_descriptor`: the segment
    holding the subgraph arrays, then the segment and offset of the pickled
    ``{"segment", "arrays", "csrs"}`` table.  The views are built once per
    arrays segment and cached beside it.
    """
    name, table_segment, table_offset = descriptor
    built = cache.derived.get(name)
    if built is not None:
        # Mark the backing segment hot: the derived fast path bypasses
        # ``get``, and without the touch a heavily-reused graph segment
        # looks LRU-cold and can be evicted from under its own live views
        # while this very task still reads them.
        cache.touch(name)
        return built
    table = pickle.loads(cache.get(table_segment).buf[table_offset:])
    arrays = table["arrays"]
    csrs = {
        (g, key): load_csr(lambda n: cache.array(name, **arrays[n]), f"g{g}.{key}", entry)
        for g, entries in enumerate(table["csrs"])
        for key, entry in entries.items()
    }
    cache.derived[name] = csrs
    return csrs


class SharedGraphStore:
    """Coordinator-side owner of one graph's shared-memory buffers."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.num_delegates = int(graph.num_delegates)
        self.num_locals = tuple(int(gpu.num_local) for gpu in graph.gpus)
        self._closed = False

        # ---- static graph: a memory graph's arrays, then the pickled table - #
        name = f"repro_{secrets.token_hex(8)}"  # the table names its own segment
        handle = getattr(graph, "store", None)
        named, csrs = [], [{} for _ in graph.gpus]
        if handle is None:
            for g, gpu in enumerate(graph.gpus):
                for key in CSR_KEYS:
                    arrays, csrs[g][key] = csr_arrays(f"g{g}.{key}", getattr(gpu, key))
                    named += arrays
        table, size = pack_arrays(named)
        # A store's arrays stay in its graph.bin, which workers map by name.
        if handle is not None:
            descriptor = handle.descriptor()
        else:
            descriptor = {"segment": name, "arrays": table, "csrs": csrs}
        pickled = pickle.dumps(descriptor, pickle.HIGHEST_PROTOCOL)
        table_offset = _align(size)
        self._graph_segment = shared_memory.SharedMemory(
            name=name, create=True, size=table_offset + len(pickled)
        )
        buf = self._graph_segment.buf
        for array_name, arr in named:
            offset = table[array_name]["offset"]
            np.frombuffer(buf, dtype=arr.dtype, count=arr.size, offset=offset)[:] = arr
        buf[table_offset : table_offset + len(pickled)] = pickled
        #: What every task carries (see :func:`csrs_from_descriptor`).
        self.graph_descriptor = (descriptor["segment"], self._graph_segment.name, table_offset)

        # ---- dense-frontier scratch (rewritten before each dispatch) ---- #
        self._dense_segment: shared_memory.SharedMemory | None = None
        self._dense_row_bytes = 0
        self._dense_offsets: tuple = ()

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
        # A store-backed graph's arrays stay in the store's file, which
        # belongs to the store and is never unlinked here.
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
