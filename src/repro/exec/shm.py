"""Shared-memory export of a graph for the process execution backend.

A pool worker runs whole traversals on its own inline engine, so it needs
the whole graph — the degree separation, every GPU's direction-optimization
arrays and its four CSR subgraphs — and shipping that through a pickle with
every run would copy the very data the pool exists to share.
:class:`SharedGraphStore` therefore places the graph in POSIX shared memory
(:mod:`multiprocessing.shared_memory`) once, at backend construction, and a
run carries only segment names.

The graph goes in the store layout (:mod:`repro.storage.segments`): a
memory graph's flat form (:func:`~repro.storage.segments.graph_arrays`) is
packed into one segment, while a store-backed graph's stays in its
``graph.bin``, which workers map by its ``file://`` name.  Either way the
graph's descriptor — its manifest plus the segment its arrays lie in — is
pickled once, into the backend's own segment, and a run names the arrays'
segment and where that pickled descriptor lies.  A worker unpickles it only
the first time it sees the graph and rebuilds the
:class:`~repro.partition.subgraphs.PartitionedGraph` through the store
reader, :func:`~repro.storage.segments.graph_from_manifest`, over plain
``numpy`` views.  It keeps them only while the coordinator keeps the export
open: every run also carries :func:`open_segments`, and a worker detaches
every other segment first (:meth:`SegmentCache.retain`).

All offsets are 8-byte aligned so the views are aligned for every dtype
involved (``int64`` offsets, ``int32``/``int64`` columns, ``bool`` masks).
"""

from __future__ import annotations

import mmap
import os
import pickle
import secrets
from collections import Counter
from multiprocessing import shared_memory

import numpy as np

from repro.storage.segments import (
    FILE_SEGMENT_PREFIX,
    file_segment_name,
    graph_arrays,
    graph_from_manifest,
    pack_arrays,
)

__all__ = ["SharedGraphStore", "SegmentCache", "graph_from_descriptor", "open_segments"]

#: How many open exports of this process name each segment: process-wide,
#: like the worker pools every export of the process shares.  A store's
#: ``file://`` name is counted, not flagged, so that one of two open exports
#: over the same store closing leaves its file attached in the workers.
_OPEN_SEGMENTS: Counter = Counter()


def open_segments() -> frozenset:
    """The names of every segment an open export of this process uses."""
    return frozenset(_OPEN_SEGMENTS)


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class FileSegment:
    """A memory-mapped file posing as a shared-memory segment.

    Graph stores (:mod:`repro.storage.segments`) are addressed with
    ``file://<path>#<identity>`` segment names
    (:func:`~repro.storage.segments.file_segment_name`); attaching maps the
    file read-only and exposes the same ``buf``/``close`` surface
    :class:`multiprocessing.shared_memory.SharedMemory` has, so the cache
    and view building need no storage-specific branches.  A
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
    """Worker-side cache of attached segments and of what a worker derives
    from them.

    A segment stays attached until :meth:`retain` is told the coordinator no
    longer uses it (the coordinator unlinks what it retires, so the memory is
    freed once every process has dropped it).  ``file://`` names attach
    graph-store files by mmap instead of POSIX shared memory; everything
    downstream of the attach is identical.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: What a worker derives from a segment — its graph and the engines
        #: built over it — keyed by segment name and dropped with it.
        self.derived: dict[str, tuple] = {}

    def retain(self, names) -> None:
        """Detach every segment not in ``names``, with its graph and engines."""
        for name in [name for name in self._segments if name not in names]:
            self.derived.pop(name, None)
            try:
                self._segments.pop(name).close()
            except BufferError:
                # Some numpy view into this mapping is still alive.  Drop our
                # reference and let the mapping unmap when the last view
                # dies — never crash the worker over a detach.
                pass

    def get(self, name: str) -> shared_memory.SharedMemory:
        segment = self._segments.get(name)
        if segment is None:
            if name.startswith(FILE_SEGMENT_PREFIX):
                segment = FileSegment(name)
            else:
                segment = shared_memory.SharedMemory(name=name)
            self._segments[name] = segment
        return segment

    def array(self, name: str, offset: int, dtype, shape) -> np.ndarray:
        """A numpy view into segment ``name`` at ``offset``."""
        segment = self.get(name)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(segment.buf, dtype=dtype, count=count, offset=offset)
        return view.reshape(shape)


def graph_from_descriptor(cache: SegmentCache, descriptor: tuple) -> tuple:
    """A worker's ``(graph, engines)`` for a run's graph descriptor.

    ``descriptor`` is :attr:`SharedGraphStore.graph_descriptor`: the segment
    holding the graph's arrays, then the segment and offset of its pickled
    manifest.  The graph is rebuilt once per arrays segment, through the
    store reader, and cached beside it with a dictionary the caller keeps
    the engines it builds over that graph in.
    """
    name, table_segment, table_offset = descriptor
    built = cache.derived.get(name)
    if built is not None:
        return built
    manifest = pickle.loads(cache.get(table_segment).buf[table_offset:])
    arrays = manifest["arrays"]
    graph = graph_from_manifest(manifest, lambda n: cache.array(name, **arrays[n]))
    built = cache.derived[name] = (graph, {})
    return built


class SharedGraphStore:
    """Coordinator-side owner of one graph's shared-memory export."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self._closed = False
        name = f"repro_{secrets.token_hex(8)}"  # the descriptor names its own segment
        handle = graph.store
        if handle is None:
            named, metadata = graph_arrays(graph)
            table, size = pack_arrays(named)
            descriptor = {**metadata, "arrays": table, "segment": name}
        else:
            # A store's arrays stay in its graph.bin, which workers map by name.
            named, size = [], 0
            descriptor = handle.descriptor()
        pickled = pickle.dumps(descriptor, pickle.HIGHEST_PROTOCOL)
        table_offset = _align(size)
        self._graph_segment = shared_memory.SharedMemory(
            name=name, create=True, size=table_offset + len(pickled)
        )
        buf = self._graph_segment.buf
        for array_name, arr in named:
            offset = descriptor["arrays"][array_name]["offset"]
            np.frombuffer(buf, dtype=arr.dtype, count=arr.size, offset=offset)[:] = arr.ravel()
        buf[table_offset : table_offset + len(pickled)] = pickled
        #: What every run carries (see :func:`graph_from_descriptor`).
        self.graph_descriptor = (descriptor["segment"], self._graph_segment.name, table_offset)
        self._names = {descriptor["segment"], self._graph_segment.name}
        _OPEN_SEGMENTS.update(self._names)

    def close(self) -> None:
        """Release and unlink the export's segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for name in self._names:
            _OPEN_SEGMENTS[name] -= 1
            if not _OPEN_SEGMENTS[name]:
                del _OPEN_SEGMENTS[name]
        # A store-backed graph's arrays stay in the store's file, which
        # belongs to the store and is never unlinked here.
        try:
            self._graph_segment.close()
            self._graph_segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
