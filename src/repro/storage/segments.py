"""The flat form of a partitioned graph: one segment file + a JSON manifest.

A *store* is a directory holding the complete partitioned graph as flat
binary arrays in a single ``graph.bin`` segment (every array 8-byte aligned)
plus a ``manifest.json`` naming each array's offset, dtype and shape
alongside the partitioning metadata (layout, threshold, census, per-GPU
subgraph shapes).  This module owns that layout: every writer flattens a
graph with :func:`graph_arrays` (a subgraph with :func:`csr_arrays`: the
store savers and the process backend's shared-memory export), and one
reader, :func:`graph_from_manifest`, rebuilds it (a subgraph with
:func:`load_csr`) from either byte source: :func:`load_graph_store` from a
store file, a pool worker from the export.  A *descriptor* is a manifest
plus the ``segment`` its ``arrays`` table points into; it tells a worker
where one graph lies.

Loading attaches ``graph.bin`` once with ``mmap`` and exposes every array as
a zero-copy :func:`numpy.frombuffer` view.  The loaded graph owns its
:class:`StoreHandle`, so the mapping lives as long as the graph does, and a
store rebuilt at the same path loads as the new graph.  Compressed stores
keep the nn/nd column streams as varint payloads (:mod:`repro.storage.codec`);
dn/dd and every offset/degree/separation array stay raw in both modes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import mmap
import os
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.partition.delegates import DegreeSeparation, EdgeCategoryCensus
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import GPUPartition, PartitionedGraph
from repro.storage.codec import CompressedCSR, compress_csr

__all__ = [
    "MANIFEST_NAME",
    "SEGMENT_NAME",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_WEIGHTED",
    "SUPPORTED_VERSIONS",
    "SegmentWriter",
    "StoreHandle",
    "graph_arrays",
    "graph_from_manifest",
    "save_graph_store",
    "load_graph_store",
]

MANIFEST_NAME = "manifest.json"
SEGMENT_NAME = "graph.bin"
SCHEMA = "repro.storage"
SCHEMA_VERSION = 1
#: Weighted stores carry per-edge weight arrays older readers cannot see;
#: they are written as version 2 so a weight-ignorant build fails with a
#: clear versioned error instead of silently traversing an unweighted view.
#: Unweighted stores stay version 1, byte-identical to earlier builds.
SCHEMA_VERSION_WEIGHTED = 2
SUPPORTED_VERSIONS = (SCHEMA_VERSION, SCHEMA_VERSION_WEIGHTED)

#: The four per-GPU subgraphs, in their fixed on-disk order.
CSR_KEYS = ("nn", "nd", "dn", "dd")
#: Subgraphs with normal-vertex source rows — the only ones ever compressed.
COMPRESSIBLE = ("nn", "nd")
#: The degree separation's arrays (``sep.<name>``), in segment order.
SEPARATION_ARRAYS = ("degrees", "is_delegate", "delegate_vertices", "delegate_id_of")
#: Each GPU's direction-optimization arrays (``g<g>.<name>``), in segment order.
GPU_ARRAYS = ("local_is_normal", "nd_source_list", "dn_source_mask", "dd_source_mask")

_ALIGN = 8

#: Prefix marking a segment name as a file path rather than POSIX shm.
FILE_SEGMENT_PREFIX = "file://"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@functools.cache
def _dtype_name(dtype: np.dtype) -> str:
    """``dtype.name``, which numpy recomputes in Python on every access."""
    return dtype.name


def _array_entry(offset: int, dtype: np.dtype, shape) -> dict:
    """One array's row of a manifest's ``arrays`` table."""
    return {"offset": offset, "dtype": _dtype_name(dtype), "shape": list(shape)}


def csr_entry(num_rows, num_cols, num_edges, dtype, compressed=False, weighted=False) -> dict:
    """One subgraph's manifest entry (``manifest["gpus"][g]["csrs"][key]``)."""
    entry = {
        "num_rows": int(num_rows),
        "num_cols": int(num_cols),
        "num_edges": int(num_edges),
        "dtype": _dtype_name(np.dtype(dtype)),
        "kind": "compressed" if compressed else "raw",
    }
    if weighted:
        entry["weighted"] = True
    return entry


def csr_arrays(prefix: str, csr) -> tuple[list[tuple[str, np.ndarray]], dict]:
    """The flat form of one subgraph: its named arrays and its manifest entry.

    Arrays come in segment order: row offsets (``int64``), then the columns
    (``ci``) or the varint byte offsets and payload (``bo``, ``pl``) of a
    :class:`CompressedCSR`, then the ``float64`` weights of a weighted one.
    """
    compressed = isinstance(csr, CompressedCSR)
    weighted = csr.edge_weights is not None
    entry = csr_entry(
        csr.num_rows, csr.num_cols, csr.num_edges, csr.column_dtype, compressed, weighted
    )
    named = [(f"{prefix}.ro", np.ascontiguousarray(csr.row_offsets, dtype=np.int64))]
    if compressed:
        named += [(f"{prefix}.bo", csr.byte_offsets), (f"{prefix}.pl", csr.payload)]
    else:
        named.append((f"{prefix}.ci", np.ascontiguousarray(csr.column_indices)))
    if weighted:
        named.append((f"{prefix}.w", np.ascontiguousarray(csr.edge_weights, dtype=np.float64)))
    return named, entry


def load_csr(array, prefix: str, entry: dict):
    """One subgraph from its manifest ``entry``, reading arrays by name through
    ``array(name)``; no array is copied or re-validated."""
    ro = array(f"{prefix}.ro")
    weights = array(f"{prefix}.w") if entry.get("weighted") else None
    if entry["kind"] == "compressed":
        return CompressedCSR(
            payload=array(f"{prefix}.pl"),
            byte_offsets=array(f"{prefix}.bo"),
            row_offsets=ro,
            num_rows=entry["num_rows"],
            num_cols=entry["num_cols"],
            column_dtype=np.dtype(entry["dtype"]),
            edge_weights=weights,
        )
    return CSRGraph.unchecked(
        ro, array(f"{prefix}.ci"), entry["num_rows"], entry["num_cols"], edge_weights=weights
    )


def pack_arrays(named: list[tuple[str, np.ndarray]]) -> tuple[dict, int]:
    """Lay ``(name, array)`` pairs out back to back, each 8-byte aligned, as
    a writer appends them; returns the ``arrays`` table and the byte size."""
    table: dict[str, dict] = {}
    offset = 0
    for name, arr in named:
        offset = _align(offset)
        table[name] = _array_entry(offset, arr.dtype, arr.shape)
        offset += arr.nbytes
    return table, offset


def file_segment_name(path: Path, stat: os.stat_result) -> str:
    """The ``file://`` segment name of a store's ``graph.bin``.

    It carries the file's identity (inode, size, mtime_ns) after a ``#``, so
    a worker that attached the file under this name never serves a store
    rebuilt at the same path, and attaching a replaced file fails.
    """
    return f"{FILE_SEGMENT_PREFIX}{path}#{stat.st_ino}.{stat.st_size}.{stat.st_mtime_ns}"


class SegmentWriter:
    """Append-only writer for a store's ``graph.bin`` segment.

    Arrays are written sequentially (8-byte aligned) and recorded in the
    manifest table; :meth:`append_blocks` streams an array of unknown final
    length from an iterator of blocks, which is how the out-of-core build
    writes column streams without ever materializing them.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.directory / SEGMENT_NAME, "wb")
        self._offset = 0
        self.arrays: dict[str, dict] = {}

    def _pad(self) -> None:
        aligned = _align(self._offset)
        if aligned != self._offset:
            self._fh.write(b"\x00" * (aligned - self._offset))
            self._offset = aligned

    def add(self, name: str, array: np.ndarray) -> None:
        """Write one in-memory array and record it in the manifest table."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already written")
        arr = np.ascontiguousarray(array)
        self._pad()
        self.arrays[name] = _array_entry(self._offset, arr.dtype, arr.shape)
        self._fh.write(arr.tobytes())
        self._offset += arr.nbytes

    def append_blocks(self, name: str, dtype, blocks) -> int:
        """Stream an array from ``blocks`` (an iterable of 1-D chunks).

        Returns the total element count; only one block is resident at a
        time, so the writer's memory stays bounded by the block size.
        """
        if name in self.arrays:
            raise ValueError(f"array {name!r} already written")
        dtype = np.dtype(dtype)
        self._pad()
        offset = self._offset
        count = 0
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=dtype)
            self._fh.write(arr.tobytes())
            self._offset += arr.nbytes
            count += arr.size
        self.arrays[name] = _array_entry(offset, dtype, (count,))
        return count

    def finish(self, metadata: dict, version: int = SCHEMA_VERSION) -> None:
        """Close the segment and write ``manifest.json``."""
        self._fh.close()
        manifest = {
            "schema": SCHEMA,
            "version": int(version),
            "arrays": self.arrays,
        }
        manifest.update(metadata)
        path = self.directory / MANIFEST_NAME
        with path.open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")


class StoreHandle:
    """An attached store: the manifest plus one read-only mmap of ``graph.bin``.

    A graph loaded by :func:`load_graph_store` owns its handle (and every
    array view references the mapping), so the file stays mapped exactly as
    long as something reads it.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"{self.directory} is not a graph store (no {MANIFEST_NAME})")
        with get_tracer().span("mmap-attach", cat="storage") as span:
            with manifest_path.open("r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
            if self.manifest.get("schema") != SCHEMA:
                raise ValueError(f"{manifest_path} has schema {self.manifest.get('schema')!r}")
            if self.manifest.get("version") not in SUPPORTED_VERSIONS:
                raise ValueError(
                    f"unsupported store version {self.manifest.get('version')!r} "
                    f"(this build reads versions {SUPPORTED_VERSIONS})"
                )
            self.segment_path = self.directory / SEGMENT_NAME
            with open(self.segment_path, "rb") as fh:
                stat = os.fstat(fh.fileno())
                size = stat.st_size
                expected = max(
                    (
                        entry["offset"]
                        + int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
                        for entry in self.manifest["arrays"].values()
                    ),
                    default=0,
                )
                if size != expected:
                    state = "truncated" if size < expected else "damaged"
                    raise ValueError(
                        f"graph store {self.directory} is {state}: its manifest expects "
                        f"{expected:,} bytes of {SEGMENT_NAME}, the file holds {size:,}"
                    )
                self._mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ) if size else None
            #: The ``file://`` name workers attach ``graph.bin`` under.
            self.segment = file_segment_name(self.segment_path.resolve(), stat)
            span.annotate(store=str(self.directory), bytes=size)

    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of a named array in the segment."""
        entry = self.manifest["arrays"][name]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if count == 0:
            return np.zeros(shape, dtype=entry["dtype"])
        return np.frombuffer(
            self._mm, dtype=entry["dtype"], count=count, offset=entry["offset"]
        ).reshape(shape)

    def descriptor(self) -> dict:
        """The store's descriptor: its manifest, plus the ``file://`` name
        of the segment its ``arrays`` table points into."""
        return {**self.manifest, "segment": self.segment}


def graph_arrays(graph: PartitionedGraph, compress: bool = False) -> tuple[list, dict]:
    """The flat form of a whole graph: its named arrays, in segment order, and
    the manifest fields that describe them.

    The separation arrays come first, then each GPU's four subgraphs and its
    direction-optimization arrays; with ``compress`` the nn/nd column streams
    are varint-encoded.  :func:`save_graph_store` writes this to a store and
    the process backend exports it to shared memory; :func:`graph_from_manifest`
    reads either back.
    """
    sep = graph.separation
    named = [(f"sep.{name}", getattr(sep, name)) for name in SEPARATION_ARRAYS]
    gpus_meta: list[dict] = []
    for g, part in enumerate(graph.gpus):
        csr_meta: dict[str, dict] = {}
        for key in CSR_KEYS:
            csr = getattr(part, key)
            if compress and key in COMPRESSIBLE:
                csr = compress_csr(csr)
            arrays, csr_meta[key] = csr_arrays(f"g{g}.{key}", csr)
            named += arrays
        named += [(f"g{g}.{name}", getattr(part, name)) for name in GPU_ARRAYS]
        gpus_meta.append({"num_local": int(part.num_local), "csrs": csr_meta})
    return named, {
        "storage": graph.storage,
        "layout": graph.layout.notation(),
        "threshold": int(graph.threshold),
        "num_vertices": int(graph.num_vertices),
        "num_directed_edges": int(graph.num_directed_edges),
        "census": dataclasses.asdict(graph.census),
        "gpus": gpus_meta,
    }


def save_graph_store(
    graph: PartitionedGraph, directory: str | Path, storage: str = "mmap"
) -> Path:
    """Write an in-memory :class:`PartitionedGraph` as a store directory.

    ``storage`` selects the on-disk flavour: ``"mmap"`` keeps every column
    stream raw; ``"compressed"`` varint-encodes the nn/nd streams.  The
    streaming builder (:mod:`repro.storage.extsort`) writes the identical
    format without ever holding the graph in memory; this function is the
    in-memory counterpart used by runtime conversion and round-trip tests.
    """
    if storage not in ("mmap", "compressed"):
        raise ValueError(f"storage must be 'mmap' or 'compressed', got {storage!r}")
    if getattr(graph, "storage", "memory") != "memory":
        raise ValueError("save_graph_store expects an in-memory graph")
    directory = Path(directory)
    writer = SegmentWriter(directory)
    named, metadata = graph_arrays(graph, compress=storage == "compressed")
    for name, arr in named:
        writer.add(name, arr)
    writer.finish(
        {**metadata, "storage": storage},
        version=SCHEMA_VERSION_WEIGHTED if graph.is_weighted else SCHEMA_VERSION,
    )
    return directory


def graph_from_manifest(
    manifest: dict, array, store: StoreHandle | None = None
) -> PartitionedGraph:
    """Rebuild a :class:`PartitionedGraph` from a manifest, reading each named
    array through ``array(name)``; nothing is copied or re-validated.

    The one reader of the flat form, fed from either byte source: a store's
    ``graph.bin`` (:func:`load_graph_store`) or the process backend's
    shared-memory export, which a pool worker rebuilds its graph from.
    """
    layout = ClusterLayout.from_notation(manifest["layout"])
    separation = DegreeSeparation(
        threshold=int(manifest["threshold"]),
        **{name: array(f"sep.{name}") for name in SEPARATION_ARRAYS},
    )
    gpus = [
        GPUPartition(
            flat_gpu=g,
            layout=layout,
            num_local=int(meta["num_local"]),
            num_delegates=separation.num_delegates,
            **{key: load_csr(array, f"g{g}.{key}", meta["csrs"][key]) for key in CSR_KEYS},
            **{name: array(f"g{g}.{name}") for name in GPU_ARRAYS},
        )
        for g, meta in enumerate(manifest["gpus"])
    ]
    return PartitionedGraph(
        layout=layout,
        threshold=int(manifest["threshold"]),
        num_vertices=int(manifest["num_vertices"]),
        num_directed_edges=int(manifest["num_directed_edges"]),
        separation=separation,
        census=EdgeCategoryCensus(**manifest["census"]),
        gpus=gpus,
        storage=manifest["storage"],
        store=store,
    )


def load_graph_store(directory: str | Path) -> PartitionedGraph:
    """Attach a store and rebuild the :class:`PartitionedGraph` over mmap views.

    Every array — subgraph offsets and columns, separation, per-GPU masks —
    is a read-only view into the mapping; nothing is copied.  The returned
    graph's ``storage`` records the store flavour and ``store`` is its own
    :class:`StoreHandle`, which the process backend takes the store's
    descriptor from.  Every call attaches the directory afresh, so a store
    rebuilt at the same path loads as the new graph.
    """
    handle = StoreHandle(directory)
    return graph_from_manifest(handle.manifest, handle.array, store=handle)
