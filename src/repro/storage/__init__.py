"""Storage subsystem: out-of-core builds, mmap-backed CSR, compressed adjacency.

Three storage modes cover the paper's memory story end to end:

``memory``
    Plain in-RAM ndarrays — the default, what every PR before this one used.
``mmap``
    The partitioned graph lives in a *store* directory (one ``graph.bin``
    segment + ``manifest.json``) and every array is a zero-copy ``mmap`` view;
    the Process backend attaches the same file through the shared-memory
    segment cache (:mod:`repro.exec.shm`).
``compressed``
    Same store layout, but the normal-source column streams (nn/nd) are
    delta+varint encoded and decoded lazily per super-step
    (:mod:`repro.storage.codec`); delegate subgraphs stay raw.

The mode is a **run-time execution axis** like the backend: it is recorded in
every bench artifact record but never part of a scenario's identity, and
traversal counters are bit-identical across all three modes by construction.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.exec.config import STORAGE_NAMES, axis_name
from repro.partition.subgraphs import PartitionedGraph
from repro.storage.codec import (
    CompressedCSR,
    compress_csr,
    varint_encode,
    varint_sizes,
)
from repro.storage.extsort import chunks_from_edgelist, external_build
from repro.storage.segments import (
    StoreHandle,
    load_graph_store,
    open_store,
    save_graph_store,
    store_graph_descriptor,
)

__all__ = [
    "STORAGE_NAMES",
    "apply_storage",
    "CompressedCSR",
    "compress_csr",
    "varint_encode",
    "varint_sizes",
    "chunks_from_edgelist",
    "external_build",
    "StoreHandle",
    "load_graph_store",
    "open_store",
    "save_graph_store",
    "store_graph_descriptor",
]

def apply_storage(
    graph: PartitionedGraph, storage: str, path: str | Path | None = None
) -> PartitionedGraph:
    """Convert an in-memory graph to the requested storage mode.

    ``memory`` returns the graph unchanged.  For ``mmap``/``compressed`` the
    graph is saved as a store (under ``path``, or a fresh temporary directory
    kept for the life of the process) and loaded back as zero-copy views.
    Non-memory graphs cannot be re-converted — reload from their store or
    rebuild instead.
    """
    storage = axis_name("storage", storage)
    if storage == "memory":
        if getattr(graph, "storage", "memory") != "memory":
            raise ValueError(
                "cannot convert a store-backed graph back to memory storage; "
                "rebuild the graph instead"
            )
        return graph
    if getattr(graph, "storage", "memory") != "memory":
        raise ValueError(
            f"graph is already {graph.storage}-backed (store: {graph.storage_path}); "
            "conversion starts from memory storage"
        )
    directory = Path(path) if path is not None else Path(tempfile.mkdtemp(prefix="repro-store-"))
    save_graph_store(graph, directory, storage=storage)
    return load_graph_store(directory)
