"""Edge-list persistence.

The paper's implementation is "a component of a complex workflow with many
components that use standard formats for passing data between them"; we keep
the same spirit with two simple interchange formats:

* a **binary** ``.npz`` container (fast, exact, compressed) — what ``repro
  generate`` writes and ``--npz`` reads, and
* a **raw binary** single-file format (fixed header + interleaved little-endian
  ``int64`` pairs) that can be read back in bounded chunks, which is what the
  out-of-core build path (:mod:`repro.storage`, ``repro build --binary``)
  streams from.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = [
    "save_npz",
    "load_npz",
    "save_binary",
    "iter_binary",
    "binary_edge_count",
]

#: Magic + version for the raw binary edge format ("repro edge list v1"); v2
#: appends a little-endian float64 weight to every record.
_BINARY_MAGIC = b"REPROEL1"
_BINARY_MAGIC_V2 = b"REPROEL2"
_BINARY_HEADER = struct.Struct("<8sqq")  # magic, num_vertices, num_edges
_WEIGHTED_RECORD = np.dtype([("src", "<i8"), ("dst", "<i8"), ("w", "<f8")])


def save_npz(path: str | Path, edges: EdgeList) -> None:
    """Save an edge list to a compressed ``.npz`` file."""
    path = Path(path)
    arrays = dict(
        src=edges.src, dst=edges.dst, num_vertices=np.int64(edges.num_vertices)
    )
    if edges.weights is not None:
        arrays["weights"] = edges.weights
    np.savez_compressed(path, **arrays)


def load_npz(path: str | Path) -> EdgeList:
    """Load an edge list previously written by :func:`save_npz`.

    Weighted archives (a ``weights`` array parallel to ``src``/``dst``) load
    back weighted; the weights are re-validated on load, so a corrupted or
    hand-edited archive with negative or non-finite weights is rejected.
    """
    path = Path(path)
    with np.load(path) as data:
        missing = {"src", "dst", "num_vertices"} - set(data.files)
        if missing:
            raise ValueError(f"{path} is not an edge-list archive (missing {sorted(missing)})")
        weights = data["weights"] if "weights" in data.files else None
        return EdgeList(data["src"], data["dst"], int(data["num_vertices"]), weights=weights)


def save_binary(path: str | Path, edges: EdgeList) -> None:
    """Save an edge list in the raw binary single-file format.

    Layout: an ``REPROEL1`` magic header carrying ``num_vertices`` and
    ``num_edges`` (little-endian ``int64``), followed by the edges as
    interleaved ``(src, dst)`` little-endian ``int64`` pairs.  Weighted edge
    lists are written with the ``REPROEL2`` magic and a third little-endian
    ``float64`` weight per record.  Unlike :func:`save_npz` the payload is
    uncompressed and seekable, so :func:`iter_binary` can stream it back with
    peak memory bounded by the chunk size.
    """
    path = Path(path)
    if edges.weights is not None:
        records = np.empty(edges.num_edges, dtype=_WEIGHTED_RECORD)
        records["src"] = edges.src
        records["dst"] = edges.dst
        records["w"] = edges.weights
        magic = _BINARY_MAGIC_V2
        payload = records.tobytes()
    else:
        pairs = np.empty((edges.num_edges, 2), dtype="<i8")
        pairs[:, 0] = edges.src
        pairs[:, 1] = edges.dst
        magic = _BINARY_MAGIC
        payload = pairs.tobytes()
    with path.open("wb") as fh:
        fh.write(_BINARY_HEADER.pack(magic, edges.num_vertices, edges.num_edges))
        fh.write(payload)


def _read_binary_header(fh, path: Path) -> tuple[int, int, bool]:
    raw = fh.read(_BINARY_HEADER.size)
    if len(raw) != _BINARY_HEADER.size:
        raise ValueError(f"{path} is too short to be a binary edge list")
    magic, num_vertices, num_edges = _BINARY_HEADER.unpack(raw)
    if magic not in (_BINARY_MAGIC, _BINARY_MAGIC_V2):
        raise ValueError(f"{path} is not a binary edge list (bad magic {magic!r})")
    if num_vertices < 0 or num_edges < 0:
        raise ValueError(f"{path} header is corrupt: {num_vertices=} {num_edges=}")
    return num_vertices, num_edges, magic == _BINARY_MAGIC_V2


def iter_binary(
    path: str | Path, chunk_edges: int = 1 << 20
) -> Iterator[tuple[np.ndarray, ...]]:
    """Stream a :func:`save_binary` file back as bounded ``(src, dst)`` chunks.

    Peak memory is ``O(chunk_edges)`` regardless of file size; the chunks plug
    directly into :func:`repro.storage.extsort.external_build`.  ``REPROEL2``
    files yield ``(src, dst, weights)`` triples instead of pairs.
    """
    path = Path(path)
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    with path.open("rb") as fh:
        _, num_edges, weighted = _read_binary_header(fh, path)
        remaining = num_edges
        while remaining > 0:
            count = min(chunk_edges, remaining)
            if weighted:
                records = np.fromfile(fh, dtype=_WEIGHTED_RECORD, count=count)
                if records.size != count:
                    raise ValueError(f"{path} is truncated mid-stream")
                yield (
                    np.ascontiguousarray(records["src"]),
                    np.ascontiguousarray(records["dst"]),
                    np.ascontiguousarray(records["w"]),
                )
            else:
                flat = np.fromfile(fh, dtype="<i8", count=2 * count)
                if flat.size != 2 * count:
                    raise ValueError(f"{path} is truncated mid-stream")
                pairs = flat.reshape(-1, 2)
                yield (
                    np.ascontiguousarray(pairs[:, 0]),
                    np.ascontiguousarray(pairs[:, 1]),
                )
            remaining -= count


def binary_edge_count(path: str | Path) -> tuple[int, int]:
    """Return ``(num_vertices, num_edges)`` from a binary edge list header."""
    path = Path(path)
    with path.open("rb") as fh:
        num_vertices, num_edges, _ = _read_binary_header(fh, path)
        return num_vertices, num_edges
