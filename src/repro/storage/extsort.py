"""External-memory graph build: chunked sort, k-way merge, on-disk CSR.

:func:`external_build` turns a stream of raw directed edge chunks into a
complete partitioned graph store (:mod:`repro.storage.segments`) while keeping
edge-array memory bounded by the block size — the full edge list is never
resident.  The passes:

1. **ingest** — per chunk: the in-memory preparation's own packed-key step
   (``repro.graph.edgelist._unique_edge_keys``: range check, vertex-hash
   permutation, both edge directions as ``src * n + dst`` keys, self loops
   dropped, sorted, equal neighbours dropped), written as a sorted *run*
   file.
2. **merge** — k-way merge of all runs with global dedup: per round, every
   run's buffered keys up to the smallest buffered tail are concatenated and
   passed through the same sort + neighbour compare, producing one sorted
   duplicate-free key file and the exact out-degree array (the same
   ``bincount`` in-memory preparation computes).
3. **threshold** *(only when ``TH`` is not given)* — one more streamed pass
   counting every candidate's nn edges, then the selection
   :func:`repro.partition.delegates.suggest_threshold` makes
   (``repro.partition.delegates._select_threshold``), so the streaming
   build picks the identical ``TH``.
4. **distribute** — per sorted block: run the unmodified Algorithm 1
   distributor, group the block by ``(gpu, category)`` with one stable sort
   and append each edge's column id to its bucket file, using the partition
   layer's own grouping and row/column id maps
   (:mod:`repro.partition.subgraphs`).  Because the key stream is globally
   sorted and every one of those maps is monotone, each bucket file arrives
   exactly in final CSR order — no second sort exists anywhere.
5. **assemble** — write the store segment: row offsets from the accumulated
   per-row degree counts, column streams copied (or delta+varint encoded, for
   compressed stores) block-by-block from the bucket files.

The result is **bit-identical** to ``build_partitions`` on the same prepared
edge list — preparation (doubling, dedup, hashing) commutes with chunking
because relabeling is a bijection and dedup is a set operation.  The
equivalence is enforced by tests, and it is what makes the cross-storage
counter gates exact rather than approximate.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.graph.edgelist import EdgeList, _unique_edge_keys
from repro.partition.delegates import (
    DegreeSeparation,
    EdgeCategoryCensus,
    _select_threshold,
    threshold_candidates,
)
from repro.partition.distributor import EDGE_CATEGORIES, distribute_edges
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import _quadrant_groups, _quadrant_ids, _quadrant_shape
from repro.obs.tracer import get_tracer
from repro.storage.codec import varint_encode, varint_sizes
from repro.storage.segments import SegmentWriter, _census_metadata
from repro.utils.rng import deterministic_hash_permutation
from repro.utils.sorting import sorted_unique
from repro.utils.timing import now_s

__all__ = ["external_build", "chunks_from_edgelist", "DEFAULT_BLOCK_EDGES"]

#: Default number of edges processed per block (= peak resident edge count).
DEFAULT_BLOCK_EDGES = 1 << 20

_CSR_KEYS = ("nn", "nd", "dn", "dd")
_COMPRESSIBLE = ("nn", "nd")


def chunks_from_edgelist(
    edges: EdgeList, chunk_edges: int = 1 << 20
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Slice an in-memory edge list into the chunk stream :func:`external_build`
    takes.

    The concatenation of the yielded chunks is exactly ``edges`` — how
    ``repro build --npz`` streams an archive, and the bridge the tests use to
    prove the streaming build bit-identical to the in-memory one.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    for start in range(0, edges.num_edges, chunk_edges):
        stop = min(start + chunk_edges, edges.num_edges)
        yield edges.src[start:stop], edges.dst[start:stop]


# --------------------------------------------------------------------------- #
# Sorted-run reader for the k-way merge
# --------------------------------------------------------------------------- #
class _RunReader:
    """Buffered reader over one sorted ``int64`` run file."""

    def __init__(self, path: Path, block_edges: int) -> None:
        self._fh = open(path, "rb")
        self._block_bytes = block_edges * 8
        self.buffer = np.zeros(0, dtype=np.int64)
        self._pos = 0
        self._refill()

    def _refill(self) -> None:
        data = self._fh.read(self._block_bytes)
        self.buffer = np.frombuffer(data, dtype=np.int64)
        self._pos = 0
        if not data:
            self._fh.close()

    @property
    def exhausted(self) -> bool:
        return self.buffer.size == 0

    def take_upto(self, bound: int) -> np.ndarray:
        """Consume and return every unread buffered key ``<= bound``."""
        hi = int(np.searchsorted(self.buffer[self._pos :], bound, side="right")) + self._pos
        out = self.buffer[self._pos : hi]
        self._pos = hi
        if self._pos >= self.buffer.size:
            self._refill()
        return out


def _iter_blocks(path: Path, dtype, block_elems: int) -> Iterator[np.ndarray]:
    """Stream a flat binary array file in blocks of ``block_elems`` elements."""
    itemsize = np.dtype(dtype).itemsize
    with open(path, "rb") as fh:
        while True:
            data = fh.read(block_elems * itemsize)
            if not data:
                return
            yield np.frombuffer(data, dtype=dtype)


# --------------------------------------------------------------------------- #
# Streamed threshold suggestion
# --------------------------------------------------------------------------- #
def _stream_suggest_threshold(
    keys_path: Path, degrees: np.ndarray, num_edges: int, num_gpus: int, block_edges: int
) -> int:
    """:func:`repro.partition.delegates.suggest_threshold` over the sorted key
    file: every candidate's nn-edge count in one streamed pass, then the same
    selection."""
    cands = threshold_candidates(int(degrees.max()) if degrees.size else 0)
    nn_counts = np.zeros(cands.size, dtype=np.int64)
    n = np.int64(degrees.size)
    if num_edges:
        for keys in _iter_blocks(keys_path, np.int64, block_edges):
            deg_src = degrees[keys // n]
            deg_dst = degrees[keys % n]
            for ci, th in enumerate(cands):
                nn_counts[ci] += int(np.count_nonzero((deg_src <= th) & (deg_dst <= th)))
    return _select_threshold(cands, degrees, lambda i: int(nn_counts[i]), num_edges, num_gpus)


# --------------------------------------------------------------------------- #
# Compressed-column assembly helpers
# --------------------------------------------------------------------------- #
def _row_blocks(row_offsets: np.ndarray, block_edges: int) -> Iterator[tuple[int, int]]:
    """Yield row ranges whose edge counts stay near ``block_edges`` (aligned
    to row boundaries, so delta encoding never splits a row)."""
    num_rows = row_offsets.size - 1
    r0 = 0
    while r0 < num_rows:
        r1 = int(np.searchsorted(row_offsets, row_offsets[r0] + block_edges, side="right")) - 1
        r1 = min(max(r1, r0 + 1), num_rows)
        yield r0, r1
        r0 = r1


def _delta_block(cols: np.ndarray, ro_local: np.ndarray) -> np.ndarray:
    """Per-row delta transform of a row-aligned column block (first raw)."""
    deltas = np.empty(cols.size, dtype=np.int64)
    if cols.size:
        deltas[0] = cols[0]
        deltas[1:] = cols[1:] - cols[:-1]
        lengths = np.diff(ro_local)
        firsts = ro_local[:-1][lengths > 0]
        deltas[firsts] = cols[firsts]
        if int(deltas.min()) < 0:
            raise ValueError("bucket columns are not in sorted CSR order")
    return deltas


def _iter_bucket_row_blocks(
    path: Path, dtype, row_offsets: np.ndarray, block_edges: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(cols, ro_local)`` per row-aligned block of a bucket file."""
    itemsize = np.dtype(dtype).itemsize
    with open(path, "rb") as fh:
        for r0, r1 in _row_blocks(row_offsets, block_edges):
            count = int(row_offsets[r1] - row_offsets[r0])
            data = fh.read(count * itemsize)
            cols = np.frombuffer(data, dtype=dtype).astype(np.int64)
            yield cols, row_offsets[r0 : r1 + 1] - row_offsets[r0]


# --------------------------------------------------------------------------- #
# The build driver
# --------------------------------------------------------------------------- #
def external_build(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    num_vertices: int,
    layout: ClusterLayout,
    out: str | Path,
    threshold: int | None = None,
    storage: str = "mmap",
    hash_seed: int | None = 1,
    block_edges: int = DEFAULT_BLOCK_EDGES,
    workdir: str | Path | None = None,
    keep_scratch: bool = False,
) -> tuple[Path, dict]:
    """Build a graph store out of core from raw directed edge chunks.

    Parameters
    ----------
    chunks:
        Iterable of raw directed ``(src, dst)`` chunk pairs (generator
        output, *before* preparation: doubling, dedup and hashing happen
        here, streamed).
    num_vertices:
        Vertex universe size ``n``.
    layout:
        Cluster geometry to partition for.
    out:
        Store directory to create.
    threshold:
        Degree threshold ``TH``; ``None`` replays the paper's tuning rule
        over the streamed degree data.
    storage:
        ``"mmap"`` or ``"compressed"`` — the store flavour to write.
    hash_seed:
        Vertex-permutation seed (``None`` skips relabeling), matching the
        ``hash_seed`` of :meth:`EdgeList.prepared`.
    block_edges:
        Resident edge budget per pass; peak memory scales with this, never
        with the total edge count.
    workdir:
        Scratch directory for runs and buckets (default ``out``/scratch,
        removed afterwards unless ``keep_scratch``).

    Returns
    -------
    (store_path, report):
        The store directory and a report dict with per-phase walls
        (``ingest``/``merge``/``threshold``/``distribute``/``assemble``),
        the chosen threshold and the edge-category census.
    """
    if storage not in ("mmap", "compressed"):
        raise ValueError(f"storage must be 'mmap' or 'compressed', got {storage!r}")
    if block_edges < 1:
        raise ValueError("block_edges must be >= 1")
    n = int(num_vertices)
    if n and n > (np.iinfo(np.int64).max // max(n, 1)):
        raise ValueError(f"vertex universe {n} too large for packed-key external sort")
    out = Path(out)
    scratch = Path(workdir) if workdir is not None else out / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    walls: dict[str, float] = {}
    n64 = np.int64(n)

    # Pass 1: ingest — prepare each chunk independently into a sorted run.
    t0 = now_s()
    perm = deterministic_hash_permutation(n, seed=hash_seed) if hash_seed is not None else None
    runs: list[Path] = []
    num_chunks = 0
    for chunk in chunks:
        if len(chunk) != 2:
            raise ValueError(
                "external_build does not support weighted edge chunks: the "
                "packed-key sort carries no weight stream.  Build weighted "
                "graphs in memory (build_partitions + save_graph_store) or "
                "drop weights_seed from the generator."
            )
        num_chunks += 1
        keys, _ = _unique_edge_keys(*chunk, n, perm=perm)
        if keys.size == 0:
            continue
        path = scratch / f"run_{len(runs):05d}.bin"
        with open(path, "wb") as fh:
            fh.write(keys.tobytes())
        runs.append(path)
    walls["ingest"] = now_s() - t0
    get_tracer().record_span(
        "extsort-ingest", cat="storage", start=t0, dur=walls["ingest"]
    )

    # Pass 2: merge — global sorted dedup + exact out-degree accumulation.
    t0 = now_s()
    degrees = np.zeros(n, dtype=np.int64)
    keys_path = scratch / "keys.bin"
    num_edges = 0
    with open(keys_path, "wb") as out_fh:
        readers = [_RunReader(p, block_edges) for p in runs]
        readers = [r for r in readers if not r.exhausted]
        while readers:
            bound = min(int(r.buffer[-1]) for r in readers)
            merged = sorted_unique(np.concatenate([r.take_upto(bound) for r in readers]))
            degrees += np.bincount(merged // n64, minlength=n)
            out_fh.write(merged.tobytes())
            num_edges += merged.size
            readers = [r for r in readers if not r.exhausted]
    walls["merge"] = now_s() - t0
    get_tracer().record_span(
        "extsort-merge", cat="storage", start=t0, dur=walls["merge"]
    )

    # Pass 3 (optional): replay the paper's threshold tuning rule, streamed.
    t0 = now_s()
    if threshold is None:
        threshold = _stream_suggest_threshold(
            keys_path, degrees, num_edges, layout.num_gpus, block_edges
        )
    walls["threshold"] = now_s() - t0
    get_tracer().record_span(
        "extsort-threshold", cat="storage", start=t0, dur=walls["threshold"]
    )

    is_delegate = degrees > threshold
    delegate_vertices = np.flatnonzero(is_delegate).astype(np.int64)
    delegate_id_of = np.full(n, -1, dtype=np.int64)
    delegate_id_of[delegate_vertices] = np.arange(delegate_vertices.size, dtype=np.int64)
    separation = DegreeSeparation(
        threshold=int(threshold),
        degrees=degrees,
        is_delegate=is_delegate,
        delegate_vertices=delegate_vertices,
        delegate_id_of=delegate_id_of,
    )
    d = separation.num_delegates
    p = layout.num_gpus

    # Pass 4: distribute — Algorithm 1 per block, columns appended per bucket.
    # The sorted key stream + monotone row/column transforms mean each bucket
    # file is already in final CSR order as it lands on disk.
    t0 = now_s()
    num_local = {g: layout.num_local_vertices(g, n) for g in range(p)}
    shapes = {
        (g, key): _quadrant_shape(key, n, d, num_local[g]) for g in range(p) for key in _CSR_KEYS
    }
    bucket_rows = {bk: np.zeros(shape[0], dtype=np.int64) for bk, shape in shapes.items()}
    bucket_paths = {
        (g, key): scratch / f"bucket_g{g}_{key}.bin" for g in range(p) for key in _CSR_KEYS
    }
    bucket_fh = {bk: open(path, "wb") for bk, path in bucket_paths.items()}
    cat_totals = np.zeros(4, dtype=np.int64)
    local_index = layout.local_index_of(np.arange(n, dtype=np.int64))
    try:
        for keys in _iter_blocks(keys_path, np.int64, block_edges):
            src = keys // n64
            dst = keys - src * n64
            assignment = distribute_edges(EdgeList(src, dst, n), separation, layout)
            cat_totals += np.bincount(assignment.category, minlength=4)
            for (g, key), picked in _quadrant_groups(assignment).items():
                if picked.size == 0:
                    continue
                rows, cols = _quadrant_ids(
                    key, src[picked], dst[picked], local_index, delegate_id_of
                )
                bucket_rows[g, key] += np.bincount(rows, minlength=bucket_rows[g, key].size)
                bucket_fh[g, key].write(
                    np.ascontiguousarray(cols, dtype=shapes[g, key][2]).tobytes()
                )
    finally:
        for fh in bucket_fh.values():
            fh.close()
    walls["distribute"] = now_s() - t0
    get_tracer().record_span(
        "extsort-distribute", cat="storage", start=t0, dur=walls["distribute"]
    )

    census = EdgeCategoryCensus(
        threshold=int(threshold),
        num_vertices=n,
        num_edges=num_edges,
        num_delegates=d,
        nn_edges=int(cat_totals[EDGE_CATEGORIES["nn"]]),
        nd_edges=int(cat_totals[EDGE_CATEGORIES["nd"]]),
        dn_edges=int(cat_totals[EDGE_CATEGORIES["dn"]]),
        dd_edges=int(cat_totals[EDGE_CATEGORIES["dd"]]),
    )

    # Pass 5: assemble — the store segment, in the same array layout the
    # in-memory saver (save_graph_store) produces.
    t0 = now_s()
    writer = SegmentWriter(out)
    writer.add("sep.degrees", degrees)
    writer.add("sep.is_delegate", is_delegate)
    writer.add("sep.delegate_vertices", delegate_vertices)
    writer.add("sep.delegate_id_of", delegate_id_of)
    gpus_meta: list[dict] = []
    for g in range(p):
        csr_meta: dict[str, dict] = {}
        for key in _CSR_KEYS:
            nrows, ncols, dtype = shapes[g, key]
            ro = np.zeros(nrows + 1, dtype=np.int64)
            np.cumsum(bucket_rows[g, key], out=ro[1:])
            kind = "compressed" if storage == "compressed" and key in _COMPRESSIBLE else "raw"
            csr_meta[key] = {
                "num_rows": int(nrows),
                "num_cols": int(ncols),
                "num_edges": int(ro[-1]),
                "dtype": dtype.name,
                "kind": kind,
            }
            prefix = f"g{g}.{key}"
            writer.add(f"{prefix}.ro", ro)
            path = bucket_paths[g, key]
            if kind == "compressed":
                _assemble_compressed(writer, prefix, path, dtype, ro, block_edges)
            else:
                writer.append_blocks(
                    f"{prefix}.ci", dtype, _iter_blocks(path, dtype, block_edges)
                )
        owned = layout.owned_vertices(g, n)
        writer.add(
            f"g{g}.local_is_normal",
            ~is_delegate[owned] if num_local[g] else np.zeros(0, dtype=bool),
        )
        writer.add(
            f"g{g}.nd_source_list",
            np.flatnonzero(bucket_rows[g, "nd"] > 0).astype(np.int64),
        )
        writer.add(
            f"g{g}.dn_source_mask",
            (bucket_rows[g, "dn"] > 0) if d else np.zeros(0, dtype=bool),
        )
        writer.add(
            f"g{g}.dd_source_mask",
            (bucket_rows[g, "dd"] > 0) if d else np.zeros(0, dtype=bool),
        )
        gpus_meta.append({"num_local": int(num_local[g]), "csrs": csr_meta})
    writer.finish(
        {
            "storage": storage,
            "layout": layout.notation(),
            "threshold": int(threshold),
            "num_vertices": n,
            "num_directed_edges": int(num_edges),
            "census": _census_metadata(census),
            "gpus": gpus_meta,
        }
    )
    walls["assemble"] = now_s() - t0
    get_tracer().record_span(
        "extsort-assemble", cat="storage", start=t0, dur=walls["assemble"]
    )

    if not keep_scratch:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "walls": walls,
        "storage": storage,
        "store_path": str(out),
        "threshold": int(threshold),
        "num_vertices": n,
        "num_directed_edges": int(num_edges),
        "num_delegates": d,
        "num_chunks": num_chunks,
        "num_runs": len(runs),
        "block_edges": int(block_edges),
        "census": census.as_dict(),
    }
    return out, report


def _assemble_compressed(
    writer: SegmentWriter,
    prefix: str,
    bucket_path: Path,
    dtype: np.dtype,
    ro: np.ndarray,
    block_edges: int,
) -> None:
    """Two-pass varint assembly of one bucket: byte offsets, then payload."""
    num_rows = ro.size - 1
    row_bytes = np.zeros(num_rows, dtype=np.int64)
    r0 = 0
    for cols, ro_local in _iter_bucket_row_blocks(bucket_path, dtype, ro, block_edges):
        nrows_blk = ro_local.size - 1
        sizes = varint_sizes(_delta_block(cols, ro_local))
        csizes = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=csizes[1:])
        row_bytes[r0 : r0 + nrows_blk] = csizes[ro_local[1:]] - csizes[ro_local[:-1]]
        r0 += nrows_blk
    byte_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_bytes, out=byte_offsets[1:])
    writer.add(f"{prefix}.bo", byte_offsets)

    def payload_blocks():
        for cols, ro_local in _iter_bucket_row_blocks(bucket_path, dtype, ro, block_edges):
            payload, _ = varint_encode(_delta_block(cols, ro_local))
            yield payload

    writer.append_blocks(f"{prefix}.pl", np.uint8, payload_blocks())
