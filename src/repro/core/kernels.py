"""Local traversal kernels (paper §IV, Figure 3).

Each virtual GPU runs up to four *visit* kernels per super-step, one per
subgraph.  In the real system these are CUDA kernels with merge-based or
thread-warp-block load balancing; here they are vectorized NumPy functions
that produce the identical set of discovered vertices **and** count exactly
how many edges they examined, because the examined-edge count is what drives
the paper's performance results (workload is what the GPUs are throughput-
bound on).

The kernels are pure functions of a CSR, the rows they visit and their
dense frontier buffers.  The engine's walk runs each one where it decides it,
through :func:`repro.core.frontier.run_visit`, which resolves (and, on
compressed storage, decodes) the CSR it scans.

Forward-push kernels gather the full neighbour lists of the frontier
(workload = FV, the sum of frontier out-degrees).  Backward-pull kernels scan
the parent list of each unvisited candidate only until the first parent in the
frontier is found (workload = edges examined before the first hit, or the full
list when there is none) — this early exit is the whole point of
direction-optimized BFS.  The vectorized pull exits early too, by rounds: it
*lists* (gathers and tests) each candidate's first parent, then the next four
of the candidates still open, then the rest of the lists that are still open,
so what it lists stays close to what the serial scan *examines* (1.24x on the
Graph500 workload, where whole lists are 4.2x); ``edges_examined`` is the
serial scan's count either way.  Every kernel that lists edges builds its
index through :meth:`repro.graph.csr.CSRGraph._gather_index` /
:func:`repro.graph.csr.span_index`.

The hottest bodies have a second, compiled statement in ``_c_kernels.c``:
the pull (a plain early-exit scan per candidate), the forward and weighted
gathers, the batched pull and push (the latter OR-ing lanes into a dense
per-column accumulator) and the varint decode of
:meth:`repro.storage.codec.CompressedCSR.decode_rows`.  The first import
compiles it once per source and compiler (``cc -O2 -shared -fPIC``) into
``~/.cache/repro/`` — or a private per-uid directory under the system
temporary directory when home is not writable — and loads it with
``ctypes``.  A compiled visit resolves a CSR's contiguous arrays and their
addresses once per CSR object (:func:`_bound`), so a call on a near-empty
frontier pays only for the addresses of its own rows and its one output
buffer.  Whenever that fails (no compiler, no writable cache, a library
that will not load) every kernel runs its NumPy statement, silently; there is
no option to choose.  Both statements return the same arrays, counts and
errors (``tests/test_c_kernels.py``); which one ran is a fact of the host,
recorded as ``native_kernels`` in a ``bench run`` artifact.

The ``batched_*`` variants are the MS-BFS-style kernels of the batched engine
path: the per-vertex frontier membership is a B-wide lane bitset
(:class:`repro.utils.bitmask.BatchBitmask` rows), and one sweep propagates all
B concurrent traversals at once by OR-combining the source rows' lane words
into the destinations.  A batched backward pull has no early exit — every lane
must collect its own parents — so its workload is the full candidate parent
lists, which is also what makes the forward/backward trade-off different from
the single-source case.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph, span_index

__all__ = [
    "PULL_ONE_PASS_EDGES",
    "KernelOutput",
    "BatchKernelOutput",
    "forward_visit",
    "weighted_forward_visit",
    "contrib_visit",
    "backward_visit",
    "batched_filter_frontier",
    "batched_forward_visit",
    "batched_backward_visit",
]


#: A backward pull whose candidates hold fewer parent edges than this lists
#: every list whole, in one pass; from here on it goes by rounds.  A round
#: costs a dozen array operations whatever it lists, which a small call never
#: wins back.  Measured break-even on the 2,283 pulls of one ``rmat16-g500``
#: pass (``benchmarks/results/pr20/pull_rounds.py``, best of 5 per call, rounds
#: over one pass, three sessions): 1.2-1.8x below 2 k edges, 1.0-1.3x at
#: 2-3 k, 0.96-0.99x at 3-4 k, 0.80-0.92x at 4-6 k, 0.3-0.7x from 8 k on.
PULL_ONE_PASS_EDGES = 4096


@dataclass
class KernelOutput:
    """Result of one visit kernel.

    Attributes
    ----------
    discovered:
        Destination ids discovered by this kernel.  For forward kernels these
        are raw gather outputs (duplicates possible, already-visited vertices
        possible — filtering happens at the destination, as on a real GPU
        where the atomicMin on the label does the filtering).  For backward
        kernels these are the candidate rows that found a parent (each appears
        exactly once).
    edges_examined:
        Exact number of edges the kernel touched; feeds the performance model.
    backward:
        Whether the kernel ran in backward-pull mode (pulls are cheaper per
        edge in the hardware model).
    sources:
        Per entry of ``discovered``, the id of the vertex that discovered it:
        the frontier row for forward kernels, the first frontier parent hit by
        the early-exit scan for backward kernels.  Frontier programs that
        attach a per-discovery value (parent pointers, component labels) read
        this; level-style programs may ignore it.
    weights:
        Per entry of ``discovered``, the ``float64`` weight of the traversed
        edge.  Populated only by :func:`weighted_forward_visit` (SSSP-style
        programs whose ``needs_weights`` attribute is set); ``None``
        otherwise.
    values:
        Per entry of ``discovered``, an ``int64`` value carried along the
        edge.  Populated only by :func:`contrib_visit` (PageRank-style
        contribution scatter); ``None`` otherwise.
    """

    discovered: np.ndarray
    edges_examined: int
    backward: bool
    sources: np.ndarray = None  # type: ignore[assignment]
    weights: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sources is None:
            self.sources = np.zeros(0, dtype=np.int64)


def forward_visit(csr: CSRGraph, frontier: np.ndarray) -> KernelOutput:
    """Forward-push visit: gather all neighbours of the frontier rows.

    Parameters
    ----------
    csr:
        The subgraph to traverse (rows = frontier id space).
    frontier:
        Row ids to expand (sorted, unique, positive out-degree: the previsit
        filter of :mod:`repro.core.frontier` has run).

    Returns
    -------
    KernelOutput
        ``discovered`` holds the raw destination ids (column id space of the
        subgraph); ``edges_examined`` equals the frontier's total out-degree.
    """
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    if frontier.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
    if _LIB is not None:
        rows, destinations, _ = _c_gather(csr, frontier)
    else:
        rows, destinations = csr.gather_neighbors(frontier)
    return KernelOutput(
        discovered=np.asarray(destinations, dtype=np.int64),
        edges_examined=int(destinations.size),
        backward=False,
        sources=np.asarray(rows, dtype=np.int64),
    )


def weighted_forward_visit(csr: CSRGraph, frontier: np.ndarray) -> KernelOutput:
    """Forward-push visit that also gathers the traversed edges' weights.

    The weighted twin of :func:`forward_visit` for value-propagation programs
    (SSSP relaxation): same discovered set, same workload accounting, plus a
    ``weights`` array parallel to ``discovered``.  Requires the subgraph to
    carry ``edge_weights``.
    """
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    if frontier.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
    if _LIB is not None and csr.edge_weights is not None:
        rows, destinations, weights = _c_gather(csr, frontier, weighted=True)
    else:
        rows, destinations, weights = csr.gather_neighbors_with_weights(frontier)
    return KernelOutput(
        discovered=np.asarray(destinations, dtype=np.int64),
        edges_examined=int(destinations.size),
        backward=False,
        sources=np.asarray(rows, dtype=np.int64),
        weights=weights,
    )


def contrib_visit(csr: CSRGraph, rows: np.ndarray, row_values: np.ndarray) -> KernelOutput:
    """Contribution scatter: push one ``int64`` value per row to its neighbours.

    The PageRank work-horse: every active row ``rows[i]`` sends
    ``row_values[i]`` along each of its out-edges.  The receiver folds the
    per-edge values with an order-free integer add, so the result is
    bit-identical regardless of which backend or storage mode ran the
    scatter.

    Returns
    -------
    KernelOutput
        ``discovered`` holds the destination ids, ``values`` the per-edge
        contribution (the emitting row's value repeated over its out-degree),
        and ``edges_examined`` the total out-degree of the active rows.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    row_values = np.asarray(row_values, dtype=np.int64).ravel()
    if rows.size != row_values.size:
        raise ValueError("row_values must be parallel to rows")
    if rows.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
    # Edges are listed grouped by row in input order, so the per-edge value is
    # the row's value repeated over its out-degree, like the row id itself.
    lengths, edge_idx = csr._gather_index(rows)
    if edge_idx.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
    return KernelOutput(
        discovered=np.asarray(csr.column_indices[edge_idx], dtype=np.int64),
        edges_examined=int(edge_idx.size),
        backward=False,
        sources=np.repeat(rows, lengths),
        values=np.repeat(row_values, lengths),
    )


def backward_visit(
    reverse_csr: CSRGraph,
    candidates: np.ndarray,
    parent_in_frontier: np.ndarray,
) -> KernelOutput:
    """Backward-pull visit with early exit and exact workload counting.

    The early exit is taken by rounds.  Round one tests every candidate's
    first parent with one plain gather; round two lists the next four parents
    of the candidates still open and finds each one's first hit with a
    segmented scan; the last round does the same over whatever is left of
    the lists still open.  A candidate leaves at its first hit or at the end
    of its list, so a round lists only what the serial scan would also read,
    plus at most the rest of that round's window.  A call whose candidates
    hold fewer than :data:`PULL_ONE_PASS_EDGES` parent edges skips the fixed-
    width rounds: its one round is the last one, over the whole lists.

    Parameters
    ----------
    reverse_csr:
        CSR whose rows are the *unvisited candidates* and whose columns are
        their potential parents (i.e. the reverse of the subgraph being
        traversed; for the locally-symmetric dd subgraph it is the subgraph
        itself).
    candidates:
        Row ids of unvisited vertices to test, in any order; a repeated row
        is tested (and counted) once per occurrence.
    parent_in_frontier:
        Boolean array over the column id space: ``True`` where the potential
        parent was newly visited in the previous super-step.

    Returns
    -------
    KernelOutput
        ``discovered`` lists, in candidate order, the candidate rows that
        found a parent in the frontier and ``sources`` the first such parent
        of each; ``edges_examined`` counts, per candidate, the parents
        scanned up to and including the first hit (or the whole list when no
        parent is in the frontier), which is the exact workload of a serial
        early-exit scan — the quantity the paper's BV formula estimates —
        however many edges the rounds listed to find it.
    """
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    parent_in_frontier = np.asarray(parent_in_frontier, dtype=bool)
    if candidates.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=True)
    if _LIB is not None:
        return _c_backward_visit(reverse_csr, candidates, parent_in_frontier)
    columns = reverse_csr.column_indices
    starts, lengths = reverse_csr._row_spans(candidates)
    total = int(lengths.sum())
    if total == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=True)

    # Per candidate, the position in ``columns`` of its first frontier parent
    # (-1 while none is known).  ``open_rows`` are the candidates still
    # scanning, ``position`` their next unread parent, ``left`` how many
    # parents they have not read yet.  Index arrays, not masks: a boolean
    # selection costs several times a ``take``.
    hit_edge = np.full(candidates.size, -1, dtype=np.int64)
    open_rows = np.flatnonzero(lengths)
    position, left = starts.take(open_rows), lengths.take(open_rows)
    for width in (1, 4) if total >= PULL_ONE_PASS_EDGES else ():
        if width == 1:
            first_hit = position
            found = parent_in_frontier.take(columns.take(position))
        else:
            first_hit = _first_hits(
                columns, parent_in_frontier, position, np.minimum(left, width)
            )
            found = first_hit >= 0
        hits = np.flatnonzero(found)
        hit_edge[open_rows.take(hits)] = first_hit.take(hits)
        still = np.flatnonzero(~found & (left > width))
        open_rows = open_rows.take(still)
        position, left = position.take(still) + width, left.take(still) - width
    # The last round reads whatever is left of the lists still open — all of
    # every list when the call stayed one pass.
    first_hit = _first_hits(columns, parent_in_frontier, position, left)
    hits = np.flatnonzero(first_hit >= 0)
    hit_edge[open_rows.take(hits)] = first_hit.take(hits)

    # An early-exit scan reads up to and including the first frontier parent,
    # which is the candidate's discovering source; a candidate without one
    # reads its whole list.
    found = np.flatnonzero(hit_edge >= 0)
    hit = hit_edge.take(found)
    unread = lengths.take(found) - (hit - starts.take(found) + 1)
    return KernelOutput(
        discovered=candidates.take(found),
        edges_examined=total - int(unread.sum()),
        backward=True,
        sources=np.asarray(columns.take(hit), dtype=np.int64),
    )


def _first_hits(
    columns: np.ndarray, in_frontier: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per non-empty span ``columns[starts[i] : starts[i] + lengths[i]]``, the
    position of its first entry that is in the frontier, or -1.

    A segmented minimum over the positions of the hit edges, one ``reduceat``
    pass over the listed edges and no per-hit sort.  A miss is masked to -1
    (hit flag minus one is 0 at a hit and all ones at a miss; OR-ing it in is
    a third of the cost of ``np.where``), which read as unsigned is above any
    position, so the minimum of a span is -1 exactly when nothing in it hit.
    """
    edge_idx = span_index(starts, lengths)
    hit_positions = in_frontier.take(columns.take(edge_idx)).astype(np.int64)
    hit_positions -= 1
    hit_positions |= edge_idx
    first = np.minimum.reduceat(hit_positions.view(np.uint64), np.cumsum(lengths) - lengths)
    return first.view(np.int64)


# --------------------------------------------------------------------------- #
# Batched (MS-BFS style) kernels
# --------------------------------------------------------------------------- #
@dataclass
class BatchKernelOutput:
    """Result of one batched visit kernel.

    Attributes
    ----------
    discovered:
        Unique destination ids this kernel proposed updates for (sorted).
    words:
        Per entry of ``discovered``, the OR-combined ``uint64`` lane words of
        every source that reached it this super-step — shape
        ``(len(discovered), nwords)``.  Destination-side filtering (dropping
        lanes already visited) happens at the state update, as on a real GPU
        where an atomicOr on the lane word does the filtering.
    edges_examined:
        Exact number of edges the kernel touched; feeds the performance model.
    backward:
        Whether the kernel ran in backward-pull mode.
    """

    discovered: np.ndarray
    words: np.ndarray
    edges_examined: int
    backward: bool


def _empty_batch_output(nwords: int, backward: bool) -> BatchKernelOutput:
    return BatchKernelOutput(
        discovered=np.zeros(0, dtype=np.int64),
        words=np.zeros((0, nwords), dtype=np.uint64),
        edges_examined=0,
        backward=backward,
    )


def batched_filter_frontier(
    rows: np.ndarray, words: np.ndarray, out_degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Previsit filtering for a batched frontier: drop zero-out-degree rows.

    ``rows`` are already unique (they come from
    :meth:`repro.utils.bitmask.BatchBitmask.nonzero_rows`), so no
    deduplication is needed — only the zero-degree drop, applied to the rows
    and their lane words in step.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    words = np.asarray(words, dtype=np.uint64)
    if rows.size == 0:
        return rows, words
    keep = out_degrees[rows] > 0
    return rows[keep], words[keep]


def batched_forward_visit(
    csr: CSRGraph, frontier_rows: np.ndarray, frontier_words: np.ndarray
) -> BatchKernelOutput:
    """Batched forward push: propagate every lane of the frontier at once.

    Parameters
    ----------
    csr:
        The subgraph to traverse (rows = frontier id space).
    frontier_rows:
        Sorted unique row ids to expand (pre-filtered by
        :func:`batched_filter_frontier`).
    frontier_words:
        Lane words parallel to ``frontier_rows`` (``(len, nwords)`` uint64).

    Returns
    -------
    BatchKernelOutput
        One entry per unique destination with the OR of the lane words of all
        frontier rows that reach it; ``edges_examined`` equals the frontier's
        total out-degree, exactly as in the single-source forward push — the
        batch amortizes the sweep, it does not change the edge workload.
    """
    frontier_rows = np.asarray(frontier_rows, dtype=np.int64).ravel()
    frontier_words = np.asarray(frontier_words, dtype=np.uint64)
    nwords = frontier_words.shape[1] if frontier_words.ndim == 2 else 1
    if frontier_rows.size == 0:
        return _empty_batch_output(nwords, backward=False)
    # The compiled loop addresses one row of lane words per frontier row.
    if _LIB is not None and frontier_words.shape == (frontier_rows.size, nwords):
        return _c_batched_push(csr, frontier_rows, frontier_words)
    rows, destinations = csr.gather_neighbors(frontier_rows)
    if destinations.size == 0:
        return _empty_batch_output(nwords, backward=False)
    # Lane word of the discovering source, per edge: frontier_rows is sorted
    # unique, so the edge's position in it is a binary search.
    edge_words = frontier_words[
        np.searchsorted(frontier_rows, np.asarray(rows, dtype=np.int64))
    ]
    unique, inverse = np.unique(np.asarray(destinations, dtype=np.int64), return_inverse=True)
    out_words = np.zeros((unique.size, nwords), dtype=np.uint64)
    np.bitwise_or.at(out_words, inverse, edge_words)
    return BatchKernelOutput(
        discovered=unique,
        words=out_words,
        edges_examined=int(destinations.size),
        backward=False,
    )


def batched_backward_visit(
    reverse_csr: CSRGraph,
    candidates: np.ndarray,
    parent_words: np.ndarray,
    wanted_words: np.ndarray,
) -> BatchKernelOutput:
    """Batched backward pull: each candidate collects all its parents' lanes.

    Parameters
    ----------
    reverse_csr:
        CSR whose rows are the candidates and whose columns are their
        potential parents.
    candidates:
        Sorted unique row ids still missing at least one lane.
    parent_words:
        Dense ``(num_cols, nwords)`` array of the previous super-step's
        frontier lane words over the parent id space (zero rows = not in the
        frontier).
    wanted_words:
        Per candidate, the lanes it still wants (``~visited``), parallel to
        ``candidates``; pulled lanes outside this set are dropped here, the
        free local filter of the batched pull.

    Returns
    -------
    BatchKernelOutput
        Candidates that gained at least one wanted lane, with the gained
        words.  ``edges_examined`` counts the *full* parent lists: a batched
        pull cannot early-exit because every lane needs its own first parent,
        so its workload is the whole candidate neighbourhood — the price that
        shifts the direction trade-off relative to single-source DOBFS.
    """
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    parent_words = np.asarray(parent_words, dtype=np.uint64)
    wanted_words = np.asarray(wanted_words, dtype=np.uint64)
    nwords = parent_words.shape[1] if parent_words.ndim == 2 else 1
    if candidates.size == 0:
        return _empty_batch_output(nwords, backward=True)
    # The compiled loop addresses one row of lane words per parent and per
    # candidate.
    if (
        _LIB is not None
        and parent_words.ndim == 2
        and wanted_words.shape == (candidates.size, nwords)
    ):
        return _c_batched_pull(reverse_csr, candidates, parent_words, wanted_words)
    all_lengths, edge_idx = reverse_csr._gather_index(candidates)
    if edge_idx.size == 0:
        return _empty_batch_output(nwords, backward=True)
    parents = reverse_csr.column_indices[edge_idx]

    nonzero_mask = all_lengths > 0
    seg_lengths = all_lengths[nonzero_mask]
    seg_candidates = candidates[nonzero_mask]
    seg_starts = np.cumsum(seg_lengths) - seg_lengths

    pulled = np.bitwise_or.reduceat(parent_words[parents], seg_starts, axis=0)
    gained = pulled & wanted_words[nonzero_mask]
    found = gained.any(axis=1)
    return BatchKernelOutput(
        discovered=seg_candidates[found],
        words=gained[found],
        edges_examined=int(parents.size),
        backward=True,
    )


# --------------------------------------------------------------------------- #
# The compiled tier: ``_c_kernels.c``, built once per source and compiler
# --------------------------------------------------------------------------- #
_SOURCE = Path(__file__).with_name("_c_kernels.c")
#: A cached library ends in the sha256 of the bytes before it (``dlopen``
#: ignores trailing bytes), so a truncated or damaged file is rebuilt rather
#: than mapped.
_DIGEST_BYTES = 32

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_PULL = (_I64, [_PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _PTR])
_GATHER = (None, [_PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR])
_DECODE = (_I64, [_PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR])
_BATCHED_PULL = (
    _I64, [_PTR, _I64, _PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR]
)
_BATCHED_PUSH = (_I64, [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR])
#: ``(restype, argtypes)`` of every function of the library.
_SIGNATURES = {
    "pull_i32": _PULL,
    "pull_i64": _PULL,
    "gather_size": (_I64, [_PTR, _I64, _I64, _PTR, _I64]),
    "gather_i32": _GATHER,
    "gather_i64": _GATHER,
    "decode_i32": _DECODE,
    "decode_i64": _DECODE,
    "batched_pull_i32": _BATCHED_PULL,
    "batched_pull_i64": _BATCHED_PULL,
    "batched_push_i32": _BATCHED_PUSH,
    "batched_push_i64": _BATCHED_PUSH,
}

#: What a negative status of the pull or the gather means, past a row out of
#: range (which the NumPy body's own check reports).
_ROW_ERRORS = {
    -2: "column index out of range of the frontier flags",
    -3: "row spans outside the column array",
}


def _cache_dirs():
    """Where a compiled library may live: the user's cache, else a per-uid
    directory under the system temporary directory."""
    home = os.path.expanduser("~")
    if os.path.isabs(home):
        yield Path(home, ".cache", "repro")
    yield Path(tempfile.gettempdir(), f"repro-{os.getuid()}")


def _private_dir(directory: Path) -> bool:
    """Create ``directory`` if needed; whether only this user can write it
    (a library is loaded from nowhere another user could plant one)."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = directory.stat()
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & 0o022


def _open_library(path: Path):
    """The library at ``path`` with its signatures declared, or ``None``
    when it is missing, fails its digest or will not load."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    body, digest = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
    if len(blob) <= _DIGEST_BYTES or hashlib.sha256(body).digest() != digest:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


def _load_library():
    """``(library, compiler id)`` of the compiled kernels, or ``(None,
    None)`` when any step fails: then every kernel runs its NumPy body.

    A missing or damaged library is compiled into a temporary file beside
    its place, the digest appended, and renamed over it, so a concurrent
    importer sees the old file or the whole new one.
    """
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None, None
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, check=True, timeout=30
        ).stdout
        source = _SOURCE.read_bytes()
    except (OSError, subprocess.SubprocessError):
        return None, None
    key = hashlib.sha256(source + b"\0" + version).hexdigest()[:24]
    for directory in _cache_dirs():
        if not _private_dir(directory):
            continue
        path = directory / f"_c_kernels-{key}.so"
        lib = _open_library(path)
        if lib is None:
            building = None
            try:
                fd, building = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
                os.close(fd)
                subprocess.run(
                    [compiler, "-O2", "-shared", "-fPIC", "-o", building, str(_SOURCE)],
                    capture_output=True, check=True, timeout=120,
                )
                body = Path(building).read_bytes()
                with open(building, "ab") as out:
                    out.write(hashlib.sha256(body).digest())
                os.replace(building, path)
            except (OSError, subprocess.SubprocessError):
                pass
            finally:
                if building is not None and os.path.exists(building):
                    os.unlink(building)
            lib = _open_library(path)
        if lib is not None:
            return lib, version.decode(errors="replace").splitlines()[0].strip()
    return None, None


class _Bound(NamedTuple):
    """A CSR as the compiled kernels address it: its contiguous arrays and
    their addresses, beside the arrays they were resolved from."""

    row_offsets: np.ndarray
    column_indices: np.ndarray
    edge_weights: np.ndarray | None
    offsets: np.ndarray
    columns: np.ndarray
    weights: np.ndarray | None
    offsets_at: int
    columns_at: int
    weights_at: int | None
    wide: bool


def _bound(csr: CSRGraph) -> _Bound:
    """``csr``'s compiled view, resolved on the first compiled visit of the
    CSR object and kept on it (:meth:`CSRGraph.__getstate__` leaves it out of
    copies and pickles); a CSR whose arrays were replaced since is resolved
    again."""
    bound = csr.__dict__.get("_bound")
    if (
        bound is not None
        and bound.column_indices is csr.column_indices
        and bound.row_offsets is csr.row_offsets
        and bound.edge_weights is csr.edge_weights
    ):
        return bound
    offsets = np.ascontiguousarray(csr.row_offsets, dtype=np.int64)
    columns = np.ascontiguousarray(csr.column_indices)
    weights = None
    if csr.edge_weights is not None:
        weights = np.ascontiguousarray(csr.edge_weights, dtype=np.float64)
    bound = _Bound(
        csr.row_offsets, csr.column_indices, csr.edge_weights, offsets, columns, weights,
        offsets.ctypes.data, columns.ctypes.data,
        None if weights is None else weights.ctypes.data, columns.dtype != np.int32,
    )
    csr._bound = bound
    return bound


def _c_backward_visit(
    csr: CSRGraph, candidates: np.ndarray, in_frontier: np.ndarray
) -> KernelOutput:
    """:func:`backward_visit`'s compiled statement: the scalar scan itself."""
    bound = _bound(csr)
    in_frontier = np.ascontiguousarray(in_frontier)
    n = candidates.size
    # One buffer: the discovered candidates, their sources, the edge count.
    out = np.empty(2 * n + 1, dtype=np.int64)
    at = out.ctypes.data
    pull = _LIB.pull_i64 if bound.wide else _LIB.pull_i32
    found = pull(
        bound.offsets_at, csr.num_rows, bound.columns_at, bound.columns.size,
        in_frontier.ctypes.data, in_frontier.size, candidates.ctypes.data, n,
        at, at + 8 * n, at + 16 * n,
    )
    if found < 0:
        csr._row_spans(candidates)  # a row out of range: the NumPy body's IndexError
        raise IndexError(_ROW_ERRORS[found])
    return KernelOutput(out[:found], int(out[2 * n]), True, out[n:n + found])


def _c_gather(csr: CSRGraph, rows: np.ndarray, weighted: bool = False) -> tuple:
    """The forward gather's compiled statement: ``(sources, destinations,
    weights)`` of every edge out of ``rows``, grouped by row in input order;
    ``weights`` only when ``weighted``, else ``None``."""
    bound = _bound(csr)
    rows_at = rows.ctypes.data
    total = _LIB.gather_size(bound.offsets_at, csr.num_rows, bound.columns.size, rows_at, rows.size)
    if total < 0:
        csr._row_spans(rows)  # a row out of range: the NumPy body's IndexError
        raise IndexError(_ROW_ERRORS[total])
    # One buffer for the sources and destinations.
    edges = np.empty(2 * total, dtype=np.int64)
    at = edges.ctypes.data
    weights = np.empty(total, dtype=np.float64) if weighted else None
    gather = _LIB.gather_i64 if bound.wide else _LIB.gather_i32
    gather(
        bound.offsets_at, bound.columns_at, bound.weights_at if weighted else None,
        rows_at, rows.size, at, at + 8 * total,
        None if weights is None else weights.ctypes.data,
    )
    return edges[:total], edges[total:], weights


def _c_batched_pull(
    csr: CSRGraph, candidates: np.ndarray, parent_words: np.ndarray, wanted: np.ndarray
) -> BatchKernelOutput:
    """:func:`batched_backward_visit`'s compiled statement."""
    bound = _bound(csr)
    parent_words = np.ascontiguousarray(parent_words, dtype=np.uint64)
    wanted = np.ascontiguousarray(wanted, dtype=np.uint64)
    nwords = parent_words.shape[1]
    discovered = np.empty(candidates.size, dtype=np.int64)
    gained = np.empty((candidates.size, nwords), dtype=np.uint64)
    examined = np.zeros(1, dtype=np.int64)
    pull = _LIB.batched_pull_i64 if bound.wide else _LIB.batched_pull_i32
    found = pull(
        bound.offsets_at, csr.num_rows, bound.columns_at, bound.columns.size,
        parent_words.ctypes.data, parent_words.shape[0], nwords, candidates.ctypes.data,
        wanted.ctypes.data, candidates.size, discovered.ctypes.data, gained.ctypes.data,
        examined.ctypes.data,
    )
    if found < 0:
        csr._row_spans(candidates)  # a row out of range: the NumPy body's IndexError
        raise IndexError(_ROW_ERRORS[found])
    return BatchKernelOutput(discovered[:found], gained[:found], int(examined[0]), True)


def _c_batched_push(csr: CSRGraph, rows: np.ndarray, words: np.ndarray) -> BatchKernelOutput:
    """:func:`batched_forward_visit`'s compiled statement: the lanes OR-ed
    into a dense per-column accumulator, whose reached columns are sorted."""
    bound = _bound(csr)
    words = np.ascontiguousarray(words, dtype=np.uint64)
    nwords = words.shape[1]
    total = _LIB.gather_size(
        bound.offsets_at, csr.num_rows, bound.columns.size, rows.ctypes.data, rows.size
    )
    if total < 0:
        csr._row_spans(rows)  # a row out of range: the NumPy body's IndexError
        raise IndexError(_ROW_ERRORS[total])
    if total == 0:
        return _empty_batch_output(nwords, backward=False)
    acc = np.zeros((csr.num_cols, nwords), dtype=np.uint64)
    seen = np.zeros(csr.num_cols, dtype=np.uint8)
    distinct = np.empty(total, dtype=np.int64)
    push = _LIB.batched_push_i64 if bound.wide else _LIB.batched_push_i32
    count = push(
        bound.offsets_at, bound.columns_at, csr.num_cols, rows.ctypes.data,
        words.ctypes.data, rows.size, nwords, acc.ctypes.data, seen.ctypes.data,
        distinct.ctypes.data,
    )
    if count < 0:
        raise IndexError(_ROW_ERRORS[count])
    discovered = np.sort(distinct[:count])
    return BatchKernelOutput(discovered, acc[discovered], int(total), False)


_LIB, _COMPILER = _load_library()
