"""Local traversal kernels (paper §IV, Figure 3).

Each virtual GPU runs up to four *visit* kernels per super-step, one per
subgraph.  In the real system these are CUDA kernels with merge-based or
thread-warp-block load balancing; here they are vectorized NumPy functions
that produce the identical set of discovered vertices **and** count exactly
how many edges they examined, because the examined-edge count is what drives
the paper's performance results (workload is what the GPUs are throughput-
bound on).

Forward-push kernels gather the full neighbour lists of the frontier
(workload = FV, the sum of frontier out-degrees).  Backward-pull kernels scan
the parent list of each unvisited candidate only until the first parent in the
frontier is found (workload = edges examined before the first hit, or the full
list when there is none) — this early exit is the whole point of
direction-optimized BFS.

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

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "KernelOutput",
    "BatchKernelOutput",
    "forward_visit",
    "weighted_forward_visit",
    "contrib_visit",
    "backward_visit",
    "frontier_workload",
    "batched_filter_frontier",
    "batched_forward_visit",
    "batched_backward_visit",
]


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


def frontier_workload(csr: CSRGraph, frontier: np.ndarray) -> int:
    """Forward workload FV: total out-degree of the frontier in this subgraph."""
    return csr.frontier_workload(frontier)


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
    bit-identical regardless of which backend, provider, or storage mode ran
    the scatter.

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
    srcs, destinations = csr.gather_neighbors(rows)
    if destinations.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
    # gather_neighbors emits edges grouped by row in input order, so the
    # per-edge value is the row's value repeated over its out-degree.
    lengths = csr.row_offsets[rows + 1] - csr.row_offsets[rows]
    values = np.repeat(row_values, lengths)
    return KernelOutput(
        discovered=np.asarray(destinations, dtype=np.int64),
        edges_examined=int(destinations.size),
        backward=False,
        sources=np.asarray(srcs, dtype=np.int64),
        values=values,
    )


def backward_visit(
    reverse_csr: CSRGraph,
    candidates: np.ndarray,
    parent_in_frontier: np.ndarray,
) -> KernelOutput:
    """Backward-pull visit with early exit and exact workload counting.

    Parameters
    ----------
    reverse_csr:
        CSR whose rows are the *unvisited candidates* and whose columns are
        their potential parents (i.e. the reverse of the subgraph being
        traversed; for the locally-symmetric dd subgraph it is the subgraph
        itself).
    candidates:
        Row ids of unvisited vertices to test.
    parent_in_frontier:
        Boolean array over the column id space: ``True`` where the potential
        parent was newly visited in the previous super-step.

    Returns
    -------
    KernelOutput
        ``discovered`` lists the candidate rows that found a parent in the
        frontier (each exactly once); ``edges_examined`` counts, per
        candidate, the parents scanned up to and including the first hit (or
        the whole list when no parent is in the frontier), which is the exact
        workload of a serial early-exit scan — the quantity the paper's BV
        formula estimates.
    """
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    parent_in_frontier = np.asarray(parent_in_frontier, dtype=bool)
    if candidates.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=True)

    rows, parents = reverse_csr.gather_neighbors(candidates)
    if parents.size == 0:
        return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=True)

    hits = parent_in_frontier[np.asarray(parents, dtype=np.int64)]

    # Segment bookkeeping: edges are emitted grouped by candidate (gather
    # preserves row order).  For each candidate segment we need (a) whether a
    # hit exists and (b) the position of the first hit, to count the
    # early-exit workload.
    all_lengths = reverse_csr.row_offsets[candidates + 1] - reverse_csr.row_offsets[candidates]
    nonzero_mask = all_lengths > 0
    seg_lengths = all_lengths[nonzero_mask]
    seg_candidates = candidates[nonzero_mask]
    seg_starts = np.zeros(seg_lengths.size, dtype=np.int64)
    np.cumsum(seg_lengths[:-1], out=seg_starts[1:])

    # First-hit position per segment: a segmented minimum over the within-
    # segment offsets of hit edges, with non-hits masked to a sentinel larger
    # than any offset.  One reduceat pass over the edges — no per-hit sort.
    no_hit = np.iinfo(np.int64).max
    within = np.arange(hits.size, dtype=np.int64) - np.repeat(seg_starts, seg_lengths)
    first_hit = np.minimum.reduceat(np.where(hits, within, no_hit), seg_starts)

    found = first_hit != no_hit
    examined = np.where(found, first_hit, seg_lengths - 1) + 1
    discovered = seg_candidates[found]
    # The early-exit scan stops at the first frontier parent; that parent is
    # the discovering source of the candidate (the edge at offset first_hit
    # within the candidate's segment).
    hit_parents = np.asarray(parents, dtype=np.int64)[seg_starts[found] + first_hit[found]]
    return KernelOutput(
        discovered=discovered.astype(np.int64),
        edges_examined=int(examined.sum()),
        backward=True,
        sources=hit_parents,
    )


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
    rows, parents = reverse_csr.gather_neighbors(candidates)
    if parents.size == 0:
        return _empty_batch_output(nwords, backward=True)

    all_lengths = (
        reverse_csr.row_offsets[candidates + 1] - reverse_csr.row_offsets[candidates]
    )
    nonzero_mask = all_lengths > 0
    seg_lengths = all_lengths[nonzero_mask]
    seg_candidates = candidates[nonzero_mask]
    seg_starts = np.zeros(seg_lengths.size, dtype=np.int64)
    np.cumsum(seg_lengths[:-1], out=seg_starts[1:])

    pulled = np.bitwise_or.reduceat(
        parent_words[np.asarray(parents, dtype=np.int64)], seg_starts, axis=0
    )
    gained = pulled & wanted_words[nonzero_mask]
    found = gained.any(axis=1)
    return BatchKernelOutput(
        discovered=seg_candidates[found],
        words=gained[found],
        edges_examined=int(parents.size),
        backward=True,
    )
