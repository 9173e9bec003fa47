"""Numba-compiled visit kernels (imported only when Numba is installed).

This module is the compiled half of :class:`repro.exec.providers.NumbaProvider`.
It is deliberately kept separate from ``providers.py`` so the ``@njit``
decorators can live at module level — a requirement for ``cache=True`` (Numba
caches compiled machine code next to the defining source file, which closures
and dynamically built functions cannot use) — while the rest of the package
imports cleanly on hosts without Numba: ``providers.py`` imports this module
lazily inside a ``try/except ImportError`` and falls back to NumPy.

Every function here is the scalar-loop twin of a vectorized kernel in
:mod:`repro.core.kernels` or a :class:`repro.utils.bitmask.Bitmask` bulk op,
operating on the raw CSR arrays (``row_offsets``/``column_indices``) and
producing bit-identical outputs:

* discovered/source arrays in the same order (candidate order for pulls,
  frontier-then-CSR edge order for pushes, sorted-unique destinations for the
  batched push),
* the exact same ``edges_examined`` accounting — in particular the backward
  pull's edge-by-edge early exit, which the NumPy twin approximates by rounds
  (it lists a window of parents per round and keeps the first hit),
* the same uint64 lane-word OR combinations (associative, so loop order
  cannot change the result).

All kernels are ``nopython`` (``njit``), ``nogil=True`` — so the
:class:`~repro.exec.thread.ThreadBackend`'s pool genuinely overlaps per-GPU
kernel tasks on multi-core hosts — and ``cache=True`` so the one-time
compilation cost is paid once per machine, not once per process.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = [
    "forward_gather",
    "weighted_forward_gather",
    "contrib_gather",
    "backward_scan",
    "batched_forward_scatter",
    "batched_backward_pull",
    "bitmask_set_bits",
]


@njit(nogil=True, cache=True)
def forward_gather(row_offsets, column_indices, frontier):
    """Forward push: concatenated neighbour gather in frontier/CSR order.

    Returns ``(discovered, sources)`` — parallel int64 arrays, one entry per
    edge out of the frontier, matching ``CSRGraph.gather_neighbors``.
    """
    total = 0
    for i in range(frontier.shape[0]):
        f = frontier[i]
        total += row_offsets[f + 1] - row_offsets[f]
    discovered = np.empty(total, dtype=np.int64)
    sources = np.empty(total, dtype=np.int64)
    k = 0
    for i in range(frontier.shape[0]):
        f = frontier[i]
        for e in range(row_offsets[f], row_offsets[f + 1]):
            discovered[k] = column_indices[e]
            sources[k] = f
            k += 1
    return discovered, sources


@njit(nogil=True, cache=True)
def weighted_forward_gather(row_offsets, column_indices, edge_weights, frontier):
    """Weighted forward push: neighbour gather plus the traversed edge weights.

    Returns ``(discovered, sources, weights)`` — the first two parallel int64
    arrays exactly as :func:`forward_gather`, the third the float64 weight of
    each gathered edge, matching ``CSRGraph.gather_neighbors_with_weights``.
    """
    total = 0
    for i in range(frontier.shape[0]):
        f = frontier[i]
        total += row_offsets[f + 1] - row_offsets[f]
    discovered = np.empty(total, dtype=np.int64)
    sources = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.float64)
    k = 0
    for i in range(frontier.shape[0]):
        f = frontier[i]
        for e in range(row_offsets[f], row_offsets[f + 1]):
            discovered[k] = column_indices[e]
            sources[k] = f
            weights[k] = edge_weights[e]
            k += 1
    return discovered, sources, weights


@njit(nogil=True, cache=True)
def contrib_gather(row_offsets, column_indices, rows, row_values):
    """Contribution scatter: per-edge int64 values repeated over out-degrees.

    Returns ``(discovered, sources, values)`` — one entry per edge out of the
    active rows, in row-then-CSR order, matching the NumPy twin
    (:func:`repro.core.kernels.contrib_visit`).
    """
    total = 0
    for i in range(rows.shape[0]):
        r = rows[i]
        total += row_offsets[r + 1] - row_offsets[r]
    discovered = np.empty(total, dtype=np.int64)
    sources = np.empty(total, dtype=np.int64)
    values = np.empty(total, dtype=np.int64)
    k = 0
    for i in range(rows.shape[0]):
        r = rows[i]
        v = row_values[i]
        for e in range(row_offsets[r], row_offsets[r + 1]):
            discovered[k] = column_indices[e]
            sources[k] = r
            values[k] = v
            k += 1
    return discovered, sources, values


@njit(nogil=True, cache=True)
def backward_scan(row_offsets, column_indices, candidates, in_frontier):
    """Backward pull with a true early exit per candidate.

    Scans each candidate's parent list until the first parent flagged in
    ``in_frontier``; returns ``(discovered, sources, edges_examined)`` with
    the discovering parent per hit and the exact count of edges touched
    (parents scanned up to and including the first hit, or the whole list
    when there is none) — the workload the paper's BV formula estimates.
    """
    n = candidates.shape[0]
    discovered = np.empty(n, dtype=np.int64)
    sources = np.empty(n, dtype=np.int64)
    count = 0
    examined = 0
    for i in range(n):
        c = candidates[i]
        for e in range(row_offsets[c], row_offsets[c + 1]):
            examined += 1
            p = column_indices[e]
            if in_frontier[p]:
                discovered[count] = c
                sources[count] = p
                count += 1
                break
    return discovered[:count], sources[:count], examined


@njit(nogil=True, cache=True)
def batched_forward_scatter(row_offsets, column_indices, rows, words, num_cols):
    """Batched forward push: OR-scatter lane words into unique destinations.

    Accumulates into a dense per-destination buffer (the CPU analogue of the
    GPU's atomicOr into the dense lane-word array), then compacts to the
    sorted-unique destination list — the same output as the NumPy twin's
    ``np.unique`` + ``np.bitwise_or.at``, without the unbuffered ufunc loop.
    Returns ``(discovered, out_words, edges_examined)``.
    """
    nwords = words.shape[1]
    acc = np.zeros((num_cols, nwords), dtype=np.uint64)
    touched = np.zeros(num_cols, dtype=np.uint8)
    edges = 0
    for i in range(rows.shape[0]):
        r = rows[i]
        for e in range(row_offsets[r], row_offsets[r + 1]):
            d = column_indices[e]
            touched[d] = 1
            for w in range(nwords):
                acc[d, w] |= words[i, w]
            edges += 1
    count = 0
    for d in range(num_cols):
        if touched[d]:
            count += 1
    discovered = np.empty(count, dtype=np.int64)
    out_words = np.empty((count, nwords), dtype=np.uint64)
    k = 0
    for d in range(num_cols):
        if touched[d]:
            discovered[k] = d
            for w in range(nwords):
                out_words[k, w] = acc[d, w]
            k += 1
    return discovered, out_words, edges


@njit(nogil=True, cache=True)
def batched_backward_pull(row_offsets, column_indices, candidates, parent_words, wanted):
    """Batched backward pull: every candidate ORs all its parents' lanes.

    No early exit — every lane needs its own first parent, so the workload is
    the full candidate parent lists, exactly as in the NumPy twin.  Returns
    ``(discovered, gained_words, edges_examined)`` for the candidates that
    gained at least one still-wanted lane.
    """
    n = candidates.shape[0]
    nwords = parent_words.shape[1]
    gained = np.zeros((n, nwords), dtype=np.uint64)
    keep = np.zeros(n, dtype=np.uint8)
    edges = 0
    count = 0
    for i in range(n):
        c = candidates[i]
        for e in range(row_offsets[c], row_offsets[c + 1]):
            p = column_indices[e]
            edges += 1
            for w in range(nwords):
                gained[i, w] |= parent_words[p, w]
        any_bit = False
        for w in range(nwords):
            gained[i, w] &= wanted[i, w]
            if gained[i, w] != np.uint64(0):
                any_bit = True
        if any_bit:
            keep[i] = 1
            count += 1
    discovered = np.empty(count, dtype=np.int64)
    out_words = np.empty((count, nwords), dtype=np.uint64)
    k = 0
    for i in range(n):
        if keep[i]:
            discovered[k] = candidates[i]
            for w in range(nwords):
                out_words[k, w] = gained[i, w]
            k += 1
    return discovered, out_words, edges


@njit(nogil=True, cache=True)
def bitmask_set_bits(bits, idx):
    """Set bit positions ``idx`` in a little-endian packed uint8 buffer.

    One linear pass regardless of density — replaces both branches of
    ``Bitmask.set_many`` (the unbuffered ``np.bitwise_or.at`` sparse path and
    the O(size) flag-scatter dense path).
    """
    for i in range(idx.shape[0]):
        j = idx[i]
        bits[j >> 3] |= np.uint8(1 << (j & 7))
