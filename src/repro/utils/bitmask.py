"""Packed lane bitmasks for the batched traversal path.

The paper keeps the visited status of *delegates* (high out-degree vertices
replicated on every GPU) as a bitmask with one bit per delegate, because the
masks are all-reduced across the cluster every iteration and communication
volume matters: ``d/8`` bytes per mask instead of ``4d`` or ``8d`` bytes for
an index list.  The communicator bills that packed size
(:meth:`repro.cluster.Communicator.allreduce`); on the host a single
traversal keeps one ``bool`` per delegate, and reduces only the ids a step
proposes.

:class:`BatchBitmask` is the 2-D extension used by the batched (MS-BFS style)
traversal path: one *row* per vertex, one *lane bit* per concurrent source,
stored as ``uint64`` words so that a whole batch of traversals shares a single
frontier sweep and a single delegate reduction.  Its row-wise OR is exactly
the per-vertex "which sources reached me" merge the MS-BFS literature calls
``visit``/``seen`` bit operations.

Everything is vectorized; no per-bit Python loops appear on hot paths.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchBitmask"]


class BatchBitmask:
    """A 2-D bitmask: ``rows`` vertices x ``width`` batch lanes.

    Each row holds one bit per lane (per concurrent traversal source), packed
    into ``uint64`` words, so the per-vertex state of a whole batch fits in
    ``ceil(width / 64)`` machine words.  This is the MS-BFS-style extension of
    the paper's packed delegate masks: OR-ing two masks merges the
    discoveries of *every* source in the batch at once, and one delegate
    reduction of ``rows * width`` bits replaces ``width`` separate reductions
    of ``rows`` bits.

    Parameters
    ----------
    rows:
        Number of addressable rows (vertices).
    width:
        Number of lanes (batch width B).
    words:
        Optional pre-existing ``uint64`` backing array of shape
        ``(rows, ceil(width / 64))`` to wrap (no copy).
    """

    __slots__ = ("_rows", "_width", "_words")

    def __init__(self, rows: int, width: int, words: np.ndarray | None = None) -> None:
        if rows < 0:
            raise ValueError(f"rows must be non-negative, got {rows}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self._rows = int(rows)
        self._width = int(width)
        nwords = (self._width + 63) // 64
        if words is None:
            self._words = np.zeros((self._rows, nwords), dtype=np.uint64)
        else:
            words = np.asarray(words, dtype=np.uint64)
            if words.shape != (self._rows, nwords):
                raise ValueError(
                    f"words has shape {words.shape}, expected ({self._rows}, {nwords}) "
                    f"for a {self._rows}x{self._width} batch bitmask"
                )
            self._words = words

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nwords(self) -> int:
        """``uint64`` words per row."""
        return self._words.shape[1]

    @property
    def words(self) -> np.ndarray:
        """The ``(rows, nwords)`` ``uint64`` backing array (shared, not a copy)."""
        return self._words

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def _check_rows(self, row_ids: np.ndarray) -> None:
        if row_ids.size and (row_ids.min() < 0 or row_ids.max() >= self._rows):
            raise IndexError(f"row index out of range [0, {self._rows})")

    def _check_lanes(self, lanes: np.ndarray) -> None:
        if lanes.size and (lanes.min() < 0 or lanes.max() >= self._width):
            raise IndexError(f"lane index out of range [0, {self._width})")

    def set_lanes(self, row_ids: np.ndarray, lanes: np.ndarray) -> None:
        """Set bit ``lanes[i]`` of row ``row_ids[i]`` (vectorized, duplicates ok)."""
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        lanes = np.asarray(lanes, dtype=np.int64).ravel()
        if row_ids.size != lanes.size:
            raise ValueError(f"{row_ids.size} rows vs {lanes.size} lanes")
        if row_ids.size == 0:
            return
        self._check_rows(row_ids)
        self._check_lanes(lanes)
        words = np.left_shift(np.uint64(1), (lanes & 63).astype(np.uint64))
        np.bitwise_or.at(self._words, (row_ids, lanes >> 6), words)

    def or_rows(self, row_ids: np.ndarray, words: np.ndarray) -> None:
        """OR full word-rows into the given rows (duplicates combine)."""
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        if row_ids.size == 0:
            return
        self._check_rows(row_ids)
        words = np.asarray(words, dtype=np.uint64).reshape(row_ids.size, self.nwords)
        np.bitwise_or.at(self._words, row_ids, words)

    def get_rows(self, row_ids: np.ndarray) -> np.ndarray:
        """Word rows for the given row ids (a ``(len, nwords)`` copy)."""
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        self._check_rows(row_ids)
        return self._words[row_ids]

    def rows_any(self) -> np.ndarray:
        """Boolean array: whether each row has at least one bit set."""
        return self._words.any(axis=1)

    def nonzero_rows(self) -> np.ndarray:
        """Sorted ``int64`` ids of rows with at least one bit set."""
        return np.flatnonzero(self.rows_any()).astype(np.int64)
