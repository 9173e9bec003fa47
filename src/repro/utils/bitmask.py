"""Packed bitmask containers.

The paper keeps the visited status of *delegates* (high out-degree vertices
replicated on every GPU) as a bitmask with one bit per delegate, because the
masks are all-reduced across the cluster every iteration and communication
volume matters: ``d/8`` bytes per mask instead of ``4d`` or ``8d`` bytes for
an index list.

:class:`Bitmask` wraps a ``numpy.uint8`` array in packed (``numpy.packbits``)
layout and exposes the handful of operations the BFS engine needs:

* set / test vectors of bit positions,
* bitwise OR merge (the reduction operator used for mask all-reduce),
* difference (``new & ~old``) to find newly visited delegates,
* conversion to/from index arrays,
* byte-level views for the communication layer.

:class:`BatchBitmask` is the 2-D extension used by the batched (MS-BFS style)
traversal path: one *row* per vertex, one *lane bit* per concurrent source,
stored as ``uint64`` words so that a whole batch of traversals shares a single
frontier sweep and a single delegate reduction.  Its row-wise OR is exactly
the per-vertex "which sources reached me" merge the MS-BFS literature calls
``visit``/``seen`` bit operations.

Everything is vectorized; no per-bit Python loops appear on hot paths.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Bitmask", "BatchBitmask"]


class Bitmask:
    """A fixed-size packed bitmask over ``size`` bit positions.

    Parameters
    ----------
    size:
        Number of addressable bits.  The backing buffer is padded to a whole
        number of bytes.
    buffer:
        Optional pre-existing packed ``uint8`` buffer to wrap (no copy).  Its
        length must be ``ceil(size / 8)``.
    """

    __slots__ = ("_size", "_bits")

    def __init__(self, size: int, buffer: np.ndarray | None = None) -> None:
        if size < 0:
            raise ValueError(f"bitmask size must be non-negative, got {size}")
        self._size = int(size)
        nbytes = (self._size + 7) // 8
        if buffer is None:
            self._bits = np.zeros(nbytes, dtype=np.uint8)
        else:
            buffer = np.asarray(buffer, dtype=np.uint8)
            if buffer.shape != (nbytes,):
                raise ValueError(
                    f"buffer has shape {buffer.shape}, expected ({nbytes},) "
                    f"for a bitmask of {size} bits"
                )
            self._bits = buffer

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int] | np.ndarray) -> "Bitmask":
        """Build a mask of ``size`` bits with the given positions set."""
        mask = cls(size)
        mask.set_many(np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices))
        return mask

    def copy(self) -> "Bitmask":
        """Return a deep copy."""
        return Bitmask(self._size, self._bits.copy())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Length of the packed backing buffer in bytes."""
        return self._bits.nbytes

    @property
    def buffer(self) -> np.ndarray:
        """The packed ``uint8`` backing buffer (shared, not a copy)."""
        return self._bits

    def count(self) -> int:
        """Number of set bits."""
        if self._size == 0:
            return 0
        return int(np.unpackbits(self._bits, count=self._size, bitorder="little").sum())

    # ------------------------------------------------------------------ #
    # Bit access
    # ------------------------------------------------------------------ #
    def _check_bounds(self, idx: np.ndarray) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise IndexError(
                f"bit index out of range [0, {self._size}): "
                f"min={idx.min() if idx.size else None}, max={idx.max() if idx.size else None}"
            )

    def set_many(self, indices: np.ndarray) -> None:
        """Set many bit positions at once (vectorized).

        Dense updates (a sizable fraction of the mask) scatter into a boolean
        flag array and OR the packed bytes in — two linear passes — because
        ``np.bitwise_or.at`` runs an unbuffered per-element inner loop that is
        orders of magnitude slower on large index sets.  Sparse updates keep
        the per-index path, where the flag array's O(size) cost would
        dominate.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return
        self._check_bounds(idx)
        if idx.size * 64 >= self._size:
            flags = np.zeros(self._bits.size * 8, dtype=bool)
            flags[idx] = True
            np.bitwise_or(
                self._bits, np.packbits(flags, bitorder="little"), out=self._bits
            )
            return
        byte_idx = idx >> 3
        bit_vals = np.left_shift(np.uint8(1), (idx & 7).astype(np.uint8))
        np.bitwise_or.at(self._bits, byte_idx, bit_vals)

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array: whether each given bit position is set."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        self._check_bounds(idx)
        byte_idx = idx >> 3
        bit_vals = np.left_shift(np.uint8(1), (idx & 7).astype(np.uint8))
        return (self._bits[byte_idx] & bit_vals) != 0

    # ------------------------------------------------------------------ #
    # Whole-mask operations
    # ------------------------------------------------------------------ #
    def or_with(self, other: "Bitmask") -> "Bitmask":
        """In-place bitwise OR with another mask of the same size."""
        self._require_same_size(other)
        np.bitwise_or(self._bits, other._bits, out=self._bits)
        return self

    def and_not(self, other: "Bitmask") -> "Bitmask":
        """Return a new mask with ``self & ~other`` (bits set here but not there)."""
        self._require_same_size(other)
        out = Bitmask(self._size, np.bitwise_and(self._bits, np.bitwise_not(other._bits)))
        out._mask_tail()
        return out

    def to_indices(self) -> np.ndarray:
        """Return the sorted ``int64`` array of set bit positions."""
        if self._size == 0:
            return np.zeros(0, dtype=np.int64)
        flags = np.unpackbits(self._bits, count=self._size, bitorder="little")
        # The unpacked bytes are 0/1: scanned as booleans (an order of
        # magnitude faster than the generic non-zero test of ``uint8``).
        return np.flatnonzero(flags.view(np.bool_)).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require_same_size(self, other: "Bitmask") -> None:
        if self._size != other._size:
            raise ValueError(f"bitmask size mismatch: {self._size} != {other._size}")

    def _mask_tail(self) -> None:
        """Zero out padding bits beyond ``size`` in the last byte."""
        extra = self._bits.size * 8 - self._size
        if extra and self._bits.size:
            keep = 8 - extra
            self._bits[-1] &= np.uint8((1 << keep) - 1)


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
    # Construction helpers
    # ------------------------------------------------------------------ #
    def copy(self) -> "BatchBitmask":
        """Return a deep copy."""
        return BatchBitmask(self._rows, self._width, self._words.copy())

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

    @property
    def packed_nbytes(self) -> int:
        """Logical wire size: ``ceil(rows * width / 8)`` bytes.

        The backing array pads each row to whole words; communication volume
        is modeled on the tightly packed size, matching the paper's ``d/8``
        accounting for 1-bit masks.
        """
        return (self._rows * self._width + 7) // 8

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

    # ------------------------------------------------------------------ #
    # Whole-mask operations
    # ------------------------------------------------------------------ #
    def _require_same_shape(self, other: "BatchBitmask") -> None:
        if self._rows != other._rows or self._width != other._width:
            raise ValueError(
                f"batch bitmask shape mismatch: {self._rows}x{self._width} != "
                f"{other._rows}x{other._width}"
            )

    def or_with(self, other: "BatchBitmask") -> "BatchBitmask":
        """In-place element-wise OR with another mask of the same shape."""
        self._require_same_shape(other)
        np.bitwise_or(self._words, other._words, out=self._words)
        return self
