"""Compressed Sparse Row (CSR) adjacency structure.

The paper deliberately keeps the *standard* CSR format for each per-GPU
subgraph (§II-D): "We instead choose a standard graph representation (CSR)"
so the BFS can be one component in a larger workflow without format
conversions.  :class:`CSRGraph` is that structure: a ``row_offsets`` array of
length ``num_rows + 1`` and a ``column_indices`` array of length ``num_edges``.

The dtype of ``column_indices`` is significant for the memory model of
Table I: subgraphs whose destination range is bounded (nd, dn, dd) store
32-bit column indices, while the nn subgraph keeps 64-bit global destination
ids.  :class:`CSRGraph` therefore carries its column dtype explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = ["CSRGraph", "span_index"]


def span_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions of the concatenated spans ``[starts[i], starts[i] + lengths[i])``.

    One ``np.repeat`` and one add: span ``i`` occupies the output from
    ``lengths[:i].sum()`` on, so every position in it is the output position
    plus the constant ``starts[i] - lengths[:i].sum()``.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)


@dataclass
class CSRGraph:
    """CSR adjacency with explicit row and column universes.

    Attributes
    ----------
    row_offsets:
        ``int64`` array of length ``num_rows + 1``; neighbours of row ``r``
        are ``column_indices[row_offsets[r]:row_offsets[r+1]]``.
    column_indices:
        Destination ids; dtype is either ``int32`` (bounded local ids) or
        ``int64`` (global ids), mirroring the paper's mixed-width storage.
    num_rows:
        Number of source vertices (rows).
    num_cols:
        Size of the destination universe; column values must be < num_cols.
    edge_weights:
        Optional ``float64`` array parallel to ``column_indices`` carrying
        per-edge weights (``None`` for unweighted graphs).  Weights ride the
        same stable (row, column) order as the columns, so ``edge_weights[i]``
        belongs to the edge stored at ``column_indices[i]``.
    """

    row_offsets: np.ndarray
    column_indices: np.ndarray
    num_rows: int
    num_cols: int
    edge_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64).ravel()
        col = np.asarray(self.column_indices).ravel()
        if col.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            col = col.astype(np.int64)
        self.column_indices = col
        self.num_rows = int(self.num_rows)
        self.num_cols = int(self.num_cols)
        if self.row_offsets.size != self.num_rows + 1:
            raise ValueError(
                f"row_offsets has length {self.row_offsets.size}, expected {self.num_rows + 1}"
            )
        if self.row_offsets.size and self.row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if self.row_offsets.size and self.row_offsets[-1] != self.column_indices.size:
            raise ValueError(
                f"row_offsets[-1]={self.row_offsets[-1]} does not match "
                f"column_indices length {self.column_indices.size}"
            )
        if self.column_indices.size:
            cmin, cmax = int(self.column_indices.min()), int(self.column_indices.max())
            if cmin < 0 or cmax >= self.num_cols:
                raise ValueError(
                    f"column index out of range [0, {self.num_cols}): min={cmin}, max={cmax}"
                )
        if self.edge_weights is not None:
            from repro.graph.weights import validate_weights

            self.edge_weights = validate_weights(self.edge_weights, self.column_indices.size)

    def __getstate__(self) -> dict:
        """The CSR's fields, without the compiled kernels' view of them
        (``repro.core.kernels._bound``): its addresses hold only in this
        process, so a copy or an unpickled CSR resolves its own."""
        state = dict(self.__dict__)
        state.pop("_bound", None)
        return state

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_rows: int,
        num_cols: int,
        column_dtype: np.dtype | type = np.int64,
        sort_columns: bool = True,
        weights: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a CSR from parallel source/destination arrays.

        Parameters
        ----------
        src, dst:
            Edge endpoints; ``src`` values index rows, ``dst`` values columns.
        num_rows, num_cols:
            Sizes of the row and column universes.
        column_dtype:
            ``numpy.int32`` for bounded local ids or ``numpy.int64`` for
            global ids.
        sort_columns:
            Sort neighbours within each row (deterministic layout; also makes
            duplicate detection in tests cheap).
        weights:
            Optional per-edge weights parallel to ``src``/``dst``; reordered
            with the columns so they stay edge-aligned.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        num_rows, num_cols = int(num_rows), int(num_cols)
        if src.size:
            if src.min() < 0 or src.max() >= num_rows:
                raise ValueError("source vertex out of row range")
            if dst.min() < 0 or dst.max() >= num_cols:
                raise ValueError("destination vertex out of column range")
        w = None
        if weights is not None:
            from repro.graph.weights import validate_weights

            w = validate_weights(weights, src.size)
        counts = np.bincount(src, minlength=num_rows) if num_rows else np.zeros(0, dtype=np.int64)
        row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_offsets[1:])

        # One value sort of the packed (row, column) key; (src, dst) lexsort
        # only when the two fields do not fit a non-negative int64.
        col_bits = max(num_cols - 1, 0).bit_length()
        order = None
        if not sort_columns:
            order = np.argsort(src, kind="stable")
        elif max(num_rows - 1, 0).bit_length() + col_bits > 63:
            order = np.lexsort((dst, src))
        else:
            key = (src << col_bits) | dst
            if w is None:
                key.sort()
                dst = key & ((1 << col_bits) - 1)
            else:
                order = np.argsort(key, kind="stable")
        if order is not None:
            dst = dst[order]
            if w is not None:
                w = w[order]
        column_dtype = np.dtype(column_dtype)
        if column_dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            column_dtype = np.dtype(np.int64)
        # src/dst were range-checked above and the offsets come from a
        # bincount, so the result skips __post_init__'s second O(edges) scan.
        return cls.unchecked(
            row_offsets, dst.astype(column_dtype, copy=False), num_rows, num_cols, w
        )

    @classmethod
    def from_edgelist(cls, edges: EdgeList, column_dtype: np.dtype | type = np.int64) -> "CSRGraph":
        """Build a square CSR over the edge list's full vertex universe."""
        return cls.from_edges(
            edges.src,
            edges.dst,
            num_rows=edges.num_vertices,
            num_cols=edges.num_vertices,
            column_dtype=column_dtype,
            weights=edges.weights,
        )

    @classmethod
    def empty(cls, num_rows: int, num_cols: int, column_dtype: np.dtype | type = np.int64) -> "CSRGraph":
        """An edgeless CSR of the given shape."""
        return cls(
            np.zeros(num_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=column_dtype),
            num_rows,
            num_cols,
        )

    @classmethod
    def unchecked(
        cls,
        row_offsets: np.ndarray,
        column_indices: np.ndarray,
        num_rows: int,
        num_cols: int,
        edge_weights: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Wrap already-validated arrays without the O(edges) invariant scan.

        Used for zero-copy views over shared-memory segments and memory-mapped
        storage files, and for the masked row subsets the compressed-adjacency
        decoder materializes per super-step: re-validating every attach would
        cost more than the kernels it feeds.  Callers own the invariants.
        """
        csr = object.__new__(cls)
        csr.row_offsets = row_offsets
        csr.column_indices = column_indices
        csr.num_rows = num_rows
        csr.num_cols = num_cols
        csr.edge_weights = edge_weights
        return csr

    # ------------------------------------------------------------------ #
    # Properties and access
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges."""
        return int(self.column_indices.size)

    @property
    def column_dtype(self) -> np.dtype:
        """Dtype of the column indices (``int32`` or ``int64``)."""
        return self.column_indices.dtype

    @property
    def is_weighted(self) -> bool:
        """``True`` when a per-edge weight array is attached."""
        return self.edge_weights is not None

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every row."""
        return np.diff(self.row_offsets)

    def neighbors(self, row: int) -> np.ndarray:
        """Neighbour list of a single row (a view, not a copy)."""
        if row < 0 or row >= self.num_rows:
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
        return self.column_indices[self.row_offsets[row] : self.row_offsets[row + 1]]

    def nbytes(self) -> int:
        """Memory footprint in bytes of offsets + columns.

        This matches the accounting of the paper's Table I, which charges
        4 bytes per row offset entry (the paper stores 32-bit offsets for the
        bounded-size subgraphs) only when the column dtype is 32-bit; 64-bit
        columns are charged 8 bytes per offset as in a conventional CSR.
        """
        offset_width = 4 if self.column_dtype == np.int32 else 8
        return offset_width * (self.num_rows + 1) + self.column_indices.itemsize * self.num_edges

    # ------------------------------------------------------------------ #
    # Bulk traversal helpers (used by the visit kernels)
    # ------------------------------------------------------------------ #
    def _row_spans(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` of the neighbour lists of ``rows`` in
        ``column_indices``, after the bounds check every bulk helper shares."""
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row index out of range [0, {self.num_rows})")
        starts = self.row_offsets[rows]
        return starts, self.row_offsets[rows + 1] - starts

    def _gather_index(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, edge_idx)`` of the concatenated neighbour lists of ``rows``.

        ``lengths[i]`` is the neighbour count of ``rows[i]`` and ``edge_idx``
        the positions in ``column_indices`` (and ``edge_weights``) of every
        edge out of ``rows``, grouped by row in input order.  The one index
        construction under both public gathers; the visit kernels of
        :mod:`repro.core.kernels` that need the per-row lengths beside the
        edges call it directly.
        """
        starts, lengths = self._row_spans(rows)
        return lengths, span_index(starts, lengths)

    def gather_neighbors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather the concatenated neighbour lists of ``rows``.

        Returns
        -------
        (sources, destinations):
            Two parallel arrays: for each edge out of any row in ``rows``, the
            row it came from and the destination column.  This is the
            vectorized equivalent of the forward-push "advance" operation on a
            frontier; it is the single hottest helper in the library.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        lengths, edge_idx = self._gather_index(rows)
        return np.repeat(rows, lengths), self.column_indices[edge_idx]

    def gather_neighbors_with_weights(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`gather_neighbors` but also gathers the edge weights.

        Returns
        -------
        (sources, destinations, weights):
            Three parallel arrays; requires ``edge_weights`` to be attached.
        """
        if self.edge_weights is None:
            raise ValueError(
                "graph has no edge weights; build it with weights (e.g. "
                "--weights on the generators) before running a weighted program"
            )
        rows = np.asarray(rows, dtype=np.int64).ravel()
        lengths, edge_idx = self._gather_index(rows)
        return (
            np.repeat(rows, lengths),
            self.column_indices[edge_idx],
            self.edge_weights[edge_idx],
        )

    def frontier_workload(self, rows: np.ndarray) -> int:
        """Total neighbour-list length of the given rows (forward workload FV)."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size == 0:
            return 0
        lengths = self.row_offsets[rows + 1] - self.row_offsets[rows]
        return int(lengths.sum())

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix`` of ones (for validation)."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.num_edges, dtype=np.int8)
        return csr_matrix(
            (data, self.column_indices.astype(np.int64), self.row_offsets),
            shape=(self.num_rows, self.num_cols),
        )
