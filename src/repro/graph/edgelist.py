"""Edge-list container and canonical graph-preparation operations.

The paper prepares every input graph the same way (§VI-A3 and §VI-D):

1. generate or load a directed edge list,
2. make it symmetric by *edge doubling* (adding the reverse of every edge),
3. randomise vertex numbers with a deterministic hash, and
4. hand the result to the partitioner.

:class:`EdgeList` is the container those steps operate on.  It stores the
sources and destinations as two parallel ``int64`` arrays, which matches the
"conventional edge list representation" (16 bytes per undirected edge) the
paper uses as the memory baseline for Table I.  An optional third parallel
``float64`` array carries per-edge weights for the weighted program zoo
(``repro.weighted``); every preparation step threads it alongside the
endpoints, combining duplicates with ``min`` so deduplication stays
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.sorting import _run_starts

__all__ = ["EdgeList"]


@dataclass
class EdgeList:
    """A directed edge list over vertices ``[0, num_vertices)``.

    Attributes
    ----------
    src, dst:
        Parallel ``int64`` arrays of edge endpoints.
    num_vertices:
        Number of vertices in the graph (may exceed ``max(src, dst) + 1`` to
        represent isolated vertices, as in the WDC graph where ~400 M vertices
        have zero degree).
    weights:
        Optional parallel ``float64`` array of non-negative finite per-edge
        weights; ``None`` for unweighted graphs.
    """

    src: np.ndarray
    dst: np.ndarray
    num_vertices: int
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64).ravel()
        self.dst = np.asarray(self.dst, dtype=np.int64).ravel()
        self.num_vertices = int(self.num_vertices)
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        _check_endpoints(self.src, self.dst, self.num_vertices)
        if self.weights is not None:
            from repro.graph.weights import validate_weights

            self.weights = validate_weights(self.weights, self.src.size)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    @property
    def is_weighted(self) -> bool:
        """``True`` when a per-edge weight array is attached."""
        return self.weights is not None

    def copy(self) -> "EdgeList":
        """Deep copy."""
        w = self.weights.copy() if self.weights is not None else None
        return EdgeList(self.src.copy(), self.dst.copy(), self.num_vertices, weights=w)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        tag = ", weighted" if self.is_weighted else ""
        return f"EdgeList(n={self.num_vertices}, m={self.num_edges}{tag})"

    # ------------------------------------------------------------------ #
    # Canonical preparation steps
    # ------------------------------------------------------------------ #
    def symmetrized(self) -> "EdgeList":
        """Return the edge-doubled (undirected) version of this edge list.

        Every directed edge ``u -> v`` gains its reverse ``v -> u``.  This is
        exactly the paper's "make the graph undirected by edge doubling"; the
        resulting edge count is ``2 m`` before deduplication.
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        return EdgeList(src, dst, self.num_vertices, weights=w)

    def deduplicated(self) -> "EdgeList":
        """Remove duplicate directed edges (keeping one copy of each).

        Weighted lists keep the *minimum* weight among a group of duplicate
        edges, which is both deterministic and the semantically right merge
        for shortest-path programs.
        """
        return self._unique(symmetrize=False, drop_loops=False)

    def _unique(
        self,
        perm: np.ndarray | None = None,
        symmetrize: bool = True,
        drop_loops: bool = True,
    ) -> "EdgeList":
        """Sorted distinct edges through :func:`_unique_edge_keys`, decoded.

        Relabels by ``perm`` first when given, doubles edges with
        ``symmetrize`` and drops self loops with ``drop_loops``.  When
        ``num_vertices ** 2`` overflows a packed int64 key the same steps run
        one by one over a lexicographic sort of the endpoint pairs.
        """
        n = self.num_vertices
        if n > np.iinfo(np.int64).max // max(n, 1):
            edges = self.relabeled(perm) if perm is not None else self
            edges = edges.without_self_loops() if drop_loops else edges
            edges = edges.symmetrized() if symmetrize else edges
            order = np.lexsort((edges.dst, edges.src))
            s, d = edges.src[order], edges.dst[order]
            keep = np.ones(s.size, dtype=bool)
            keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            w = None
            if edges.weights is not None:
                w = np.minimum.reduceat(edges.weights[order], np.flatnonzero(keep))
            return EdgeList(s[keep], d[keep], n, weights=w)
        keys, w = _unique_edge_keys(
            self.src, self.dst, n, self.weights, perm, symmetrize, drop_loops
        )
        src = keys // n
        np.remainder(keys, n, out=keys)
        return EdgeList(src, keys, n, weights=w)

    def without_self_loops(self) -> "EdgeList":
        """Remove ``u -> u`` edges."""
        keep = self.src != self.dst
        w = self.weights[keep] if self.weights is not None else None
        return EdgeList(self.src[keep], self.dst[keep], self.num_vertices, weights=w)

    def relabeled(self, permutation: np.ndarray) -> "EdgeList":
        """Apply a vertex permutation ``perm[old] = new`` to both endpoints."""
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.num_vertices,):
            raise ValueError(
                f"permutation must have shape ({self.num_vertices},), got {perm.shape}"
            )
        if perm.size:
            check = np.zeros(self.num_vertices, dtype=bool)
            check[perm] = True
            if not check.all():
                raise ValueError("permutation is not a bijection on [0, num_vertices)")
        return EdgeList(perm[self.src], perm[self.dst], self.num_vertices, weights=self.weights)

    def is_symmetric(self) -> bool:
        """``True`` if for every edge ``u -> v`` the edge ``v -> u`` also exists."""
        fwd = self.deduplicated()
        rev = EdgeList(fwd.dst, fwd.src, self.num_vertices).deduplicated()
        if fwd.num_edges != rev.num_edges:
            return False
        return bool(
            np.array_equal(fwd.src, rev.src) and np.array_equal(fwd.dst, rev.dst)
        )

    def prepared(self, hash_seed: int | None = 1) -> "EdgeList":
        """Full Graph500-style preparation: doubling, dedup, loop removal, hashing.

        Parameters
        ----------
        hash_seed:
            Seed for the deterministic vertex-hash permutation; ``None`` skips
            the relabeling step (useful in tests where vertex ids must stay
            meaningful).
        """
        from repro.utils.rng import deterministic_hash_permutation

        out = self._unique()
        if hash_seed is not None:
            perm = deterministic_hash_permutation(self.num_vertices, seed=hash_seed)
            _gather_in_place(perm, out.src)
            _gather_in_place(perm, out.dst)
        return out


def _check_endpoints(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> None:
    """Reject unequal lengths and any endpoint outside ``[0, num_vertices)``."""
    if src.shape != dst.shape:
        raise ValueError(
            f"src and dst must have the same length, got {src.size} and {dst.size}"
        )
    if src.size:
        vmin = int(min(src.min(), dst.min()))
        vmax = int(max(src.max(), dst.max()))
        if vmin < 0 or vmax >= num_vertices:
            raise ValueError(
                f"edge endpoint {vmin if vmin < 0 else vmax} out of range "
                f"for num_vertices={num_vertices}"
            )


def _unique_edge_keys(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    weights: np.ndarray | None = None,
    perm: np.ndarray | None = None,
    symmetrize: bool = True,
    drop_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one packed-key prepare: sorted distinct keys ``src * n + dst``.

    Every preparation of raw edges runs through here — :meth:`EdgeList.prepared`
    and :meth:`EdgeList.deduplicated`, :func:`repro.graph.rmat.generate_rmat`
    and the chunk ingest of :func:`repro.storage.extsort.external_build`.  The
    endpoints are range-checked, relabeled by ``perm`` when given and packed
    into one buffer: the edges' keys, then (with ``symmetrize``) their
    reverses'.  With ``drop_loops`` a self loop's keys are set to ``-1``, so
    after the in-place sort they are a prefix to skip.  The first key of
    every run of equal keys is kept.  Weighted lists sort with a stable
    argsort instead and keep each run's minimum weight, gathered through the
    order with ``mode="wrap"`` (position ``m + i`` is edge ``i`` reversed).
    ``num_vertices ** 2`` must fit an int64.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    _check_endpoints(src, dst, num_vertices)
    if perm is not None:
        src, dst = perm[src], perm[dst]
    m = src.size
    n = np.int64(num_vertices)
    keys = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    for start, (a, b) in zip((0, m), ((src, dst), (dst, src))[: 1 + symmetrize]):
        np.multiply(a, n, out=keys[start : start + m])
        keys[start : start + m] += b
    skip = 0
    if drop_loops:
        loops = src == dst
        keys[:m][loops] = -1
        if symmetrize:
            keys[m:][loops] = -1
        skip = int(np.count_nonzero(loops)) * (1 + symmetrize)
    if weights is None:
        keys.sort()
        keys = keys[skip:]
        return keys[_run_starts(keys)], None
    order = np.argsort(keys, kind="stable")[skip:]
    keys = keys[order]
    starts = _run_starts(keys)
    w = np.take(weights, order, mode="wrap")
    if keys.size:
        w = np.minimum.reduceat(w, np.flatnonzero(starts))
    return keys[starts], w


def _gather_in_place(table: np.ndarray, ids: np.ndarray, block: int = 1 << 16) -> None:
    """``ids[:] = table[ids]`` one block at a time, with no full-size temporary."""
    for start in range(0, ids.size, block):
        part = ids[start : start + block]
        part[...] = table[part]
