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

from repro.utils.sorting import sorted_unique

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
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src and dst must have the same length, got {self.src.size} and {self.dst.size}"
            )
        if self.weights is not None:
            from repro.graph.weights import validate_weights

            self.weights = validate_weights(self.weights, self.src.size)
        self.num_vertices = int(self.num_vertices)
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if self.src.size:
            vmax = int(max(self.src.max(), self.dst.max()))
            vmin = int(min(self.src.min(), self.dst.min()))
            if vmin < 0:
                raise ValueError("edge endpoints must be non-negative")
            if vmax >= self.num_vertices:
                raise ValueError(
                    f"edge endpoint {vmax} out of range for num_vertices={self.num_vertices}"
                )

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

    def nbytes_edge_list(self) -> int:
        """Memory footprint of the conventional 64-bit edge-list format.

        This is the ``16m`` bytes baseline the paper compares its partitioned
        representation against in §III-C.
        """
        return 16 * self.num_edges

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
        if self.num_edges == 0:
            return self.copy()
        # num_vertices^2 may overflow int64 for pathological inputs; fall back
        # to structured sort in that case.
        overflow = self.num_vertices and self.num_vertices > np.iinfo(np.int64).max // max(
            self.num_vertices, 1
        )
        if overflow:
            order = np.lexsort((self.dst, self.src))
            s, d = self.src[order], self.dst[order]
            keep = np.ones(s.size, dtype=bool)
            keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            w = None
            if self.weights is not None:
                w = np.minimum.reduceat(self.weights[order], np.flatnonzero(keep))
            return EdgeList(s[keep], d[keep], self.num_vertices, weights=w)
        keys = self.src * np.int64(self.num_vertices) + self.dst
        if self.weights is None:
            uniq, w = sorted_unique(keys), None
        else:
            order = np.argsort(keys, kind="stable")
            sk = keys[order]
            keep = np.ones(sk.size, dtype=bool)
            keep[1:] = sk[1:] != sk[:-1]
            uniq = sk[keep]
            w = np.minimum.reduceat(self.weights[order], np.flatnonzero(keep))
        s = uniq // self.num_vertices
        return EdgeList(s, uniq - s * self.num_vertices, self.num_vertices, weights=w)

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

        out = self.without_self_loops().symmetrized().deduplicated()
        if hash_seed is not None:
            perm = deterministic_hash_permutation(self.num_vertices, seed=hash_seed)
            out = out.relabeled(perm)
        return out
