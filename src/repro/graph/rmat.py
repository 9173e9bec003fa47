"""Graph500-conformant RMAT (Kronecker) graph generator.

The paper evaluates on RMAT graphs generated per the Graph500 specification
(§VI-A3): edge factor 16, RMAT parameters ``A, B, C, D = 0.57, 0.19, 0.19,
0.05``, vertex numbers randomised by a deterministic hash after generation,
and the graph made undirected by edge doubling.  For a scale-``N`` graph the
number of vertices is ``2^N`` and the directed edge count before doubling is
``2^N * 16``.

The generator here is fully vectorized: all ``scale`` bit decisions for all
edges are drawn as NumPy arrays, so generating a scale-20 graph (16 M edges)
takes well under a second.  The recursive quadrant choice follows the
standard R-MAT construction of Chakrabarti et al. with per-level parameter
noise disabled (Graph500 uses fixed probabilities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.utils.rng import deterministic_hash_permutation, make_rng

__all__ = [
    "RMATParameters",
    "generate_rmat",
    "generate_rmat_edges",
    "generate_rmat_edge_chunks",
]


@dataclass(frozen=True)
class RMATParameters:
    """Parameters of the RMAT recursion.

    The defaults are the Graph500 values used throughout the paper.
    """

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05
    edge_factor: int = 16

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"RMAT probabilities must sum to 1, got {total}")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("RMAT probabilities must be non-negative")
        if self.edge_factor <= 0:
            raise ValueError("edge_factor must be positive")


def _rmat_levels(
    gen: np.random.Generator, count: int, scale: int, params: RMATParameters
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` raw RMAT edges: ``scale`` quadrant choices per edge, one draw each.

    Every level draws one uniform ``r`` per edge and appends a bit to both
    endpoints: the pair ``(row_bit, col_bit)`` is ``(0,0)`` with probability
    ``a``, ``(0,1)`` with ``b``, ``(1,0)`` with ``c`` and ``(1,1)`` with
    ``d``.  The levels reuse one ``r`` buffer and two bit buffers and shift
    into ``src`` / ``dst`` in place; ``gen.random(out=r)`` consumes the same
    stream as ``gen.random(count)``.
    """
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    r = np.empty(count, dtype=np.float64)
    row_bit = np.empty(count, dtype=bool)
    col_bit = np.empty(count, dtype=bool)
    ab = params.a + params.b
    abc = ab + params.c
    for _level in range(scale):
        gen.random(out=r)
        # col_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        np.greater_equal(r, params.a, out=col_bit)
        np.less(r, ab, out=row_bit)
        col_bit &= row_bit
        np.greater_equal(r, abc, out=row_bit)
        col_bit |= row_bit
        np.greater_equal(r, ab, out=row_bit)
        np.left_shift(src, 1, out=src)
        src |= row_bit
        np.left_shift(dst, 1, out=dst)
        dst |= col_bit
    return src, dst


def generate_rmat_edges(
    scale: int,
    params: RMATParameters = RMATParameters(),
    rng: np.random.Generator | int | None = None,
    num_edges: int | None = None,
    weights_seed: int | None = None,
) -> EdgeList:
    """Generate the raw directed RMAT edge list (no doubling, no hashing).

    Parameters
    ----------
    scale:
        Graph500 scale; the graph has ``2**scale`` vertices.
    params:
        RMAT recursion probabilities and edge factor.
    rng:
        Seed or generator for reproducibility.
    num_edges:
        Override the number of directed edges (default ``edge_factor * 2**scale``).
    weights_seed:
        When given, attach deterministic edge-keyed weights in ``[0, 1)``
        (:func:`repro.graph.weights.edge_keyed_weights`); the weight of an
        edge depends only on its endpoint pair and this seed, so the chunked
        generator emits identical weights.

    Returns
    -------
    EdgeList
        Directed edge list with ``num_edges`` edges; duplicates and self loops
        are *not* removed (Graph500 generators keep them; they are removed
        during preparation).
    """
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale > 32:
        raise ValueError(
            f"scale {scale} would not fit in memory for this pure-Python reproduction"
        )
    gen = make_rng(rng)
    n = 1 << scale
    m = int(params.edge_factor * n) if num_edges is None else int(num_edges)
    if m < 0:
        raise ValueError("number of edges must be non-negative")

    src, dst = _rmat_levels(gen, m, scale, params)

    w = None
    if weights_seed is not None:
        from repro.graph.weights import edge_keyed_weights

        w = edge_keyed_weights(src, dst, n, seed=weights_seed)
    return EdgeList(src, dst, n, weights=w)


def generate_rmat_edge_chunks(
    scale: int,
    params: RMATParameters = RMATParameters(),
    seed: int = 11,
    chunk_edges: int = 1 << 20,
    num_edges: int | None = None,
    weights_seed: int | None = None,
):
    """Yield raw directed RMAT edges in bounded ``(src, dst)`` chunks.

    The streaming counterpart of :func:`generate_rmat_edges`: peak memory is
    bounded by ``chunk_edges`` regardless of scale, which is what the
    out-of-core build (:func:`repro.storage.extsort.external_build`)
    consumes.  Each chunk draws from its own generator spawned off one
    ``SeedSequence``, so the stream is deterministic per ``(scale, seed,
    chunk_edges)`` — but it is a *different* (equally valid Graph500) draw
    than the single-shot generator's, because the random stream is consumed
    per chunk rather than per level across all edges.

    With ``weights_seed`` set, chunks are ``(src, dst, weights)`` triples;
    the edge-keyed weights are chunk-boundary-invariant by construction.
    """
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale > 32:
        raise ValueError(
            f"scale {scale} would not fit in memory for this pure-Python reproduction"
        )
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    n = 1 << scale
    m = int(params.edge_factor * n) if num_edges is None else int(num_edges)
    if m < 0:
        raise ValueError("number of edges must be non-negative")
    num_chunks = (m + chunk_edges - 1) // chunk_edges
    children = np.random.SeedSequence(seed).spawn(num_chunks) if num_chunks else []
    for index, child in enumerate(children):
        gen = np.random.default_rng(child)
        count = min(chunk_edges, m - index * chunk_edges)
        src, dst = _rmat_levels(gen, count, scale, params)
        if weights_seed is not None:
            from repro.graph.weights import edge_keyed_weights

            yield src, dst, edge_keyed_weights(src, dst, n, seed=weights_seed)
        else:
            yield src, dst


def generate_rmat(
    scale: int,
    params: RMATParameters = RMATParameters(),
    rng: np.random.Generator | int | None = None,
    hash_seed: int | None = 1,
    symmetrize: bool = True,
    deduplicate: bool = True,
    weights_seed: int | None = None,
) -> EdgeList:
    """Generate a prepared Graph500 RMAT graph.

    This is the end-to-end path the paper uses: raw RMAT edges, optional
    deterministic vertex-number hashing, undirection by edge doubling, and
    removal of self loops and duplicate edges.

    Parameters
    ----------
    scale:
        Graph500 scale (``2**scale`` vertices).
    params:
        RMAT recursion parameters; the default matches the paper.
    rng:
        Seed or generator for edge generation.
    hash_seed:
        Seed for the deterministic vertex permutation, or ``None`` to skip it.
    symmetrize:
        Whether to apply edge doubling (the paper always does, because DOBFS
        without a global traversal direction needs a symmetric graph).
    deduplicate:
        Whether to remove duplicate edges and self loops.
    weights_seed:
        When given, attach deterministic edge-keyed weights (shared by the
        two directions of every undirected edge, so edge doubling and
        deduplication preserve them exactly).

    Returns
    -------
    EdgeList
        The prepared (by default symmetric, duplicate-free) edge list.
    """
    edges = generate_rmat_edges(scale, params=params, rng=rng, weights_seed=weights_seed)
    perm = None
    if hash_seed is not None:
        perm = deterministic_hash_permutation(edges.num_vertices, seed=hash_seed)
    if deduplicate:
        # Hashing comes first here, so the output is sorted by hashed ids.
        return edges._unique(perm=perm, symmetrize=symmetrize, drop_loops=True)
    if perm is not None:
        edges = edges.relabeled(perm)
    return edges.symmetrized() if symmetrize else edges
