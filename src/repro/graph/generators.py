"""Synthetic graph generators beyond RMAT.

The paper also evaluates on two real-world graphs that are not redistributable
at laptop scale:

* **Friendster** (§VI-D): 134 M vertices after preparation, about half of them
  isolated, 5.17 B edges — a social network with a heavy-tailed degree
  distribution but no single dominating hub.
* **WDC 2012 hyperlink graph** (§VI-D): 4.29 B vertices (402 M isolated),
  224 B edges — a web graph whose BFS exhibits *long-tail* behaviour
  (~330 iterations on average), which flips the BFS-vs-DOBFS comparison.

Since those datasets cannot be shipped, :func:`friendster_like` and
:func:`wdc_like` generate scale-free graphs with the matching qualitative
characteristics (skewed degrees + isolated vertices for Friendster; skewed
degrees + a long chain-like component for WDC) so that the corresponding
experiments (Figures 12 and 13, and the long-tail discussion) exercise the
same code paths.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.rmat import generate_rmat, generate_rmat_edge_chunks
from repro.utils.rng import make_rng

__all__ = [
    "GRAPH_KINDS",
    "CHUNKED_GRAPH_KINDS",
    "generate_graph",
    "generate_edge_chunks",
    "friendster_like",
    "wdc_like",
    "wdc_like_edge_chunks",
    "uniform_random_graph",
    "power_law_configuration",
]


# --------------------------------------------------------------------------- #
# Graph kind -> generator (the one home of the names the CLI, the session
# facade and the bench scenarios use)
# --------------------------------------------------------------------------- #
#: Kinds :func:`generate_graph` knows.
GRAPH_KINDS = ("rmat", "friendster", "wdc", "uniform")
#: Kinds with a bounded-memory chunked generator (:func:`generate_edge_chunks`).
CHUNKED_GRAPH_KINDS = ("rmat", "wdc")


def generate_graph(
    kind: str, scale: int, seed: int = 11, weights_seed: int | None = None
) -> EdgeList:
    """A *prepared* ``2**scale``-vertex graph of the named kind.

    ``uniform`` draws ``8 * 2**scale`` edges (the bench scenarios' density).
    """
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    n = 1 << scale
    if kind == "rmat":
        return generate_rmat(scale, rng=seed, weights_seed=weights_seed)
    if kind == "friendster":
        raw = friendster_like(num_vertices=n, rng=seed, weights_seed=weights_seed)
    elif kind == "wdc":
        raw = wdc_like(num_vertices=n, rng=seed, weights_seed=weights_seed)
    elif kind == "uniform":
        raw = uniform_random_graph(n, num_edges=8 * n, rng=seed, weights_seed=weights_seed)
    else:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    return raw.prepared()


def generate_edge_chunks(kind: str, scale: int, seed: int = 11, chunk_edges: int = 1 << 20):
    """The raw (unprepared) bounded edge-chunk stream of the named kind."""
    if kind == "rmat":
        return generate_rmat_edge_chunks(scale, seed=seed, chunk_edges=chunk_edges)
    if kind == "wdc":
        return wdc_like_edge_chunks(
            num_vertices=1 << scale, seed=seed, chunk_edges=chunk_edges
        )
    raise ValueError(
        f"unknown chunked graph kind {kind!r}; expected one of {CHUNKED_GRAPH_KINDS}"
    )


# --------------------------------------------------------------------------- #
# Scale-free generators (dataset substitutes)
# --------------------------------------------------------------------------- #
def power_law_configuration(
    num_vertices: int,
    mean_degree: float,
    exponent: float = 2.3,
    max_degree: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> EdgeList:
    """Directed configuration-model graph with a power-law out-degree sequence.

    Degrees are drawn from a discrete Pareto-like distribution with the given
    exponent, rescaled to the requested mean, and each out-stub is connected
    to a uniformly random destination.  The result has the hub-and-tail
    structure degree separation is designed for.

    Parameters
    ----------
    num_vertices:
        Number of vertices.
    mean_degree:
        Target mean out-degree.
    exponent:
        Power-law exponent (2.1–2.5 covers most social/web graphs).
    max_degree:
        Optional hub cap (defaults to ``num_vertices - 1``).
    rng:
        Seed or generator.
    """
    if num_vertices <= 1:
        raise ValueError("power_law_configuration needs at least 2 vertices")
    if mean_degree <= 0:
        raise ValueError("mean_degree must be positive")
    gen = make_rng(rng)
    degrees = _power_law_degrees(num_vertices, mean_degree, exponent, max_degree, gen)
    total = int(degrees.sum())
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    dst = gen.integers(0, num_vertices, size=total).astype(np.int64)
    return EdgeList(src, dst, num_vertices)


def _power_law_degrees(
    num_vertices: int,
    mean_degree: float,
    exponent: float,
    max_degree: int | None,
    gen: np.random.Generator,
) -> np.ndarray:
    """The power-law out-degree sequence behind :func:`power_law_configuration`."""
    cap = (num_vertices - 1) if max_degree is None else int(max_degree)
    # Pareto draws, shifted to >= 1, then scaled to hit the target mean.
    raw = 1.0 + gen.pareto(exponent - 1.0, size=num_vertices)
    raw = np.minimum(raw, cap)
    scale = mean_degree / raw.mean()
    degrees = np.maximum(0, np.round(raw * scale)).astype(np.int64)
    degrees = np.minimum(degrees, cap)
    if int(degrees.sum()) == 0:
        degrees[0] = 1
    return degrees


def friendster_like(
    num_vertices: int = 1 << 18,
    mean_degree: float = 24.0,
    isolated_fraction: float = 0.5,
    exponent: float = 2.4,
    rng: np.random.Generator | int | None = None,
    weights_seed: int | None = None,
) -> EdgeList:
    """Synthetic substitute for the Friendster social graph.

    Matches the qualitative properties the paper relies on: a heavy-tailed
    degree distribution, a mean degree in the tens, and roughly half of the
    vertex universe isolated (the paper reports "134 million vertices, about
    half of which are isolated ones").  The returned edge list is directed;
    callers prepare it with :meth:`EdgeList.prepared` exactly like the paper
    prepares the real dataset (vertex randomisation + edge doubling).
    """
    if not 0.0 <= isolated_fraction < 1.0:
        raise ValueError("isolated_fraction must be in [0, 1)")
    gen = make_rng(rng)
    active = max(2, int(round(num_vertices * (1.0 - isolated_fraction))))
    core = power_law_configuration(
        active, mean_degree=mean_degree, exponent=exponent, rng=gen
    )
    # Scatter the active vertices across the full universe so isolated ids are
    # interleaved, as they are after the paper's hash permutation.
    placement = gen.permutation(num_vertices)[:active].astype(np.int64)
    src = placement[core.src]
    dst = placement[core.dst]
    w = None
    if weights_seed is not None:
        from repro.graph.weights import edge_keyed_weights

        w = edge_keyed_weights(src, dst, num_vertices, seed=weights_seed)
    return EdgeList(src, dst, num_vertices, weights=w)


def wdc_like(
    num_vertices: int = 1 << 18,
    mean_degree: float = 8.0,
    isolated_fraction: float = 0.1,
    chain_fraction: float = 0.35,
    exponent: float = 2.2,
    rng: np.random.Generator | int | None = None,
    weights_seed: int | None = None,
) -> EdgeList:
    """Synthetic substitute for the WDC 2012 hyperlink graph.

    The characteristic the paper emphasises is the *long tail*: BFS takes
    hundreds of iterations because part of the graph is only reachable through
    long, thin paths, which makes per-iteration overhead dominate and DOBFS
    slightly slower than plain BFS.  We reproduce that by attaching long
    random chains (a ``chain_fraction`` of the non-isolated vertices) to a
    scale-free core.
    """
    if not 0.0 <= isolated_fraction < 1.0:
        raise ValueError("isolated_fraction must be in [0, 1)")
    if not 0.0 <= chain_fraction < 1.0:
        raise ValueError("chain_fraction must be in [0, 1)")
    gen = make_rng(rng)
    active = max(4, int(round(num_vertices * (1.0 - isolated_fraction))))
    chain_count = int(active * chain_fraction)
    core_count = active - chain_count
    core = power_law_configuration(
        max(2, core_count), mean_degree=mean_degree, exponent=exponent, rng=gen
    )
    src_parts = [core.src]
    dst_parts = [core.dst]
    if chain_count > 1:
        # One or more long chains hanging off random core vertices.
        chain_ids = np.arange(core_count, core_count + chain_count, dtype=np.int64)
        num_chains = max(1, chain_count // 4096)
        bounds = np.linspace(0, chain_count, num_chains + 1).astype(np.int64)
        chain_src = []
        chain_dst = []
        for ci in range(num_chains):
            lo, hi = int(bounds[ci]), int(bounds[ci + 1])
            if hi - lo < 1:
                continue
            segment = chain_ids[lo:hi]
            anchor = int(gen.integers(0, max(1, core_count)))
            chain_src.append(np.concatenate([[anchor], segment[:-1]]))
            chain_dst.append(segment)
        if chain_src:
            src_parts.append(np.concatenate(chain_src))
            dst_parts.append(np.concatenate(chain_dst))
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    placement = gen.permutation(num_vertices)[:active].astype(np.int64)
    psrc, pdst = placement[src], placement[dst]
    w = None
    if weights_seed is not None:
        from repro.graph.weights import edge_keyed_weights

        # Keyed on the *placed* ids so the chunked generator — which places
        # before yielding — computes identical weights.
        w = edge_keyed_weights(psrc, pdst, num_vertices, seed=weights_seed)
    return EdgeList(psrc, pdst, num_vertices, weights=w)


def wdc_like_edge_chunks(
    num_vertices: int = 1 << 18,
    mean_degree: float = 8.0,
    isolated_fraction: float = 0.1,
    chain_fraction: float = 0.35,
    exponent: float = 2.2,
    seed: int = 11,
    chunk_edges: int = 1 << 20,
    weights_seed: int | None = None,
):
    """Yield WDC-like edges in bounded ``(src, dst)`` chunks.

    The streaming counterpart of :func:`wdc_like` for the out-of-core build
    path (:func:`repro.storage.extsort.external_build`): only the O(n)
    per-vertex arrays (core degree sequence, placement permutation) stay
    resident, and edge emission — the O(m) part — is bounded by
    ``chunk_edges``.  Deterministic per ``(seed, chunk_edges)``, but a
    *different* (equally valid) draw than :func:`wdc_like`'s, because the
    random stream is consumed per chunk rather than all at once.
    """
    if not 0.0 <= isolated_fraction < 1.0:
        raise ValueError("isolated_fraction must be in [0, 1)")
    if not 0.0 <= chain_fraction < 1.0:
        raise ValueError("chain_fraction must be in [0, 1)")
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    gen = make_rng(seed)
    active = max(4, int(round(num_vertices * (1.0 - isolated_fraction))))
    chain_count = int(active * chain_fraction)
    core_count = active - chain_count
    core_n = max(2, core_count)
    degrees = _power_law_degrees(core_n, mean_degree, exponent, None, gen)
    cum = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    total_core = int(cum[-1])
    placement = gen.permutation(num_vertices)[:active].astype(np.int64)

    def emit(ps: np.ndarray, pd: np.ndarray):
        if weights_seed is None:
            return ps, pd
        from repro.graph.weights import edge_keyed_weights

        return ps, pd, edge_keyed_weights(ps, pd, num_vertices, seed=weights_seed)

    # Scale-free core: the stub expansion src = repeat(arange, degrees) is
    # sliced into edge ranges [e0, e1); searchsorted on the degree cumsum
    # recovers which vertices' stubs fall in the slice.
    num_core_chunks = (total_core + chunk_edges - 1) // chunk_edges
    children = (
        np.random.SeedSequence(seed + 1).spawn(num_core_chunks) if num_core_chunks else []
    )
    for index, child in enumerate(children):
        cgen = np.random.default_rng(child)
        e0 = index * chunk_edges
        e1 = min(total_core, e0 + chunk_edges)
        r0 = int(np.searchsorted(cum, e0, side="right") - 1)
        r1 = int(np.searchsorted(cum, e1, side="left"))
        counts = np.minimum(cum[r0 + 1 : r1 + 1], e1) - np.maximum(cum[r0:r1], e0)
        src = np.repeat(np.arange(r0, r1, dtype=np.int64), counts)
        dst = cgen.integers(0, core_n, size=e1 - e0).astype(np.int64)
        yield emit(placement[src], placement[dst])

    # Long chains: generated per chain (each at most a few thousand edges),
    # buffered up to chunk_edges, then flushed in bounded slices.
    if chain_count > 1:
        chain_ids = np.arange(core_count, core_count + chain_count, dtype=np.int64)
        num_chains = max(1, chain_count // 4096)
        bounds = np.linspace(0, chain_count, num_chains + 1).astype(np.int64)
        buf_src: list[np.ndarray] = []
        buf_dst: list[np.ndarray] = []
        buffered = 0

        def drain():
            nonlocal buf_src, buf_dst, buffered
            src = np.concatenate(buf_src)
            dst = np.concatenate(buf_dst)
            buf_src, buf_dst, buffered = [], [], 0
            for s0 in range(0, src.size, chunk_edges):
                sl = slice(s0, s0 + chunk_edges)
                yield emit(placement[src[sl]], placement[dst[sl]])

        for ci in range(num_chains):
            lo, hi = int(bounds[ci]), int(bounds[ci + 1])
            if hi - lo < 1:
                continue
            segment = chain_ids[lo:hi]
            anchor = int(gen.integers(0, max(1, core_count)))
            buf_src.append(np.concatenate([[anchor], segment[:-1]]))
            buf_dst.append(segment)
            buffered += hi - lo
            if buffered >= chunk_edges:
                yield from drain()
        if buffered:
            yield from drain()


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    rng: np.random.Generator | int | None = None,
    weights_seed: int | None = None,
) -> EdgeList:
    """Erdős–Rényi-style directed multigraph: each edge endpoint uniform.

    With ``weights_seed`` set, the result carries deterministic edge-keyed
    weights (:func:`repro.graph.weights.edge_keyed_weights`).
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    gen = make_rng(rng)
    src = gen.integers(0, num_vertices, size=num_edges).astype(np.int64)
    dst = gen.integers(0, num_vertices, size=num_edges).astype(np.int64)
    w = None
    if weights_seed is not None:
        from repro.graph.weights import edge_keyed_weights

        w = edge_keyed_weights(src, dst, num_vertices, seed=weights_seed)
    return EdgeList(src, dst, num_vertices, weights=w)
