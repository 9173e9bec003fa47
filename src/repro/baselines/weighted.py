"""Serial oracles for the weighted program zoo.

Small, obviously-correct reference implementations the distributed
programs are tested against:

* :func:`dijkstra_sssp` — binary-heap Dijkstra over non-negative
  float64 weights (exact float arithmetic, same + / min operations as
  the engine's relaxations, so distances match bit-for-bit);
* :func:`pagerank_reference_fixed` — a serial replica of the engine's
  fixed-point power sweep, integer-for-integer identical;
* :func:`pagerank_power` — conventional float64 power iteration, the
  analytic yardstick both integer modes are compared against within a
  tolerance;
* :func:`triangle_count_serial` — per-edge neighbor intersection.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.utils.sorting import sorted_unique

__all__ = [
    "dijkstra_sssp",
    "pagerank_power",
    "pagerank_reference_fixed",
    "triangle_count_serial",
]


def _adjacency(src, dst, n, weights=None):
    """Dict-of-lists adjacency from a directed edge list."""
    adj: list[list] = [[] for _ in range(n)]
    if weights is None:
        for u, v in zip(src.tolist(), dst.tolist()):
            adj[u].append(v)
    else:
        for u, v, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
            adj[u].append((v, w))
    return adj


def dijkstra_sssp(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
    source: int,
) -> np.ndarray:
    """Exact float64 shortest-path distances from ``source``.

    Unreached vertices hold ``inf``.  Distances are produced by the same
    float64 additions the engine's relaxations perform (a shortest path's
    distance is the same left-to-right sum in both), so comparisons
    against engine results can demand bit equality.
    """
    n = int(num_vertices)
    adj = _adjacency(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        n,
        np.asarray(weights, dtype=np.float64),
    )
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, int(source))]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _out_degrees(src: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(np.asarray(src, dtype=np.int64), minlength=n).astype(np.int64)


def pagerank_power(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    damping: float = 0.85,
    iterations: int = 20,
) -> np.ndarray:
    """Conventional float64 PageRank power iteration (dangling-aware)."""
    n = int(num_vertices)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    outdeg = _out_degrees(src, n)
    r = np.full(n, 1.0 / n, dtype=np.float64)
    teleport = (1.0 - damping) / n
    for _ in range(iterations):
        contrib = np.zeros(n, dtype=np.float64)
        nz = outdeg > 0
        contrib[nz] = damping * r[nz] / outdeg[nz]
        dangling = damping * r[~nz].sum() / n
        recv = np.zeros(n, dtype=np.float64)
        np.add.at(recv, dst, contrib[src])
        r = teleport + recv + dangling
    return r


def pagerank_reference_fixed(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    damping: float = 0.85,
    iterations: int = 20,
) -> np.ndarray:
    """Serial replica of the engine's fixed-point power sweep.

    Performs the identical integer arithmetic (same scale, same damping
    rational, same truncating divisions) over the plain edge list, so
    the result must equal the distributed ``PageRank(mode="fixed")``
    ranks integer-for-integer.
    """
    from repro.weighted.pagerank import DAMP_DEN, SCALE, damped

    n = int(num_vertices)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    damp_num = int(round(float(damping) * DAMP_DEN))
    outdeg = _out_degrees(src, n)
    nz = outdeg > 0
    teleport = np.int64((SCALE - int(damped(SCALE, damp_num))) // n)
    r = np.full(n, SCALE // n, dtype=np.int64)
    for _ in range(int(iterations)):
        dr = damped(r, damp_num)
        contrib = np.zeros(n, dtype=np.int64)
        contrib[nz] = dr[nz] // outdeg[nz]
        dangling = int(dr[~nz].sum())
        recv = np.zeros(n, dtype=np.int64)
        np.add.at(recv, dst, contrib[src])
        r = teleport + recv + np.int64(dangling // n)
    return r


def triangle_count_serial(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> tuple[int, np.ndarray]:
    """Exact ``(total, per_vertex)`` triangle counts of the undirected graph.

    Uses sorted-set neighbor intersections per undirected edge — slow but
    transparently correct.
    """
    n = int(num_vertices)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    packed = sorted_unique(lo[keep] * np.int64(n) + hi[keep])
    lo = packed // n
    hi = packed - lo * n
    neighbors: list[set] = [set() for _ in range(n)]
    for u, v in zip(lo.tolist(), hi.tolist()):
        neighbors[u].add(v)
        neighbors[v].add(u)
    per_vertex = np.zeros(n, dtype=np.int64)
    total = 0
    for u, v in zip(lo.tolist(), hi.tolist()):
        common = neighbors[u] & neighbors[v]
        for w in common:
            # Count each triangle once: at its lexicographically largest edge.
            if w < u:
                total += 1
                per_vertex[u] += 1
                per_vertex[v] += 1
                per_vertex[w] += 1
    return total, per_vertex
