"""Degree separation: delegate selection and edge-category census (paper §III-A).

The single most important tuning parameter in the paper is the degree
threshold ``TH``: vertices with out-degree **greater than** ``TH`` become
*delegates* (replicated on every GPU), the rest remain *normal* vertices
(owned by exactly one GPU).  This module provides:

* :func:`separate_by_degree` — compute the delegate set and the dense
  delegate-id numbering for a given threshold;
* :class:`EdgeCategoryCensus` / :func:`census_for_thresholds` — the fraction
  of nn / nd / dn / dd edges and of delegate vertices as a function of ``TH``,
  which is exactly what Figures 5 and 12 plot;
* :func:`suggest_threshold` — the paper's tuning rule (keep the number of
  delegates at the order of ``n/p``, at most ``4 n/p``, and the nn-edge
  fraction small), which reproduces the suggested-threshold curve of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList

__all__ = [
    "DegreeSeparation",
    "EdgeCategoryCensus",
    "separate_by_degree",
    "census_for_thresholds",
    "suggest_threshold",
    "threshold_candidates",
]


@dataclass
class DegreeSeparation:
    """Result of splitting the vertex set by out-degree.

    Attributes
    ----------
    threshold:
        The degree threshold ``TH`` used.
    degrees:
        Out-degree of every vertex (length ``n``).
    is_delegate:
        Boolean array of length ``n``; ``True`` for delegates.
    delegate_vertices:
        Global vertex ids of the delegates, ascending; the position of a
        vertex in this array is its *delegate id* (the paper renumbers
        delegates densely, e.g. vertex 7 becomes delegate 0 in Figure 2).
    delegate_id_of:
        Length-``n`` array mapping a global vertex id to its delegate id, or
        ``-1`` for normal vertices.
    """

    threshold: int
    degrees: np.ndarray
    is_delegate: np.ndarray
    delegate_vertices: np.ndarray
    delegate_id_of: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Total number of vertices ``n``."""
        return int(self.degrees.size)

    @property
    def num_delegates(self) -> int:
        """Number of delegates ``d``."""
        return int(self.delegate_vertices.size)


def separate_by_degree(edges: EdgeList, threshold: int) -> DegreeSeparation:
    """Split the vertices of ``edges`` into delegates and normal vertices.

    Vertices with out-degree strictly greater than ``threshold`` become
    delegates (matching the paper's definition: "vertices with out-degree
    larger than TH").
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    degrees = out_degrees(edges)
    is_delegate = degrees > threshold
    delegate_vertices = np.flatnonzero(is_delegate).astype(np.int64)
    delegate_id_of = np.full(edges.num_vertices, -1, dtype=np.int64)
    delegate_id_of[delegate_vertices] = np.arange(delegate_vertices.size, dtype=np.int64)
    return DegreeSeparation(
        threshold=int(threshold),
        degrees=degrees,
        is_delegate=is_delegate,
        delegate_vertices=delegate_vertices,
        delegate_id_of=delegate_id_of,
    )


@dataclass(frozen=True)
class EdgeCategoryCensus:
    """Counts of the four edge categories for one threshold value.

    The four categories follow the paper's notation: ``nn`` (normal→normal),
    ``nd`` (normal→delegate), ``dn`` (delegate→normal) and ``dd``
    (delegate→delegate).  For a symmetric graph ``nd == dn``.
    """

    threshold: int
    num_vertices: int
    num_edges: int
    num_delegates: int
    nn_edges: int
    nd_edges: int
    dn_edges: int
    dd_edges: int

    @property
    def delegate_percentage(self) -> float:
        """Delegates as a percentage of all vertices."""
        return 100.0 * self.num_delegates / self.num_vertices if self.num_vertices else 0.0

    @property
    def nn_percentage(self) -> float:
        """nn edges as a percentage of all edges."""
        return 100.0 * self.nn_edges / self.num_edges if self.num_edges else 0.0

    @property
    def nd_dn_percentage(self) -> float:
        """nd + dn edges as a percentage of all edges."""
        return 100.0 * (self.nd_edges + self.dn_edges) / self.num_edges if self.num_edges else 0.0

    @property
    def dd_percentage(self) -> float:
        """dd edges as a percentage of all edges."""
        return 100.0 * self.dd_edges / self.num_edges if self.num_edges else 0.0

    def as_dict(self) -> dict:
        """Flat dictionary form (used by the Figure 5 / 12 benchmark tables)."""
        return {
            "threshold": self.threshold,
            "delegates_pct": self.delegate_percentage,
            "nn_pct": self.nn_percentage,
            "nd_dn_pct": self.nd_dn_percentage,
            "dd_pct": self.dd_percentage,
            "num_delegates": self.num_delegates,
            "nn_edges": self.nn_edges,
            "nd_edges": self.nd_edges,
            "dn_edges": self.dn_edges,
            "dd_edges": self.dd_edges,
        }


def census_edge_categories(edges: EdgeList, separation: DegreeSeparation) -> EdgeCategoryCensus:
    """Count the nn/nd/dn/dd edges for an existing separation."""
    src_is_d = separation.is_delegate[edges.src]
    dst_is_d = separation.is_delegate[edges.dst]
    dd = int(np.count_nonzero(src_is_d & dst_is_d))
    dn = int(np.count_nonzero(src_is_d & ~dst_is_d))
    nd = int(np.count_nonzero(~src_is_d & dst_is_d))
    nn = int(np.count_nonzero(~src_is_d & ~dst_is_d))
    return EdgeCategoryCensus(
        threshold=separation.threshold,
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        num_delegates=separation.num_delegates,
        nn_edges=nn,
        nd_edges=nd,
        dn_edges=dn,
        dd_edges=dd,
    )


def census_for_thresholds(
    edges: EdgeList, thresholds: Sequence[int] | Iterable[int]
) -> list[EdgeCategoryCensus]:
    """Edge-category census over a sweep of thresholds (Figures 5 and 12)."""
    degrees = out_degrees(edges)
    results: list[EdgeCategoryCensus] = []
    for th in thresholds:
        sep = DegreeSeparation(
            threshold=int(th),
            degrees=degrees,
            is_delegate=degrees > th,
            delegate_vertices=np.flatnonzero(degrees > th).astype(np.int64),
            delegate_id_of=np.zeros(0, dtype=np.int64),  # not needed for the census
        )
        # Recompute the id map lazily only if a caller needs it; the census does not.
        results.append(census_edge_categories(edges, sep))
    return results


def threshold_candidates(max_degree: int) -> np.ndarray:
    """Power-of-two threshold candidates up to the maximum degree (as in Fig. 5)."""
    if max_degree < 1:
        return np.asarray([1], dtype=np.int64)
    top = int(np.ceil(np.log2(max_degree))) + 1
    return (2 ** np.arange(0, top + 1)).astype(np.int64)


#: The ``4`` in the tuning rule's ``d <= 4 n/p``.
MAX_DELEGATE_FACTOR = 4.0
#: The tuning rule's upper bound on the fraction of nn edges.
MAX_NN_FRACTION = 0.10


def suggest_threshold(
    edges: EdgeList,
    num_gpus: int,
    candidates: Sequence[int] | None = None,
) -> int:
    """Suggest a degree threshold following the paper's tuning rule (§VI-B).

    The paper's guidance: keep the number of delegates ``d`` on the order of
    the per-GPU vertex count ``n/p`` (under ``4 n/p`` in practice,
    :data:`MAX_DELEGATE_FACTOR`) and keep the nn-edge percentage small (under
    ~10%, :data:`MAX_NN_FRACTION`).  Among all candidate thresholds
    satisfying both constraints we return the smallest (more delegates means
    less nn communication, which the paper prefers as long as the delegate
    masks stay cheap); if no candidate satisfies both, the one with the
    smallest constraint violation is returned.

    Parameters
    ----------
    edges:
        Prepared (symmetric) edge list.
    num_gpus:
        ``p``, the number of GPUs the graph will be partitioned over.
    candidates:
        Candidate thresholds to consider; defaults to powers of two up to the
        maximum degree.
    """
    degrees = out_degrees(edges)
    max_deg = int(degrees.max()) if degrees.size else 0
    cands = (
        np.asarray(sorted(set(int(c) for c in candidates)), dtype=np.int64)
        if candidates is not None
        else threshold_candidates(max_deg)
    )

    def nn_edges(index: int) -> int:
        normal = degrees <= cands[index]
        return int(np.count_nonzero(normal[edges.src] & normal[edges.dst]))

    return _select_threshold(cands, degrees, nn_edges, edges.num_edges, num_gpus)


def _select_threshold(
    candidates: np.ndarray,
    degrees: np.ndarray,
    nn_edges: Callable[[int], int],
    num_edges: int,
    num_gpus: int,
) -> int:
    """The tuning rule of :func:`suggest_threshold` over ascending
    ``candidates``: ``nn_edges(i)`` is the nn-edge count at ``candidates[i]``,
    asked for only until a candidate passes.

    Both the in-memory suggestion and the streamed build
    (:mod:`repro.storage.extsort`) select through this one function, so they
    pick the same ``TH`` from the same degrees and counts.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    delegate_budget = MAX_DELEGATE_FACTOR * degrees.size / num_gpus
    best_th: int | None = None
    best_violation = np.inf
    for index, th in enumerate(candidates):
        d = int(np.count_nonzero(degrees > th))
        nn_frac = nn_edges(index) / num_edges if num_edges else 0.0
        if d <= delegate_budget and nn_frac <= MAX_NN_FRACTION:
            return int(th)
        violation = max(0.0, (d - delegate_budget) / max(delegate_budget, 1.0)) + max(
            0.0, (nn_frac - MAX_NN_FRACTION) / max(MAX_NN_FRACTION, 1e-12)
        )
        if violation < best_violation:
            best_violation = violation
            best_th = int(th)
    if best_th is None:
        raise ValueError("no threshold candidates provided")
    return best_th
