"""Degree computation and degree-distribution summaries.

Degree separation — the core idea of the paper — is driven entirely by vertex
out-degrees: vertices with out-degree above the threshold ``TH`` become
delegates.  These helpers compute degrees from edge lists and summarise the
degree distribution, which the threshold-selection logic
(:mod:`repro.partition.delegates`) and the Figure 5/7/12 experiments build on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.utils.rng import random_sources

__all__ = [
    "out_degrees",
    "in_degrees",
    "resolve_sources",
    "degree_histogram",
    "DegreeSummary",
    "degree_summary",
]


def out_degrees(edges: EdgeList) -> np.ndarray:
    """Out-degree of every vertex (length ``num_vertices``)."""
    return np.bincount(edges.src, minlength=edges.num_vertices).astype(np.int64)


def in_degrees(edges: EdgeList) -> np.ndarray:
    """In-degree of every vertex (length ``num_vertices``)."""
    return np.bincount(edges.dst, minlength=edges.num_vertices).astype(np.int64)


def resolve_sources(sources, degrees: np.ndarray, rng) -> np.ndarray:
    """Explicit source vertices pass through; an ``int`` means that many
    random sources drawn (with replacement, seeded by ``rng``) from the
    vertices of non-zero degree — the Graph500 convention every campaign,
    CLI command and bench scenario shares."""
    if isinstance(sources, (int, np.integer)):
        return random_sources(len(degrees), int(sources), rng=rng, degrees=degrees)
    return np.asarray(sources, dtype=np.int64).ravel()


def degree_histogram(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of a degree array.

    Returns
    -------
    (values, counts):
        ``values`` are the distinct degree values in ascending order and
        ``counts[i]`` is the number of vertices with degree ``values[i]``.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    values, counts = np.unique(degrees, return_counts=True)
    return values, counts


@dataclass(frozen=True)
class DegreeSummary:
    """Summary statistics of a degree distribution."""

    num_vertices: int
    num_edges: int
    max_degree: int
    mean_degree: float
    median_degree: float
    isolated_vertices: int
    gini: float

    def as_dict(self) -> dict:
        """Return the summary as a plain dictionary."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "median_degree": self.median_degree,
            "isolated_vertices": self.isolated_vertices,
            "gini": self.gini,
        }


def _gini(degrees: np.ndarray) -> float:
    """Gini coefficient of the degree distribution (0 = uniform, ->1 = skewed).

    Scale-free graphs such as RMAT and social networks have a high Gini
    coefficient; this statistic is used in tests to confirm the synthetic
    Friendster/WDC substitutes are strongly skewed like the real datasets.
    """
    d = np.sort(np.asarray(degrees, dtype=np.float64))
    if d.size == 0 or d.sum() == 0:
        return 0.0
    n = d.size
    cum = np.cumsum(d)
    # Standard formula: G = (2 * sum_i i*d_i) / (n * sum d) - (n + 1) / n
    idx = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * np.sum(idx * d)) / (n * cum[-1]) - (n + 1.0) / n)


def degree_summary(edges: EdgeList) -> DegreeSummary:
    """Compute a :class:`DegreeSummary` for an edge list."""
    deg = out_degrees(edges)
    if deg.size == 0:
        return DegreeSummary(0, edges.num_edges, 0, 0.0, 0.0, 0, 0.0)
    return DegreeSummary(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        max_degree=int(deg.max()),
        mean_degree=float(deg.mean()),
        median_degree=float(np.median(deg)),
        isolated_vertices=int(np.count_nonzero(deg == 0)),
        gini=_gini(deg),
    )
