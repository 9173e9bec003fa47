"""Out-degrees and source selection.

Degree separation — the core idea of the paper — is driven entirely by vertex
out-degrees: vertices with out-degree above the threshold ``TH`` become
delegates.  :func:`out_degrees` computes them from an edge list, which the
threshold-selection logic (:mod:`repro.partition.delegates`) and the
Figure 5/7/12 experiments build on.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.utils.rng import random_sources

__all__ = [
    "out_degrees",
    "resolve_sources",
]


def out_degrees(edges: EdgeList) -> np.ndarray:
    """Out-degree of every vertex (length ``num_vertices``)."""
    return np.bincount(edges.src, minlength=edges.num_vertices).astype(np.int64)


def resolve_sources(sources, degrees: np.ndarray, rng) -> np.ndarray:
    """Explicit source vertices pass through; an ``int`` means that many
    random sources drawn (with replacement, seeded by ``rng``) from the
    vertices of non-zero degree — the Graph500 convention every campaign,
    CLI command and bench scenario shares."""
    if isinstance(sources, (int, np.integer)):
        return random_sources(len(degrees), int(sources), rng=rng, degrees=degrees)
    return np.asarray(sources, dtype=np.int64).ravel()
