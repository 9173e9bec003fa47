"""TEPS accounting (Graph500 convention, paper §VI-A3).

The paper computes traversal rates with the *nominal* Graph500 edge count:
for a scale-``N`` RMAT graph with edge factor 16, the counted edges are
``m/2 = 2^N * 16`` regardless of duplicate removal or the number of edges the
run actually touched.  :func:`rmat_counted_edges` states that convention once;
the rate itself is :meth:`repro.core.results.TraversalResult.gteps` and the
paper's aggregate :meth:`repro.core.campaign.Campaign.geo_mean_gteps`.
"""

from __future__ import annotations

__all__ = ["rmat_counted_edges"]


def rmat_counted_edges(scale: int, edge_factor: int = 16) -> int:
    """Graph500 counted edges for a scale-``N`` RMAT graph: ``2^N * edge_factor``."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if edge_factor <= 0:
        raise ValueError("edge_factor must be positive")
    return (1 << scale) * edge_factor
