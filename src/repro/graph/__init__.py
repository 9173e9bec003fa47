"""Graph substrate: generation, representation and basic analysis.

This package provides everything the BFS system needs *below* the
partitioning layer:

``edgelist``
    The :class:`EdgeList` container and operations on it (symmetrization by
    edge doubling, deduplication, self-loop removal, vertex relabeling).
``rmat``
    A Graph500-conformant RMAT/Kronecker generator with the paper's
    parameters (A,B,C,D = 0.57, 0.19, 0.19, 0.05, edge factor 16) and the
    deterministic vertex-hashing permutation applied after generation.
``generators``
    Additional synthetic graphs: scale-free configuration-model graphs that
    stand in for the Friendster social network and the WDC 2012 hyperlink
    graph, a uniform random graph, and the one kind -> generator table.
``csr``
    Compressed Sparse Row adjacency used by every traversal kernel.
``degree``
    Out-degrees and random source selection.
``properties``
    Graph statistics (connected components, approximate diameter, etc.).
``io``
    Edge-list persistence: ``.npz`` archives and the streamable raw binary
    format.
"""

from repro.graph.csr import CSRGraph
from repro.graph.degree import out_degrees, resolve_sources
from repro.graph.edgelist import EdgeList
from repro.graph.generators import (
    friendster_like,
    generate_edge_chunks,
    generate_graph,
    uniform_random_graph,
    wdc_like,
)
from repro.graph.properties import GraphProperties, analyze_graph
from repro.graph.rmat import RMATParameters, generate_rmat

__all__ = [
    "EdgeList",
    "CSRGraph",
    "RMATParameters",
    "generate_rmat",
    "generate_graph",
    "generate_edge_chunks",
    "friendster_like",
    "wdc_like",
    "uniform_random_graph",
    "out_degrees",
    "resolve_sources",
    "GraphProperties",
    "analyze_graph",
]
