"""Property-based end-to-end test: the distributed engine equals the oracle.

For arbitrary random graphs, cluster shapes, thresholds and option
combinations, the distributed degree-separated (DO)BFS must return exactly the
hop distances of a serial reference BFS.  This is the single most important
invariant in the library.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.serial_bfs import serial_bfs
from repro.core.engine import DistributedBFS
from repro.core.options import BFSOptions
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.validate.graph500 import validate_distances


@st.composite
def random_symmetric_graph(draw):
    n = draw(st.integers(min_value=2, max_value=64))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    edges = EdgeList(src, dst, n).prepared(hash_seed=None)
    return edges


@st.composite
def cluster_layouts(draw):
    prank = draw(st.integers(min_value=1, max_value=4))
    pgpu = draw(st.integers(min_value=1, max_value=3))
    return ClusterLayout(num_ranks=prank, gpus_per_rank=pgpu)


@given(
    edges=random_symmetric_graph(),
    layout=cluster_layouts(),
    threshold=st.integers(min_value=0, max_value=12),
    source_pick=st.integers(min_value=0, max_value=10**6),
    direction_optimized=st.booleans(),
    local_all2all=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_distributed_bfs_matches_serial_oracle(
    edges, layout, threshold, source_pick, direction_optimized, local_all2all
):
    source = source_pick % edges.num_vertices
    options = BFSOptions(
        direction_optimized=direction_optimized,
        local_all2all=local_all2all,
        uniquify=local_all2all,
    )
    graph = build_partitions(edges, layout, threshold)
    result = DistributedBFS(graph, options=options).run(source)

    reference = serial_bfs(CSRGraph.from_edgelist(edges), source)
    np.testing.assert_array_equal(result.distances, reference)

    report = validate_distances(edges, source, result.distances, reference=reference)
    assert report.valid, report.errors

    # Workload sanity: a traversal can never examine more edges than the
    # graph holds times the iteration count, and the visited count matches.
    assert result.num_visited == int(np.count_nonzero(reference >= 0))
    assert result.total_edges_examined <= edges.num_edges * max(result.iterations, 1)


@given(
    edges=random_symmetric_graph(),
    layout=cluster_layouts(),
    threshold=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_partitioning_preserves_every_edge(edges, layout, threshold):
    graph = build_partitions(edges, layout, threshold)
    per_gpu = graph.edges_per_gpu()
    assert per_gpu.sum() == edges.num_edges
    assert (per_gpu >= 0).all()
