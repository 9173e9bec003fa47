"""The process backend's workers see the coordinator's graph, array for array.

A pool worker never receives a graph: it rebuilds the whole
:class:`~repro.partition.subgraphs.PartitionedGraph` from the graph
descriptor its run names, through the store reader, as views into a POSIX
shared-memory segment (memory graphs) or into the store's ``graph.bin``
(mmap and compressed graphs).  These tests run that worker-side rebuild in
the test process and hold it to the coordinator's own graph: the
partitioning metadata and census, every separation and per-GPU array, and
every CSR's row offsets, columns (decoded when compressed), column dtype,
shape and weights, across every storage mode, weighted and unweighted, on
three layouts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.shm import SegmentCache, SharedGraphStore, graph_from_descriptor
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import apply_storage
from repro.storage.segments import GPU_ARRAYS, SEPARATION_ARRAYS

KEYS = ("nn", "nd", "dn", "dd")

#: (layout, RMAT scale, threshold): the 4x2x2 graph is the small one.
LAYOUTS = {
    "1x1x2": (10, 24),
    "2x2x2": (10, 24),
    "4x2x2": (8, 12),
}


@pytest.fixture(scope="module", params=["unweighted", "weighted"])
def memory_graphs(request):
    weights_seed = 5 if request.param == "weighted" else None
    return {
        notation: build_partitions(
            generate_rmat(scale, rng=7, weights_seed=weights_seed),
            ClusterLayout.from_notation(notation),
            threshold,
        )
        for notation, (scale, threshold) in LAYOUTS.items()
    }


def _plain(csr):
    """``(row_offsets, columns, weights)`` of a raw or compressed CSR."""
    if hasattr(csr, "decode"):
        decoded = csr.decode()
        return csr.row_offsets, decoded.column_indices, csr.edge_weights
    return csr.row_offsets, csr.column_indices, csr.edge_weights


@pytest.mark.parametrize("storage", ["memory", "mmap", "compressed"])
@pytest.mark.parametrize("notation", list(LAYOUTS))
def test_worker_csrs_equal_the_coordinators(memory_graphs, notation, storage, tmp_path):
    graph = memory_graphs[notation]
    if storage != "memory":
        graph = apply_storage(graph, storage, path=tmp_path / "store")
    store = SharedGraphStore(graph)
    cache = SegmentCache()
    try:
        _assert_graphs_match(graph, cache, store.graph_descriptor)
    finally:
        # Drop the views before the cache's attachments, so none is closed
        # while a view still points into it.
        cache.derived.clear()
        store.close()


def _assert_graphs_match(graph, cache, descriptor) -> None:
    worker, engines = graph_from_descriptor(cache, descriptor)
    assert engines == {}
    assert graph_from_descriptor(cache, descriptor)[0] is worker  # rebuilt once
    assert worker.layout == graph.layout
    assert (worker.threshold, worker.num_vertices, worker.num_directed_edges) == (
        graph.threshold, graph.num_vertices, graph.num_directed_edges
    )
    assert worker.census == graph.census
    assert worker.storage == graph.storage
    assert worker.is_weighted == graph.is_weighted
    assert worker.num_gpus == graph.num_gpus
    for name in SEPARATION_ARRAYS:
        ours, theirs = getattr(worker.separation, name), getattr(graph.separation, name)
        assert ours.dtype == theirs.dtype, name
        np.testing.assert_array_equal(ours, theirs)
    for g, part in enumerate(graph.gpus):
        mine = worker.gpus[g]
        assert (mine.flat_gpu, mine.num_local, mine.num_delegates) == (
            part.flat_gpu, part.num_local, part.num_delegates
        )
        for name in GPU_ARRAYS:
            ours, theirs = getattr(mine, name), getattr(part, name)
            assert ours.dtype == theirs.dtype, (g, name)
            np.testing.assert_array_equal(ours, theirs)
        for key in KEYS:
            ours, theirs = getattr(mine, key), getattr(part, key)
            assert type(ours) is type(theirs), (g, key)
            assert (ours.num_rows, ours.num_cols) == (theirs.num_rows, theirs.num_cols)
            assert ours.num_edges == theirs.num_edges
            assert np.dtype(ours.column_dtype) == np.dtype(theirs.column_dtype)
            ro, cols, weights = _plain(ours)
            ro_ref, cols_ref, weights_ref = _plain(theirs)
            np.testing.assert_array_equal(ro, ro_ref)
            assert cols.dtype == cols_ref.dtype
            np.testing.assert_array_equal(cols, cols_ref)
            assert (weights is None) == (weights_ref is None)
            if weights is not None:
                np.testing.assert_array_equal(weights, weights_ref)
