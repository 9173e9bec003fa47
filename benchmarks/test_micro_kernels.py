"""Micro-benchmarks of the traversal kernels and partitioning primitives.

These are not paper figures; they time the hot building blocks of the
reproduction itself (frontier gather, backward pull, edge distribution and
delegate-mask reduction) so that performance regressions in the simulation
are caught.  They use pytest-benchmark's statistical timing (multiple rounds)
because the operations are microseconds-to-milliseconds long.
"""

from __future__ import annotations

import numpy as np
from conftest import high_degree_source

from repro.cluster.comm import Communicator
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.core.kernels import backward_visit, forward_visit
from repro.graph.csr import CSRGraph
from repro.graph.rmat import generate_rmat
from repro.partition.delegates import separate_by_degree
from repro.partition.distributor import distribute_edges
from repro.partition.layout import ClusterLayout
from repro.utils.bitmask import Bitmask


def test_micro_forward_visit(benchmark, rmat_bench_graphs):
    edges = rmat_bench_graphs(14)
    csr = CSRGraph.from_edgelist(edges)
    rng = np.random.default_rng(3)
    frontier = rng.integers(0, csr.num_rows, size=4096).astype(np.int64)
    out = benchmark(forward_visit, csr, frontier)
    assert out.edges_examined == csr.frontier_workload(frontier)


def _scalar_backward_visit(csr, candidates, in_frontier):
    """The serial early-exit scan the vectorized pull must reproduce."""
    discovered, sources, examined = [], [], 0
    for candidate in candidates.tolist():
        for parent in csr.neighbors(candidate).tolist():
            examined += 1
            if in_frontier[parent]:
                discovered.append(candidate)
                sources.append(parent)
                break
    return discovered, sources, examined


def _pull_and_compare(benchmark, edges, hubs_in_frontier):
    csr = CSRGraph.from_edgelist(edges)
    rng = np.random.default_rng(4)
    frontier_flags = np.zeros(csr.num_rows, dtype=bool)
    frontier_flags[rng.integers(0, csr.num_rows, size=2048)] = True
    frontier_flags[:hubs_in_frontier] = True
    candidates = np.flatnonzero(~frontier_flags)
    out = benchmark(backward_visit, csr, candidates, frontier_flags)
    discovered, sources, examined = _scalar_backward_visit(csr, candidates, frontier_flags)
    assert out.backward
    assert out.edges_examined == examined > 0
    np.testing.assert_array_equal(out.discovered, discovered)
    np.testing.assert_array_equal(out.sources, sources)
    benchmark.extra_info["edges_held"] = csr.frontier_workload(candidates)
    benchmark.extra_info["edges_examined"] = examined


def test_micro_backward_visit(benchmark, rmat_bench_graphs):
    """Hashed ids: a frontier parent sits anywhere in a sorted parent list."""
    _pull_and_compare(benchmark, rmat_bench_graphs(14), hubs_in_frontier=0)


def test_micro_backward_visit_hub_first(benchmark):
    """The generator's own ids (the Graph500 workload's): the hubs are the
    lowest ids and head every sorted parent list, so with them in the
    frontier most candidates exit at their first parent."""
    _pull_and_compare(benchmark, generate_rmat(14, rng=11, hash_seed=None), hubs_in_frontier=64)


def test_micro_edge_distributor(benchmark, rmat_bench_graphs):
    edges = rmat_bench_graphs(14)
    layout = ClusterLayout(num_ranks=8, gpus_per_rank=2)
    separation = separate_by_degree(edges, 64)
    assignment = benchmark(distribute_edges, edges, separation, layout)
    assert assignment.owner.size == edges.num_edges


def test_micro_delegate_mask_reduce(benchmark):
    layout = ClusterLayout(num_ranks=8, gpus_per_rank=2)
    topology = ClusterTopology(layout)
    rng = np.random.default_rng(5)
    masks = [
        Bitmask.from_indices(1 << 16, rng.integers(0, 1 << 16, size=2048))
        for _ in range(layout.num_gpus)
    ]

    def reduce_once():
        comm = Communicator(topology, NetworkModel())
        return comm.allreduce(masks)

    result = benchmark(reduce_once)
    assert result.merged.count() > 0


def test_micro_normal_exchange(benchmark):
    layout = ClusterLayout(num_ranks=4, gpus_per_rank=2)
    topology = ClusterTopology(layout)
    rng = np.random.default_rng(6)
    outboxes = [rng.integers(0, 1 << 18, size=8192).astype(np.int64) for _ in range(8)]

    def exchange_once():
        comm = Communicator(topology, NetworkModel())
        return comm.exchange(outboxes, local_all2all=True, uniquify=True)

    result = benchmark(exchange_once)
    assert sum(box.size for box in result.inboxes) > 0
