"""Tests for the Table-I memory model."""

from __future__ import annotations

import pytest

from repro.graph.rmat import generate_rmat
from repro.partition.delegates import census_for_thresholds, suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.memory import analytic_memory_model, memory_usage
from repro.partition.subgraphs import build_partitions


@pytest.fixture(scope="module")
def graph_and_partition():
    edges = generate_rmat(12, rng=3)
    layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
    threshold = suggest_threshold(edges, layout.num_gpus)
    return edges, build_partitions(edges, layout, threshold)


class TestAnalyticModel:
    def test_formula_matches_table1(self, graph_and_partition):
        edges, part = graph_and_partition
        model = analytic_memory_model(part.census, part.num_gpus)
        n, m, d, p = (
            part.num_vertices,
            part.num_directed_edges,
            part.num_delegates,
            part.num_gpus,
        )
        assert model.partitioned_bytes == 8 * n + 8 * d * p + 4 * m + 4 * part.census.nn_edges
        assert model.edge_list_bytes == 16 * m
        assert model.plain_csr_bytes == 8 * n + 8 * m

    def test_invalid_gpu_count(self, graph_and_partition):
        _, part = graph_and_partition
        with pytest.raises(ValueError):
            analytic_memory_model(part.census, 0)

    def test_partitioned_is_smaller_than_edge_list(self, graph_and_partition):
        """The paper's claim: roughly one third of the 16-byte edge-list format."""
        _, part = graph_and_partition
        model = analytic_memory_model(part.census, part.num_gpus)
        assert model.vs_edge_list < 0.5
        assert model.vs_plain_csr < 0.8

    def test_ratio_degrades_gracefully_without_delegates(self):
        edges = generate_rmat(11, rng=5)
        layout = ClusterLayout(2, 2)
        part = build_partitions(edges, layout, threshold=10**9)
        model = analytic_memory_model(part.census, part.num_gpus)
        # Without separation every edge is an nn edge (8 bytes per edge).
        assert model.partitioned_bytes == 8 * part.num_vertices + 8 * part.num_directed_edges


class TestMeasuredModel:
    def test_measured_close_to_analytic(self, graph_and_partition):
        _, part = graph_and_partition
        analytic, measured = memory_usage(part)
        # The measured layout has per-GPU rounding and the +1 offset entries,
        # so allow a modest tolerance.
        assert measured.partitioned_bytes == pytest.approx(
            analytic.partitioned_bytes, rel=0.15
        )

    def test_measured_matches_numpy_buffers(self, graph_and_partition):
        _, part = graph_and_partition
        _, measured = memory_usage(part)
        assert measured.partitioned_bytes == part.total_nbytes()
        assert measured.partitioned_bytes == sum(g.nbytes() for g in part.gpus)

    def test_memory_shrinks_with_reasonable_threshold(self):
        """Sweep thresholds and confirm a mid-range TH gives the best footprint."""
        edges = generate_rmat(12, rng=3)
        p = 4
        sizes = {}
        for th in [1, 32, 10**9]:
            census = census_for_thresholds(edges, [th])[0]
            sizes[th] = analytic_memory_model(census, p).partitioned_bytes
        # TH=1 replicates too many delegates; TH=inf wastes 8 bytes per edge.
        assert sizes[32] <= sizes[1]
        assert sizes[32] <= sizes[10**9]
