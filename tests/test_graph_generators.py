"""Tests for the synthetic graph generators (dataset substitutes and toys)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.degree import degree_summary, out_degrees
from repro.graph.generators import (
    binary_tree_edges,
    clique_edges,
    cycle_edges,
    friendster_like,
    grid_edges,
    path_edges,
    power_law_configuration,
    random_bipartite,
    star_edges,
    uniform_random_graph,
    wdc_like,
)
from repro.graph.properties import analyze_graph, bfs_depth_estimate


class TestDeterministicGenerators:
    def test_path(self):
        e = path_edges(5)
        assert e.num_vertices == 5 and e.num_edges == 4
        np.testing.assert_array_equal(e.src, [0, 1, 2, 3])

    def test_cycle(self):
        e = cycle_edges(4)
        assert e.num_edges == 4
        assert (e.src[-1], e.dst[-1]) == (3, 0)

    def test_star_hub_degree(self):
        e = star_edges(10)
        deg = out_degrees(e)
        assert deg[0] == 10
        assert deg[1:].sum() == 0

    def test_grid_edge_count(self):
        e = grid_edges(3, 4)
        # 3*3 horizontal + 2*4 vertical = 9 + 8
        assert e.num_edges == 17
        assert e.num_vertices == 12

    def test_clique(self):
        e = clique_edges(5)
        assert e.num_edges == 20
        assert np.all(e.src != e.dst)

    def test_binary_tree(self):
        e = binary_tree_edges(3)
        assert e.num_vertices == 15
        assert e.num_edges == 14

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            path_edges(0)
        with pytest.raises(ValueError):
            grid_edges(0, 3)
        with pytest.raises(ValueError):
            clique_edges(0)
        with pytest.raises(ValueError):
            binary_tree_edges(-1)
        with pytest.raises(ValueError):
            star_edges(-1)


class TestRandomGenerators:
    def test_uniform_random_graph_shape(self):
        e = uniform_random_graph(100, 500, rng=1)
        assert e.num_vertices == 100 and e.num_edges == 500

    def test_uniform_random_deterministic(self):
        a = uniform_random_graph(50, 100, rng=3)
        b = uniform_random_graph(50, 100, rng=3)
        np.testing.assert_array_equal(a.src, b.src)

    def test_bipartite_edges_cross_sides(self):
        e = random_bipartite(10, 20, 200, rng=1)
        assert e.num_vertices == 30
        assert e.src.max() < 10
        assert e.dst.min() >= 10

    def test_bipartite_rejects_empty_side(self):
        with pytest.raises(ValueError):
            random_bipartite(0, 5, 10)

    def test_power_law_heavy_tail(self):
        e = power_law_configuration(4000, mean_degree=10.0, rng=2)
        summary = degree_summary(e)
        assert summary.max_degree > 5 * summary.mean_degree
        assert 4 < summary.mean_degree < 25

    def test_power_law_invalid_args(self):
        with pytest.raises(ValueError):
            power_law_configuration(1, 4.0)
        with pytest.raises(ValueError):
            power_law_configuration(10, -1.0)


class TestDatasetSubstitutes:
    def test_friendster_like_has_isolated_half(self):
        e = friendster_like(num_vertices=4096, rng=1)
        deg = out_degrees(e.prepared())
        isolated_fraction = np.count_nonzero(deg == 0) / e.num_vertices
        assert 0.3 < isolated_fraction < 0.7

    def test_friendster_like_is_skewed(self):
        e = friendster_like(num_vertices=4096, rng=1)
        assert degree_summary(e).gini > 0.5

    def test_friendster_invalid_isolated_fraction(self):
        with pytest.raises(ValueError):
            friendster_like(num_vertices=100, isolated_fraction=1.5)

    def test_wdc_like_has_long_tail(self):
        # The WDC substitute must have a much larger BFS depth than an RMAT
        # graph of comparable size — that is the property §VI-D relies on.
        pytest.importorskip("scipy")
        wdc = wdc_like(num_vertices=4096, rng=3).prepared()
        depth = bfs_depth_estimate(wdc)
        assert depth > 30

    def test_wdc_like_deterministic(self):
        a = wdc_like(num_vertices=1024, rng=7)
        b = wdc_like(num_vertices=1024, rng=7)
        np.testing.assert_array_equal(a.src, b.src)

    def test_wdc_invalid_fractions(self):
        with pytest.raises(ValueError):
            wdc_like(num_vertices=100, isolated_fraction=-0.1)
        with pytest.raises(ValueError):
            wdc_like(num_vertices=100, chain_fraction=1.0)

    def test_analyze_graph_reports_isolated_and_components(self):
        pytest.importorskip("scipy")
        e = friendster_like(num_vertices=2048, rng=5).prepared()
        props = analyze_graph(e)
        assert props.num_vertices == 2048
        assert props.num_isolated > 0
        assert props.num_components >= 1
        assert props.largest_component_size <= 2048
