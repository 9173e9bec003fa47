"""Tests for the synthetic graph generators (the dataset substitutes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.degree import out_degrees
from repro.graph.generators import (
    friendster_like,
    power_law_configuration,
    uniform_random_graph,
    wdc_like,
)
from repro.graph.properties import analyze_graph, bfs_depth_estimate


class TestRandomGenerators:
    def test_uniform_random_graph_shape(self):
        e = uniform_random_graph(100, 500, rng=1)
        assert e.num_vertices == 100 and e.num_edges == 500

    def test_uniform_random_deterministic(self):
        a = uniform_random_graph(50, 100, rng=3)
        b = uniform_random_graph(50, 100, rng=3)
        np.testing.assert_array_equal(a.src, b.src)

    def test_power_law_heavy_tail(self):
        degrees = out_degrees(power_law_configuration(4000, mean_degree=10.0, rng=2))
        assert degrees.max() > 5 * degrees.mean()
        assert 4 < degrees.mean() < 25

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
        degrees = np.sort(out_degrees(friendster_like(num_vertices=4096, rng=1)))[::-1]
        # The top tenth of the vertices holds most of the edges.
        assert degrees[: degrees.size // 10].sum() > 0.5 * degrees.sum()

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
