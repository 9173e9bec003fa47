"""Tests for the Graph500 RMAT generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.degree import out_degrees
from repro.graph.rmat import (
    RMATParameters,
    generate_rmat,
    generate_rmat_edges,
)


class TestParameters:
    def test_defaults_are_graph500(self):
        p = RMATParameters()
        assert (p.a, p.b, p.c, p.d) == (0.57, 0.19, 0.19, 0.05)
        assert p.edge_factor == 16

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RMATParameters(a=0.5, b=0.1, c=0.1, d=0.1)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            RMATParameters(a=1.2, b=-0.1, c=-0.05, d=-0.05)

    def test_edge_factor_positive(self):
        with pytest.raises(ValueError):
            RMATParameters(edge_factor=0)


class TestRawGeneration:
    def test_counts_follow_graph500(self):
        edges = generate_rmat_edges(8, rng=1)
        assert edges.num_vertices == 256
        assert edges.num_edges == 256 * 16

    def test_scale_zero(self):
        edges = generate_rmat_edges(0, rng=1)
        assert edges.num_vertices == 1
        assert np.all(edges.src == 0) and np.all(edges.dst == 0)

    def test_num_edges_override(self):
        edges = generate_rmat_edges(6, rng=1, num_edges=100)
        assert edges.num_edges == 100

    def test_deterministic_for_same_seed(self):
        a = generate_rmat_edges(9, rng=5)
        b = generate_rmat_edges(9, rng=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = generate_rmat_edges(9, rng=5)
        b = generate_rmat_edges(9, rng=6)
        assert not np.array_equal(a.src, b.src)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_rmat_edges(-1)
        with pytest.raises(ValueError):
            generate_rmat_edges(60)

    def test_skew_toward_low_ids_before_hashing(self):
        # With A=0.57 the recursion biases both endpoints toward low vertex
        # ids; the first quarter of the id space should host well over a
        # quarter of the edge endpoints.
        edges = generate_rmat_edges(10, rng=3)
        frac = np.mean(edges.src < edges.num_vertices // 4)
        assert frac > 0.4


class TestPreparedGeneration:
    def test_prepared_graph_is_symmetric_and_clean(self):
        edges = generate_rmat(10, rng=2)
        assert edges.is_symmetric()
        assert np.all(edges.src != edges.dst)
        pairs = {(int(s), int(d)) for s, d in zip(edges.src, edges.dst)}
        assert len(pairs) == edges.num_edges

    def test_prepared_is_deterministic(self):
        a = generate_rmat(10, rng=4)
        b = generate_rmat(10, rng=4)
        np.testing.assert_array_equal(a.src, b.src)

    def test_hashing_changes_layout_but_not_degree_distribution(self):
        hashed = generate_rmat(10, rng=4, hash_seed=1)
        plain = generate_rmat(10, rng=4, hash_seed=None)
        assert not np.array_equal(hashed.src, plain.src)
        np.testing.assert_array_equal(
            np.sort(out_degrees(hashed)), np.sort(out_degrees(plain))
        )

    def test_power_law_like_degree_distribution(self):
        degrees = np.sort(out_degrees(generate_rmat(12, rng=1)))[::-1]
        # Heavy-tailed: the max degree vastly exceeds the mean, and the top
        # tenth of the vertices holds most of the edges.
        assert degrees[0] > 20 * degrees.mean()
        assert degrees[: degrees.size // 10].sum() > 0.5 * degrees.sum()

    def test_unsymmetrized_option(self):
        edges = generate_rmat(9, rng=1, symmetrize=False)
        assert not edges.is_symmetric()
