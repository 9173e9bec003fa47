"""Tests for degree separation, the edge census and threshold suggestion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList
from repro.partition.delegates import (
    census_for_thresholds,
    separate_by_degree,
    suggest_threshold,
    threshold_candidates,
)


class TestSeparation:
    def test_star_hub_is_delegate(self, star_graph):
        sep = separate_by_degree(star_graph, threshold=5)
        deg = out_degrees(star_graph)
        hub = int(np.argmax(deg))
        assert sep.is_delegate[hub]
        assert sep.num_delegates == 1
        assert sep.delegate_id_of[hub] == 0

    def test_threshold_is_strict_greater_than(self):
        # Hub of a 40-leaf symmetric star has degree 40.
        star = EdgeList(np.zeros(40, dtype=np.int64), np.arange(1, 41), 41).prepared(hash_seed=None)
        assert separate_by_degree(star, threshold=40).num_delegates == 0
        assert separate_by_degree(star, threshold=39).num_delegates == 1

    def test_delegate_ids_are_dense_and_ordered(self, rmat_small):
        sep = separate_by_degree(rmat_small, threshold=16)
        assert sep.num_delegates > 0
        np.testing.assert_array_equal(
            sep.delegate_id_of[sep.delegate_vertices], np.arange(sep.num_delegates)
        )
        # Delegate vertices are listed in ascending vertex order (Fig. 2).
        assert np.all(np.diff(sep.delegate_vertices) > 0)

    def test_zero_threshold_makes_every_nonisolated_vertex_a_delegate(self, rmat_small):
        sep = separate_by_degree(rmat_small, threshold=0)
        deg = out_degrees(rmat_small)
        assert sep.num_delegates == int(np.count_nonzero(deg > 0))

    def test_huge_threshold_gives_no_delegates(self, rmat_small):
        sep = separate_by_degree(rmat_small, threshold=10**9)
        assert sep.num_delegates == 0

    def test_negative_threshold_rejected(self, rmat_small):
        with pytest.raises(ValueError):
            separate_by_degree(rmat_small, threshold=-1)


class TestCensus:
    def test_census_percentages_sum_to_100(self, rmat_small):
        for census in census_for_thresholds(rmat_small, [1, 8, 64, 512]):
            total = (
                census.nn_percentage + census.nd_dn_percentage + census.dd_percentage
            )
            assert total == pytest.approx(100.0, abs=1e-9)
            assert census.nn_edges + census.nd_edges + census.dn_edges + census.dd_edges == rmat_small.num_edges

    def test_census_is_monotone_in_threshold(self, rmat_small):
        """Raising TH moves edges from dd toward nn (Fig. 5's crossing curves)."""
        censuses = census_for_thresholds(rmat_small, [1, 4, 16, 64, 256, 4096])
        nn = [c.nn_percentage for c in censuses]
        dd = [c.dd_percentage for c in censuses]
        delegates = [c.delegate_percentage for c in censuses]
        assert all(a <= b + 1e-12 for a, b in zip(nn, nn[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(dd, dd[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(delegates, delegates[1:]))

    def test_census_extremes(self, rmat_small):
        everything_delegate = census_for_thresholds(rmat_small, [0])[0]
        assert everything_delegate.dd_percentage == pytest.approx(100.0)
        nothing_delegate = census_for_thresholds(rmat_small, [10**9])[0]
        assert nothing_delegate.nn_percentage == pytest.approx(100.0)

    def test_symmetric_graph_has_nd_equal_dn(self, rmat_small):
        census = census_for_thresholds(rmat_small, [32])[0]
        assert census.nd_edges == census.dn_edges

    def test_as_dict_keys(self, rmat_small):
        d = census_for_thresholds(rmat_small, [8])[0].as_dict()
        assert {"threshold", "delegates_pct", "nn_pct", "dd_pct"} <= set(d)


class TestThresholdSuggestion:
    def test_candidates_are_powers_of_two(self):
        cands = threshold_candidates(100)
        assert np.all(cands == np.sort(cands))
        assert all((int(c) & (int(c) - 1)) == 0 for c in cands)
        assert cands.max() >= 100

    def test_suggestion_satisfies_paper_constraints(self, rmat_small):
        p = 4
        th = suggest_threshold(rmat_small, num_gpus=p)
        sep = separate_by_degree(rmat_small, th)
        census = census_for_thresholds(rmat_small, [th])[0]
        assert sep.num_delegates <= 4 * rmat_small.num_vertices / p
        assert census.nn_percentage <= 10.0 + 1e-9

    def test_suggestion_grows_with_gpu_count(self, rmat_medium):
        """More GPUs -> smaller delegate budget -> the threshold cannot shrink."""
        th_small = suggest_threshold(rmat_medium, num_gpus=2)
        th_large = suggest_threshold(rmat_medium, num_gpus=64)
        assert th_large >= th_small

    def test_explicit_candidates_respected(self, rmat_small):
        th = suggest_threshold(rmat_small, num_gpus=4, candidates=[48, 96])
        assert th in (48, 96)

    def test_invalid_inputs(self, rmat_small):
        with pytest.raises(ValueError):
            suggest_threshold(rmat_small, num_gpus=0)
        with pytest.raises(ValueError):
            suggest_threshold(rmat_small, num_gpus=4, candidates=[])
