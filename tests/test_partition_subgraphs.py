"""Tests for per-GPU subgraph construction and its invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList
from repro.graph.rmat import generate_rmat
from repro.partition.delegates import separate_by_degree
from repro.partition.distributor import EDGE_CATEGORIES, distribute_edges
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

from test_graph_csr import assert_csr_identical, reference_csr


@pytest.fixture(scope="module")
def partitioned(rmat_small_module, layout_module):
    return build_partitions(rmat_small_module, layout_module, threshold=32)


@pytest.fixture(scope="module")
def rmat_small_module():
    return generate_rmat(11, rng=1)


@pytest.fixture(scope="module")
def layout_module():
    return ClusterLayout(num_ranks=2, gpus_per_rank=2)


class TestEdgeConservation:
    def test_every_edge_stored_exactly_once(self, partitioned, rmat_small_module):
        assert partitioned.total_stored_edges() == rmat_small_module.num_edges

    def test_subgraph_edge_totals_match_census(self, partitioned):
        census = partitioned.census
        totals = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}
        for gpu in partitioned.gpus:
            totals["nn"] += gpu.nn.num_edges
            totals["nd"] += gpu.nd.num_edges
            totals["dn"] += gpu.dn.num_edges
            totals["dd"] += gpu.dd.num_edges
        assert totals["nn"] == census.nn_edges
        assert totals["nd"] == census.nd_edges
        assert totals["dn"] == census.dn_edges
        assert totals["dd"] == census.dd_edges

    def test_reconstructed_global_edges_match_input(self, partitioned, rmat_small_module):
        """Decoding every stored subgraph edge back to global ids recovers the input."""
        layout = partitioned.layout
        delegates = partitioned.delegate_vertices
        recovered = set()
        for gpu in partitioned.gpus:
            owned = gpu.owned_global_ids()
            # nn: local slot -> global id
            s, d = gpu.nn.gather_neighbors(np.arange(gpu.num_local))
            for u, v in zip(owned[s], np.asarray(d, dtype=np.int64)):
                recovered.add((int(u), int(v)))
            # nd: local slot -> delegate id
            s, d = gpu.nd.gather_neighbors(np.arange(gpu.num_local))
            for u, v in zip(owned[s], delegates[np.asarray(d, dtype=np.int64)]):
                recovered.add((int(u), int(v)))
            # dn: delegate id -> local slot
            if gpu.dn.num_rows:
                s, d = gpu.dn.gather_neighbors(np.arange(gpu.dn.num_rows))
                for u, v in zip(delegates[s], owned[np.asarray(d, dtype=np.int64)]):
                    recovered.add((int(u), int(v)))
            # dd: delegate id -> delegate id
            if gpu.dd.num_rows:
                s, d = gpu.dd.gather_neighbors(np.arange(gpu.dd.num_rows))
                for u, v in zip(delegates[s], delegates[np.asarray(d, dtype=np.int64)]):
                    recovered.add((int(u), int(v)))
        expected = {
            (int(u), int(v)) for u, v in zip(rmat_small_module.src, rmat_small_module.dst)
        }
        assert recovered == expected


class TestLocalStructure:
    def test_nd_and_dn_are_local_transposes(self, partitioned):
        """For a symmetric graph, nd and dn on each GPU must be each other's reverse."""
        for gpu in partitioned.gpus:
            nd_edges = set()
            s, d = gpu.nd.gather_neighbors(np.arange(gpu.num_local))
            for u, v in zip(s, np.asarray(d, dtype=np.int64)):
                nd_edges.add((int(u), int(v)))
            dn_edges = set()
            if gpu.dn.num_rows:
                s, d = gpu.dn.gather_neighbors(np.arange(gpu.dn.num_rows))
                for u, v in zip(s, np.asarray(d, dtype=np.int64)):
                    dn_edges.add((int(v), int(u)))  # reversed
            assert nd_edges == dn_edges

    def test_dd_is_locally_symmetric(self, partitioned):
        for gpu in partitioned.gpus:
            if gpu.dd.num_rows == 0:
                continue
            s, d = gpu.dd.gather_neighbors(np.arange(gpu.dd.num_rows))
            edges = {(int(u), int(v)) for u, v in zip(s, np.asarray(d, dtype=np.int64))}
            assert edges == {(v, u) for u, v in edges}

    def test_column_dtypes_follow_table1(self, partitioned):
        for gpu in partitioned.gpus:
            assert gpu.nn.column_dtype == np.int64
            assert gpu.nd.column_dtype == np.int32
            assert gpu.dn.column_dtype == np.int32
            assert gpu.dd.column_dtype == np.int32

    def test_bounded_column_ranges(self, partitioned):
        d = partitioned.num_delegates
        for gpu in partitioned.gpus:
            if gpu.nd.num_edges:
                assert gpu.nd.column_indices.max() < d
            if gpu.dn.num_edges:
                assert gpu.dn.column_indices.max() < gpu.num_local
            if gpu.dd.num_edges:
                assert gpu.dd.column_indices.max() < d

    def test_source_lists_and_masks(self, partitioned):
        for gpu in partitioned.gpus:
            np.testing.assert_array_equal(
                gpu.nd_source_list, np.flatnonzero(gpu.nd.out_degrees() > 0)
            )
            np.testing.assert_array_equal(
                gpu.dn_source_mask, gpu.dn.out_degrees() > 0
            )
            np.testing.assert_array_equal(
                gpu.dd_source_mask, gpu.dd.out_degrees() > 0
            )

    def test_local_is_normal_consistent_with_separation(self, partitioned):
        sep = partitioned.separation
        for gpu in partitioned.gpus:
            owned = gpu.owned_global_ids()
            np.testing.assert_array_equal(gpu.local_is_normal, ~sep.is_delegate[owned])


class TestEdgeCasesAndErrors:
    def test_no_delegates_configuration(self, rmat_small_module, layout_module):
        graph = build_partitions(rmat_small_module, layout_module, threshold=10**9)
        assert graph.num_delegates == 0
        for gpu in graph.gpus:
            assert gpu.nd.num_edges == 0
            assert gpu.dn.num_edges == 0
            assert gpu.dd.num_edges == 0
        assert graph.total_stored_edges() == rmat_small_module.num_edges

    def test_all_delegates_configuration(self, rmat_small_module, layout_module):
        graph = build_partitions(rmat_small_module, layout_module, threshold=0)
        assert graph.census.dd_percentage == pytest.approx(100.0)
        for gpu in graph.gpus:
            assert gpu.nn.num_edges == 0

    def test_more_gpus_than_vertices(self):
        tiny = generate_rmat(2, rng=1)
        layout = ClusterLayout(num_ranks=4, gpus_per_rank=2)
        graph = build_partitions(tiny, layout, threshold=2)
        assert graph.total_stored_edges() == tiny.num_edges

    def test_separation_threshold_mismatch_rejected(self, rmat_small_module, layout_module):
        from repro.partition.delegates import separate_by_degree

        sep = separate_by_degree(rmat_small_module, 8)
        with pytest.raises(ValueError):
            build_partitions(rmat_small_module, layout_module, threshold=16, separation=sep)

    def test_owner_and_delegate_lookup_helpers(self, partitioned):
        layout = partitioned.layout
        v = np.arange(partitioned.num_vertices)
        np.testing.assert_array_equal(
            partitioned.owner_of_vertex(v), layout.flat_gpu_of(v)
        )
        np.testing.assert_array_equal(
            partitioned.delegate_id_of_vertex(partitioned.delegate_vertices),
            np.arange(partitioned.num_delegates),
        )


class TestGroupedBuildIdentity:
    """``build_partitions`` groups edges with one sort and reads per-vertex
    tables; every array must equal the mask-per-quadrant construction."""

    @staticmethod
    def reference_quadrants(edges, layout, separation, assignment, g):
        """One GPU's four CSRs from boolean masks, per-edge ``//`` and lexsort."""
        n, d, p = edges.num_vertices, separation.num_delegates, layout.num_gpus
        num_local = layout.num_local_vertices(g, n)
        did = separation.delegate_id_of
        shapes = {"nn": (num_local, n), "nd": (num_local, d), "dn": (d, num_local), "dd": (d, d)}
        out = {}
        for key, code in EDGE_CATEGORIES.items():
            dtype = np.int64 if key == "nn" else np.int32
            if key != "nn" and d == 0:  # such subgraphs are CSRGraph.empty: no weights
                out[key] = (np.zeros(shapes[key][0] + 1, dtype=np.int64), np.zeros(0, dtype), None)
                continue
            sel = (assignment.owner == g) & (assignment.category == code)
            s, t = edges.src[sel], edges.dst[sel]
            rows = s // p if key[0] == "n" else did[s]
            cols = t if key == "nn" else (t // p if key[1] == "n" else did[t])
            weights = edges.weights[sel] if edges.weights is not None else None
            out[key] = reference_csr(rows, cols, *shapes[key], dtype, weights=weights)
        return shapes, out

    @pytest.mark.parametrize("layout_text", ["1x1x1", "2x1x2", "2x2x2"])
    @pytest.mark.parametrize("threshold", [1, 4, None])
    @pytest.mark.parametrize("weights_seed", [None, 5])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_arrays_equal_the_masked_reference(self, layout_text, threshold, weights_seed, tiny):
        if tiny:  # 4 undirected edges on 5 vertices: half of 2x2x2's GPUs own no edge
            src, dst = np.asarray([0, 1, 2, 0]), np.asarray([1, 2, 3, 2])
            weights = None if weights_seed is None else np.asarray([0.5, 0.25, 2.0, 1.0])
            edges = EdgeList(src, dst, 5, weights=weights).prepared(hash_seed=None)
        else:
            edges = generate_rmat(9, rng=3, weights_seed=weights_seed)
        layout = ClusterLayout.from_notation(layout_text)
        if threshold is None:  # above the maximum degree: no delegates at all
            threshold = int(np.bincount(edges.src, minlength=1).max()) + 1
        graph = build_partitions(edges, layout, threshold)
        separation = separate_by_degree(edges, threshold)
        assignment = distribute_edges(edges, separation, layout)
        assert (separation.num_delegates == 0) == (threshold > 4 or (tiny and threshold > 1))
        for g, gpu in enumerate(graph.gpus):
            shapes, reference = self.reference_quadrants(edges, layout, separation, assignment, g)
            for key in EDGE_CATEGORIES:
                assert_csr_identical(getattr(gpu, key), reference[key], *shapes[key])
            nd_ro, dn_ro, dd_ro = (reference[key][0] for key in ("nd", "dn", "dd"))
            for got, want in (
                (gpu.nd_source_list, np.flatnonzero(np.diff(nd_ro) > 0).astype(np.int64)),
                (gpu.dn_source_mask, np.diff(dn_ro) > 0),
                (gpu.dd_source_mask, np.diff(dd_ro) > 0),
                (
                    gpu.local_is_normal,
                    ~separation.is_delegate[layout.owned_vertices(g, edges.num_vertices)],
                ),
            ):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        if tiny and layout.num_gpus == 8:
            assert sum(gpu.num_edges == 0 for gpu in graph.gpus) >= 4
