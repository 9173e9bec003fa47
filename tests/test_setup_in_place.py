"""The in-place set-up pipeline: one packed-key prepare, Algorithm 1 as one
comparison, and the memory each stage needs above its input.

The fused prepare (:func:`repro.graph.edgelist._unique_edge_keys`) is checked
against the step-by-step composition it replaced and against a plain-Python
set / min-weight model; the host priority of
:mod:`repro.partition.distributor` against Algorithm 1 stated edge by edge.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EdgeList, _unique_edge_keys
from repro.graph.rmat import generate_rmat, generate_rmat_edges
from repro.partition.delegates import DegreeSeparation, separate_by_degree
from repro.partition.distributor import distribute_edges
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.utils.rng import deterministic_hash_permutation

#: Vertex count whose square overflows int64: the lexsort fallback.
HUGE_N = 1 << 32


@st.composite
def edge_lists(draw, max_n=12, weighted=None):
    """Small edge lists with self loops and duplicates (weighted ones with
    different weights on the copies), including empty lists and n = 1."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    if weighted is None:
        weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=len(pairs),
                     max_size=len(pairs))
        )
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return EdgeList(src, dst, n, weights=weights)


def _stepwise(edges: EdgeList) -> EdgeList:
    """The preparation as it was stated before it was fused."""
    return edges.without_self_loops().symmetrized().deduplicated()


def _model(edges: EdgeList) -> dict:
    """Plain-Python prepared graph: ``{(u, v): min weight}`` over both directions."""
    out: dict = {}
    weights = edges.weights if edges.weights is not None else np.zeros(edges.num_edges)
    for u, v, w in zip(edges.src.tolist(), edges.dst.tolist(), weights.tolist()):
        if u == v:
            continue
        for key in ((u, v), (v, u)):
            out[key] = min(out.get(key, np.inf), w)
    return out


def _assert_same(a: EdgeList, b: EdgeList) -> None:
    assert a.num_vertices == b.num_vertices
    for x, y in ((a.src, b.src), (a.dst, b.dst)):
        assert x.dtype == y.dtype == np.int64
        np.testing.assert_array_equal(x, y)
    assert (a.weights is None) == (b.weights is None)
    if a.weights is not None:
        assert a.weights.dtype == b.weights.dtype == np.float64
        np.testing.assert_array_equal(a.weights, b.weights)


def _huge(edges: EdgeList) -> EdgeList:
    """The same edges in a vertex universe whose square overflows int64."""
    return EdgeList(edges.src, edges.dst, HUGE_N, weights=edges.weights)


class TestFusedPrepare:
    @given(edges=edge_lists())
    @example(edges=EdgeList([], [], 3))
    @example(edges=EdgeList([], [], 3, weights=[]))
    @example(edges=EdgeList([0, 0], [0, 0], 1))
    @example(edges=EdgeList([0, 1, 1, 0], [1, 0, 0, 1], 2, weights=[3.0, 1.0, 2.0, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_prepare_equals_stepwise_and_model(self, edges):
        fused = edges.prepared(hash_seed=None)
        _assert_same(fused, _stepwise(edges))
        model = _model(edges)
        pairs = list(zip(fused.src.tolist(), fused.dst.tolist()))
        assert pairs == sorted(model)
        if edges.weights is not None:
            assert fused.weights.tolist() == [model[p] for p in pairs]

    @given(edges=edge_lists(), hash_seed=st.sampled_from([1, 7]))
    @settings(max_examples=60, deadline=None)
    def test_hashed_prepare_relabels_after_dedup(self, edges, hash_seed):
        perm = deterministic_hash_permutation(edges.num_vertices, seed=hash_seed)
        _assert_same(edges.prepared(hash_seed=hash_seed), _stepwise(edges).relabeled(perm))

    @given(edges=edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_deduplicated_keeps_loops_and_min_weight(self, edges):
        got = edges.deduplicated()
        out: dict = {}
        weights = edges.weights if edges.weights is not None else np.zeros(edges.num_edges)
        for u, v, w in zip(edges.src.tolist(), edges.dst.tolist(), weights.tolist()):
            out[(u, v)] = min(out.get((u, v), np.inf), w)
        assert list(zip(got.src.tolist(), got.dst.tolist())) == sorted(out)
        if edges.weights is not None:
            assert got.weights.tolist() == [out[p] for p in sorted(out)]

    @given(edges=edge_lists())
    @example(edges=EdgeList([5, 5, 2], [5, 2, 5], 6, weights=[1.0, 2.0, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_overflow_fallback_matches_packed_path(self, edges):
        fused = _huge(edges).prepared(hash_seed=None)
        packed = edges.prepared(hash_seed=None)
        _assert_same(fused, EdgeList(packed.src, packed.dst, HUGE_N, weights=packed.weights))
        _assert_same(_huge(edges).deduplicated(), _huge(edges.deduplicated()))

    @given(scale=st.integers(0, 7), hash_seed=st.sampled_from([None, 1]),
           symmetrize=st.booleans(), weighted=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_generate_rmat_hashes_first(self, scale, hash_seed, symmetrize, weighted):
        weights_seed = 3 if weighted else None
        raw = generate_rmat_edges(scale, rng=4, weights_seed=weights_seed)
        if hash_seed is not None:
            raw = raw.relabeled(deterministic_hash_permutation(raw.num_vertices, seed=hash_seed))
        expected = raw.without_self_loops()
        expected = (expected.symmetrized() if symmetrize else expected).deduplicated()
        got = generate_rmat(scale, rng=4, hash_seed=hash_seed, symmetrize=symmetrize,
                            weights_seed=weights_seed)
        _assert_same(got, expected)

    @given(edges=edge_lists(weighted=False), hash_seed=st.sampled_from([None, 1]))
    @settings(max_examples=60, deadline=None)
    def test_ingest_keys_are_the_prepared_graph(self, edges, hash_seed):
        """The out-of-core ingest's keys decode to the in-memory preparation."""
        n = edges.num_vertices
        perm = None if hash_seed is None else deterministic_hash_permutation(n, seed=hash_seed)
        keys, weights = _unique_edge_keys(edges.src, edges.dst, n, perm=perm)
        assert weights is None
        expected = _stepwise(edges if perm is None else edges.relabeled(perm))
        np.testing.assert_array_equal(keys // n, expected.src)
        np.testing.assert_array_equal(keys % n, expected.dst)


def _algorithm1(src, dst, degrees, is_delegate, flat_gpu_of):
    """Algorithm 1 verbatim, one edge at a time: ``(owner, category)`` lists."""
    owners, categories = [], []
    for u, v in zip(src.tolist(), dst.tolist()):
        if not is_delegate[u]:
            host = u
        elif not is_delegate[v]:
            host = v
        elif degrees[u] != degrees[v]:
            host = u if degrees[u] < degrees[v] else v
        else:
            host = min(u, v)
        owners.append(int(flat_gpu_of(host)))
        categories.append(2 * int(is_delegate[u]) + int(is_delegate[v]))
    return owners, categories


class TestHostPriority:
    @given(
        n=st.integers(1, 24),
        prank=st.integers(1, 3),
        pgpu=st.integers(1, 3),
        threshold=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_priority_rule_is_algorithm1(self, n, prank, pgpu, threshold, data):
        """Degrees are drawn from 0-5 independently of the edges, so delegate
        pairs tie on degree often; self loops and duplicates are kept."""
        degrees = np.asarray(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50)
        )
        src = np.asarray([p[0] for p in pairs], dtype=np.int64)
        dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
        is_delegate = degrees > threshold
        delegates = np.flatnonzero(is_delegate).astype(np.int64)
        delegate_id_of = np.full(n, -1, dtype=np.int64)
        delegate_id_of[delegates] = np.arange(delegates.size)
        separation = DegreeSeparation(threshold, degrees.astype(np.int64), is_delegate,
                                      delegates, delegate_id_of)
        layout = ClusterLayout(prank, pgpu)
        assignment = distribute_edges(EdgeList(src, dst, n), separation, layout)
        owners, categories = _algorithm1(src, dst, degrees, is_delegate, layout.flat_gpu_of)
        assert assignment.owner.dtype == np.int64 and assignment.category.dtype == np.int8
        assert assignment.owner.tolist() == owners
        assert assignment.category.tolist() == categories


def _peak_above_input_mib(fn, *args, **kwargs) -> float:
    """tracemalloc high-water of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 2**20


class TestSetupMemory:
    """Peak memory above input of each set-up stage at scale 14 (262,144 raw
    edges, 425,978 prepared), host-independent because tracemalloc counts
    NumPy's allocations exactly.

    Before the stages worked in place the peaks were: generate_rmat_edges
    +12.90 MiB, prepared() +24.99, distribute_edges +14.75 and
    build_partitions +14.75.  Each bound is the in-place value (7.27, 8.00,
    4.35 and 11.65) with about 20 % slack.
    """

    @pytest.fixture(scope="class")
    def prepared(self):
        edges = generate_rmat_edges(14, rng=3).prepared()
        layout = ClusterLayout.from_notation("2x2x2")
        return edges, separate_by_degree(edges, 16), layout

    def test_generate(self):
        assert _peak_above_input_mib(generate_rmat_edges, 14, rng=3) < 8.7

    def test_prepare(self):
        raw = generate_rmat_edges(14, rng=3)
        assert _peak_above_input_mib(raw.prepared) < 9.6

    def test_distribute(self, prepared):
        assert _peak_above_input_mib(distribute_edges, *prepared) < 5.2

    def test_build(self, prepared):
        edges, separation, layout = prepared
        peak = _peak_above_input_mib(build_partitions, edges, layout, 16, separation)
        assert peak < 14.0
