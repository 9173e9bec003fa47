"""Tests for the frontier-program API: parents, components, k-hop, custom programs."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.serial_bfs import serial_bfs
from repro.baselines.union_find import serial_components, union_find_components
from repro.core.engine import DistributedBFS, TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import (
    PROGRAM_TABLE,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    FrontierProgram,
    KHopReachability,
    make_program,
)
from repro.core.programs.table import REQUIRED, batched_factory, dedup_key
from repro.core.results import (
    BFSResult,
    ComponentsResult,
    ParentTreeResult,
    ReachabilityResult,
)
from repro.graph.csr import CSRGraph
from repro.graph.degree import out_degrees
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.validate.graph500 import validate_parent_tree


def assert_valid_parent_tree(edges, source, parents, reference):
    """Property check: the parent array is a valid BFS tree.

    * the source parents itself, unreached vertices hold -1;
    * tree membership matches the reference reachable set;
    * every tree edge exists in the graph;
    * every parent sits exactly one level closer than its child.
    """
    validate_parent_tree(edges, source, parents, reference).raise_if_invalid()


class TestBFSLevelsEquivalence:
    """The acceptance bar: the generic engine reproduces the seed BFS exactly."""

    def test_identical_to_wrapper_across_sources(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        wrapper = DistributedBFS(graph)
        for source in [0, 7, 1234]:
            generic = engine.run(BFSLevels(source=source))
            wrapped = wrapper.run(source)
            np.testing.assert_array_equal(generic.distances, wrapped.distances)
            assert generic.iterations == wrapped.iterations
            assert generic.timing.elapsed_ms == wrapped.timing.elapsed_ms
            assert generic.timing.computation == wrapped.timing.computation
            assert (
                generic.timing.remote_delegate_reduce
                == wrapped.timing.remote_delegate_reduce
            )
            assert generic.total_edges_examined == wrapped.total_edges_examined

    def test_levels_result_type_and_algorithm(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(BFSLevels(source=0))
        assert isinstance(result, BFSResult)
        assert result.algorithm == "bfs"
        assert result.summary()["algorithm"] == "bfs"

    def test_out_of_range_source_rejected(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        with pytest.raises(ValueError):
            engine.run(BFSLevels(source=rmat_small.num_vertices))
        with pytest.raises(ValueError):
            engine.run(BFSParents(source=-1))


class TestBFSParents:
    @pytest.mark.parametrize("threshold", [4, 32, 10**9])
    @pytest.mark.parametrize("do", [True, False])
    def test_valid_tree_across_configurations(self, rmat_small, any_layout, threshold, do):
        graph = build_partitions(rmat_small, any_layout, threshold)
        engine = TraversalEngine(graph, options=BFSOptions(direction_optimized=do))
        csr = CSRGraph.from_edgelist(rmat_small)
        for source in [0, 7, 1234]:
            result = engine.run(BFSParents(source=source))
            assert isinstance(result, ParentTreeResult)
            reference = serial_bfs(csr, source)
            assert_valid_parent_tree(rmat_small, source, result.parents, reference)

    def test_property_random_rmat_graphs(self, small_layout):
        """Property sweep: random graphs, random sources, DO on (pull paths hot)."""
        rng = np.random.default_rng(5)
        for scale, seed in [(9, 3), (10, 4), (11, 5)]:
            edges = generate_rmat(scale, rng=seed)
            graph = build_partitions(edges, small_layout, 16)
            engine = TraversalEngine(graph)
            csr = CSRGraph.from_edgelist(edges)
            degrees = out_degrees(edges)
            candidates = np.flatnonzero(degrees > 0)
            for source in rng.choice(candidates, size=3, replace=False):
                source = int(source)
                result = engine.run(BFSParents(source=source))
                reference = serial_bfs(csr, source)
                assert_valid_parent_tree(edges, source, result.parents, reference)
                # Parent distance = child distance - 1, checked directly too.
                children = np.flatnonzero(result.parents >= 0)
                children = children[children != source]
                parents = result.parents[children]
                np.testing.assert_array_equal(
                    reference[parents], reference[children] - 1
                )

    def test_delegate_source(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        source = int(graph.delegate_vertices[0])
        result = TraversalEngine(graph).run(BFSParents(source=source))
        reference = serial_bfs(CSRGraph.from_edgelist(rmat_small), source)
        assert_valid_parent_tree(rmat_small, source, result.parents, reference)

    def test_exchange_optimizations_preserve_validity(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(
            graph,
            options=BFSOptions(local_all2all=True, uniquify=True, blocking_reduce=False),
        )
        reference = serial_bfs(CSRGraph.from_edgelist(rmat_small), 3)
        result = engine.run(BFSParents(source=3))
        assert_valid_parent_tree(rmat_small, 3, result.parents, reference)

    def test_parents_visit_same_set_as_levels(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        levels = engine.run(BFSLevels(source=3))
        parents = engine.run(BFSParents(source=3))
        np.testing.assert_array_equal(parents.parents >= 0, levels.distances >= 0)
        assert parents.num_visited == levels.num_visited

    def test_parent_payloads_are_charged(self, rmat_small, small_layout):
        """The parent exchange ships real bytes the level exchange does not."""
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        levels = engine.run(BFSLevels(source=3))
        parents = engine.run(BFSParents(source=3))
        assert parents.comm_stats.normal_payload_bytes > 0
        assert levels.comm_stats.normal_payload_bytes == 0
        assert parents.comm_stats.delegate_value_bytes > 0
        assert levels.comm_stats.delegate_value_bytes == 0

    def test_tree_edges_helper(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(BFSParents(source=3))
        tree = result.tree_edges()
        assert tree.shape == (result.num_visited - 1, 2)
        np.testing.assert_array_equal(tree[:, 0], result.parents[tree[:, 1]])


class TestConnectedComponents:
    @pytest.mark.parametrize("threshold", [4, 32, 10**9])
    def test_labels_match_union_find_oracle(self, rmat_small, any_layout, threshold):
        graph = build_partitions(rmat_small, any_layout, threshold)
        result = TraversalEngine(graph).run(ConnectedComponents())
        assert isinstance(result, ComponentsResult)
        np.testing.assert_array_equal(result.labels, serial_components(rmat_small))

    def test_property_random_rmat_graphs(self, small_layout):
        for scale, seed in [(9, 13), (10, 14), (11, 15)]:
            edges = generate_rmat(scale, rng=seed)
            graph = build_partitions(edges, small_layout, 16)
            result = TraversalEngine(graph).run(ConnectedComponents())
            np.testing.assert_array_equal(result.labels, serial_components(edges))

    def test_isolated_vertices_label_themselves(self, rmat_small, small_layout):
        degrees = out_degrees(rmat_small)
        isolated = np.flatnonzero(degrees == 0)
        if isolated.size == 0:
            pytest.skip("fixture graph has no isolated vertices")
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(ConnectedComponents())
        np.testing.assert_array_equal(result.labels[isolated], isolated)

    def test_path_graph_single_component(self, path_graph):
        graph = build_partitions(path_graph, ClusterLayout(2, 2), 4)
        result = TraversalEngine(graph).run(ConnectedComponents())
        assert result.num_components == 1
        assert np.all(result.labels == 0)
        # Label propagation needs ~diameter iterations on a path.
        assert result.iterations >= 49

    def test_star_graph_single_component(self, star_graph):
        graph = build_partitions(star_graph, ClusterLayout(2, 2), 5)
        result = TraversalEngine(graph).run(ConnectedComponents())
        assert result.num_components == 1
        assert result.largest_component_size == star_graph.num_vertices

    def test_component_sizes_sum_to_vertices(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(ConnectedComponents())
        sizes = result.component_sizes()
        assert sum(sizes.values()) == rmat_small.num_vertices
        assert result.summary()["components"] == len(sizes)


class TestKHopReachability:
    @pytest.mark.parametrize("hops", [0, 1, 2, 4])
    def test_distances_capped_at_k(self, rmat_small, small_layout, hops):
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(KHopReachability(source=3, max_hops=hops))
        assert isinstance(result, ReachabilityResult)
        reference = serial_bfs(CSRGraph.from_edgelist(rmat_small), 3)
        expected = np.where((reference >= 0) & (reference <= hops), reference, -1)
        np.testing.assert_array_equal(result.distances, expected)
        assert result.iterations <= hops
        assert result.num_reached == int(np.count_nonzero(expected >= 0))

    def test_large_k_equals_full_bfs(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        full = engine.run(BFSLevels(source=3))
        capped = engine.run(KHopReachability(source=3, max_hops=10_000))
        np.testing.assert_array_equal(capped.distances, full.distances)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            KHopReachability(source=0, max_hops=-1)

    def test_zero_hops_summary_does_not_crash(self, rmat_small, small_layout):
        """A zero-super-step run has no elapsed time; summary must not raise."""
        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(KHopReachability(source=3, max_hops=0))
        assert result.iterations == 0
        assert result.num_reached == 1
        assert result.summary()["gteps"] == 0.0


class TestCustomProgram:
    def test_third_party_program_runs(self, rmat_small, small_layout):
        """The protocol is open: a user-defined program runs unmodified."""
        from repro.core.programs.bfs_levels import BFSLevels as _Levels
        from repro.core.results import BFSResult as _BFSResult

        class EvenLevels(_Levels):
            """Levels doubled — checks visit_value output flows through."""

            name = "even-levels"

            def visit_value(self, ctx):
                return np.full(ctx.discovered.size, 2 * ctx.level, dtype=np.int64)

            def level_value(self, level):
                return 2 * level

            def make_result(self, values, base):
                return _BFSResult(source=self.source, distances=values, **base)

        graph = build_partitions(rmat_small, small_layout, 32)
        result = TraversalEngine(graph).run(EvenLevels(source=3))
        reference = serial_bfs(CSRGraph.from_edgelist(rmat_small), 3)
        expected = np.where(reference >= 0, 2 * reference, -1)
        np.testing.assert_array_equal(result.distances, expected)

    def test_program_is_abstract(self):
        with pytest.raises(TypeError):
            FrontierProgram()


class TestUnionFindOracle:
    def test_simple_components(self):
        src = np.asarray([0, 1, 3, 4])
        dst = np.asarray([1, 2, 4, 3])
        roots = union_find_components(6, src, dst)
        assert roots[0] == roots[1] == roots[2]
        assert roots[3] == roots[4]
        assert roots[5] == 5
        assert roots[0] != roots[3]

    def test_serial_components_canonical_min_labels(self, rmat_small):
        labels = serial_components(rmat_small)
        # Every label is the smallest member of its component.
        for label in np.unique(labels):
            members = np.flatnonzero(labels == label)
            assert members.min() == label


# --------------------------------------------------------------------------- #
# The program table: one row per shipped program, every row against its oracle
# --------------------------------------------------------------------------- #
def _table_params(row) -> dict:
    """Values for the parameters a row requires (the rest keep their defaults)."""
    return {p.name: 2 for p in row.params if p.default is REQUIRED}


@pytest.fixture(scope="module")
def table_edges():
    return {seed: generate_rmat(8, rng=21, weights_seed=seed) for seed in (None, 5)}


class TestProgramTable:
    @pytest.mark.parametrize("layout", ["1x1x2", "2x1x2"])
    @pytest.mark.parametrize(
        "name,weights",
        [
            (name, seed)
            for name, row in PROGRAM_TABLE.items()
            for seed in (None, 5)
            if seed is not None or not row.cls.needs_weights
        ],
    )
    def test_every_row_matches_its_own_oracle(self, name, weights, layout, table_edges):
        row, table_edges = PROGRAM_TABLE[name], table_edges[weights]
        graph = build_partitions(table_edges, ClusterLayout.from_notation(layout), 8)
        check = row.oracle(table_edges)
        source = int(np.flatnonzero(out_degrees(table_edges) > 0)[3])
        with TraversalEngine(graph) as engine:
            program = make_program(name, source, **_table_params(row))
            assert type(program) is row.cls
            assert isinstance(check(program, engine.run(program)), str)

    def test_every_exported_program_has_exactly_one_row(self):
        import repro.core.programs as core_programs
        import repro.weighted as weighted

        exported = {
            obj
            for module in (core_programs, weighted)
            for obj in (getattr(module, name) for name in module.__all__)
            if isinstance(obj, type)
            and obj is not FrontierProgram
            and (issubclass(obj, FrontierProgram) or hasattr(obj, "drive"))
        }
        assert exported == {row.cls for row in PROGRAM_TABLE.values()}
        assert len(PROGRAM_TABLE) == len(exported)  # no class under two names

    def test_serve_and_bench_names_derive_from_the_table(self):
        from repro.bench.scenarios import PROGRAMS, SOURCE_FREE, STREAM_KINDS
        from repro.serve.workload import QUERY_PROGRAMS

        assert set(QUERY_PROGRAMS) <= set(PROGRAM_TABLE)
        assert set(PROGRAMS) - set(STREAM_KINDS) <= set(PROGRAM_TABLE)
        assert set(SOURCE_FREE) == {n for n, r in PROGRAM_TABLE.items() if not r.takes_source}

    @pytest.mark.parametrize(
        "name", [name for name, row in PROGRAM_TABLE.items() if row.batched]
    )
    def test_batched_equivalent_matches_sequential_lanes(self, name, rmat_small, small_layout):
        row = PROGRAM_TABLE[name]
        graph = build_partitions(rmat_small, small_layout, 32)
        sources = [0, 7, 1234]
        programs = [make_program(name, s, **_table_params(row)) for s in sources]
        engine = TraversalEngine(graph)
        batch = engine.run_batch(batched_factory(programs)(sources))
        for lane, program in zip(batch.per_source_results(), programs):
            np.testing.assert_array_equal(lane.distances, engine.run(program).distances)

    def test_make_program_rejects_stray_missing_and_unknown(self):
        with pytest.raises(ValueError, match="unknown program"):
            make_program("dijkstra", 0)
        with pytest.raises(ValueError, match="delta"):
            make_program("levels", 0, delta=0.5)
        with pytest.raises(ValueError, match="max_hops"):
            make_program("khop", 0)
        with pytest.raises(ValueError, match="source"):
            make_program("levels")

    def test_subclasses_opt_out_of_dedup_and_batching(self):
        class Custom(BFSLevels):
            pass

        assert dedup_key(BFSLevels(3)) == dedup_key(BFSLevels(3)) != dedup_key(BFSLevels(4))
        assert dedup_key(Custom(3)) is None
        assert batched_factory([Custom(1), Custom(2)]) is None
        assert batched_factory([BFSLevels(1), KHopReachability(2, 2)]) is None
        assert batched_factory([KHopReachability(1, 1), KHopReachability(2, 2)]) is None


# --------------------------------------------------------------------------- #
# merge_remote: strictly increasing ids are returned as they are
# --------------------------------------------------------------------------- #
def _sort_based_merge_remote(combine, identity, ids, values):
    """``FrontierProgram.merge_remote`` as it stood before the strictly-
    increasing shortcut: always a sort, an inverse and (without duplicates) a
    stable argsort.  The reference the shortcut must equal element for element."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.int64).ravel()
    if ids.size == 0:
        return ids, values
    unique, inverse = np.unique(ids, return_inverse=True)
    if unique.size == ids.size:
        return unique, values[np.argsort(ids, kind="stable")]
    merged = np.full(unique.size, identity, dtype=np.int64)
    combine.at(merged, inverse, values)
    return unique, merged


#: Every (combine, identity) a table program folds duplicate proposals with
#: (driver rows without the hook fold nothing through it).
TABLE_COMBINES = sorted(
    {
        (row.cls.combine, int(row.cls.combine_identity))
        for row in PROGRAM_TABLE.values()
        if hasattr(row.cls, "merge_remote")
    },
    key=repr,
)


class TestMergeRemote:
    @pytest.mark.parametrize(
        "combine,identity", TABLE_COMBINES, ids=[c.__name__ for c, _ in TABLE_COMBINES]
    )
    @given(
        proposals=st.lists(
            st.tuples(st.integers(0, 40), st.integers(-(2**40), 2**40)), max_size=40
        ),
        shape=st.sampled_from(["as drawn", "sorted", "sorted unique"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_sort_based_merge(self, combine, identity, proposals, shape):
        if shape == "sorted":
            proposals = sorted(proposals)
        elif shape == "sorted unique":
            proposals = sorted(dict(proposals).items())
        ids = np.asarray([p[0] for p in proposals], dtype=np.int64)
        values = np.asarray([p[1] for p in proposals], dtype=np.int64)
        program = SimpleNamespace(combine=combine, combine_identity=np.int64(identity))
        got_ids, got_values = FrontierProgram.merge_remote(program, ids.copy(), values.copy())
        want_ids, want_values = _sort_based_merge_remote(combine, identity, ids, values)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_values, want_values)
        assert got_ids.dtype == np.int64 and got_values.dtype == np.int64

    def test_the_table_folds_with_something(self):
        assert TABLE_COMBINES and all(callable(combine.at) for combine, _ in TABLE_COMBINES)
