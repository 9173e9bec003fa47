"""Tests for the mutable-graph subsystem (repro.dynamic) and its integrations."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.bench import Scenario, run_scenario
from repro.cli import main
from repro.core.programs import (
    BatchedBFSLevels,
    BFSLevels,
    ConnectedComponents,
    KHopReachability,
)
from repro.dynamic import (
    DynamicEngine,
    DynamicGraph,
    EdgeDelta,
    Maintained,
    update_stream,
)
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.serve import MixedWorkload, Query, QueryService, ZipfWorkload


@pytest.fixture(scope="module")
def rmat10():
    return generate_rmat(10, rng=5)


def fresh_engine(edges, threshold=32, layout="2x1x2", **kwargs):
    return DynamicEngine(DynamicGraph(edges, layout, threshold), **kwargs)


# --------------------------------------------------------------------------- #
# EdgeDelta + update streams
# --------------------------------------------------------------------------- #
class TestEdgeDelta:
    def test_validation(self):
        with pytest.raises(ValueError, match="same length"):
            EdgeDelta(insert_src=[1, 2], insert_dst=[3])
        with pytest.raises(ValueError, match="non-negative"):
            EdgeDelta(insert_src=[-1], insert_dst=[3])
        delta = EdgeDelta.inserts([[1, 2], [3, 4]])
        assert delta.num_inserts == 2 and delta.num_deletes == 0
        assert not delta.empty
        assert EdgeDelta().empty
        assert EdgeDelta.deletes([[1, 2]]).num_deletes == 1

    def test_describe_json_stable(self):
        d = EdgeDelta.inserts([[0, 1]]).describe()
        assert json.loads(json.dumps(d)) == {"inserts": 1, "deletes": 0}


class TestUpdateStream:
    def test_deterministic(self, rmat10):
        a = update_stream(rmat10, 3, 64, style="pa", seed=7)
        b = update_stream(rmat10, 3, 64, style="pa", seed=7)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.insert_src, db.insert_src)
            np.testing.assert_array_equal(da.insert_dst, db.insert_dst)
        c = update_stream(rmat10, 3, 64, style="pa", seed=8)
        assert not np.array_equal(a[0].insert_src, c[0].insert_src)

    def test_styles_and_shapes(self, rmat10):
        for style in ("uniform", "pa"):
            stream = update_stream(rmat10, 2, 50, style=style, seed=3)
            assert len(stream) == 2
            for delta in stream:
                assert delta.num_inserts == 50
                assert np.all(delta.insert_src != delta.insert_dst)  # no loops

    def test_pa_prefers_hubs(self, rmat10):
        degrees = np.bincount(rmat10.src, minlength=rmat10.num_vertices)
        hot = np.argsort(degrees)[-32:]
        pa = np.concatenate(
            [d.insert_dst for d in update_stream(rmat10, 4, 256, style="pa", seed=2)]
        )
        uni = np.concatenate(
            [d.insert_dst for d in update_stream(rmat10, 4, 256, style="uniform", seed=2)]
        )
        assert np.isin(pa, hot).mean() > 2 * np.isin(uni, hot).mean()

    def test_delete_fraction(self, rmat10):
        stream = update_stream(rmat10, 2, 40, delete_fraction=0.5, seed=4)
        for delta in stream:
            assert delta.num_inserts == 20 and delta.num_deletes == 20

    def test_rejects_bad_args(self, rmat10):
        with pytest.raises(ValueError, match="style"):
            update_stream(rmat10, 1, 8, style="bursty")
        with pytest.raises(ValueError, match="delete_fraction"):
            update_stream(rmat10, 1, 8, delete_fraction=1.5)


# --------------------------------------------------------------------------- #
# DynamicGraph mechanics
# --------------------------------------------------------------------------- #
class TestDynamicGraph:
    def test_apply_inserts_and_versioning(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        assert dyn.version == 0 and dyn.compactions == 0
        before = dyn.num_directed_edges
        applied = dyn.apply(EdgeDelta.inserts([[1, 1000]]))
        assert applied.version == dyn.version == 1
        # Symmetrized: both directions became present.
        assert dyn.num_directed_edges == before + 2
        assert dyn.has_edge(1, 1000) and dyn.has_edge(1000, 1)
        assert dyn.overlay.num_edges == 2

    def test_duplicate_insert_and_absent_delete_are_noops(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        dyn.apply(EdgeDelta.inserts([[1, 1000]]))
        again = dyn.apply(EdgeDelta.inserts([[1, 1000], [1000, 1]]))
        assert again.num_inserts == 0 and dyn.overlay.num_edges == 2
        absent = dyn.apply(EdgeDelta.deletes([[5, 999]]))
        assert absent.num_deletes == 0
        assert dyn.version == 3  # every apply bumps, even a no-op

    def test_self_loops_dropped(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        applied = dyn.apply(EdgeDelta.inserts([[7, 7]]))
        assert applied.num_inserts == 0

    def test_out_of_range_endpoint_rejected(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        with pytest.raises(ValueError, match="out of range"):
            dyn.apply(EdgeDelta.inserts([[0, rmat10.num_vertices]]))

    def test_overlay_delete_avoids_compaction_csr_delete_forces_it(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        dyn.apply(EdgeDelta.inserts([[1, 1000]]))
        soft = dyn.apply(EdgeDelta.deletes([[1, 1000]]))
        assert not soft.compacted and dyn.overlay.num_edges == 0
        assert not dyn.has_edge(1, 1000)
        u, v = int(rmat10.src[0]), int(rmat10.dst[0])
        hard = dyn.apply(EdgeDelta.deletes([[u, v]]))
        assert hard.compacted and hard.compact_reason == "csr-delete"
        assert not dyn.has_edge(u, v) and not dyn.has_edge(v, u)
        assert dyn.compactions == 1

    def test_overlay_fraction_triggers_compaction(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32, max_overlay_fraction=0.001)
        pairs = np.stack([np.arange(1, 40), np.arange(200, 239)], axis=1)
        applied = dyn.apply(EdgeDelta.inserts(pairs))
        assert applied.compacted and applied.compact_reason == "overlay-fraction"
        assert dyn.overlay.empty

    def test_degree_crossings_trigger_compaction(self, rmat10):
        dyn = DynamicGraph(
            rmat10, "2x1x2", 512, max_degree_crossings=3, max_overlay_fraction=1.0
        )
        # With TH=512 nothing is a delegate; push several vertices across.
        hubs = [3, 5, 9, 11]
        pairs = [[h, (h * 31 + k) % 1024] for h in hubs for k in range(600)]
        applied = dyn.apply(EdgeDelta.inserts(pairs))
        assert applied.compacted and applied.compact_reason == "degree-crossings"
        assert dyn.pending_crossings == 0
        assert dyn.partitioned.separation.is_delegate[hubs].all()

    def test_compaction_matches_rebuild_from_scratch(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        for delta in update_stream(rmat10, 2, 128, seed=6, delete_fraction=0.25):
            dyn.apply(delta)
        dyn.compact()
        rebuilt = build_partitions(
            dyn.edges, ClusterLayout.from_notation("2x1x2"), 32
        )
        assert dyn.partitioned.num_directed_edges == rebuilt.num_directed_edges
        assert dyn.partitioned.num_delegates == rebuilt.num_delegates
        np.testing.assert_array_equal(
            dyn.partitioned.separation.delegate_vertices,
            rebuilt.separation.delegate_vertices,
        )

    def test_adopts_existing_partitioning(self, rmat10):
        graph = build_partitions(rmat10, ClusterLayout.from_notation("2x1x2"), 32)
        dyn = DynamicGraph(rmat10, "2x1x2", 32, partitioned=graph)
        assert dyn.partitioned is graph
        with pytest.raises(ValueError, match="disagrees"):
            DynamicGraph(rmat10, "2x1x2", 64, partitioned=graph)

    def test_rejects_duplicate_input_edges(self):
        from repro.graph.edgelist import EdgeList

        dup = EdgeList([0, 0, 1], [1, 1, 0], 4)
        with pytest.raises(ValueError, match="duplicates"):
            DynamicGraph(dup, "2x1x2", 2)

    def test_caller_arrays_never_mutated(self, rmat10):
        src = rmat10.src.copy()
        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        dyn.apply(EdgeDelta.inserts([[1, 1000]]))
        np.testing.assert_array_equal(rmat10.src, src)


# --------------------------------------------------------------------------- #
# Traversals over the overlay (from-scratch correctness)
# --------------------------------------------------------------------------- #
class TestOverlayTraversal:
    @pytest.fixture(scope="class")
    def mutated(self, rmat10):
        # Generous budgets: these tests need the overlay to stay resident.
        dyn = DynamicGraph(
            rmat10, "2x1x2", 32, max_overlay_fraction=1.0, max_degree_crossings=10**6
        )
        engine = DynamicEngine(dyn)
        for delta in update_stream(rmat10, 3, 200, style="uniform", seed=9):
            engine.apply_delta(delta)
        assert not dyn.overlay.empty
        reference = build_partitions(
            dyn.edges, ClusterLayout.from_notation("2x1x2"), 32
        )
        return engine, reference

    def test_levels_match_compacted_graph(self, mutated):
        engine, reference = mutated
        from repro.core.engine import TraversalEngine

        ref_engine = TraversalEngine(reference)
        for source in (0, 17, 900):
            got = engine.run(BFSLevels(source=source))
            want = ref_engine.run(BFSLevels(source=source))
            np.testing.assert_array_equal(got.distances, want.distances)
            assert "overlay" in got.workload_by_kernel()

    def test_components_match_compacted_graph(self, mutated):
        engine, reference = mutated
        from repro.core.engine import TraversalEngine

        got = engine.run(ConnectedComponents())
        want = TraversalEngine(reference).run(ConnectedComponents())
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_khop_matches_compacted_graph(self, mutated):
        engine, reference = mutated
        from repro.core.engine import TraversalEngine

        got = engine.run(KHopReachability(source=3, max_hops=2))
        want = TraversalEngine(reference).run(KHopReachability(source=3, max_hops=2))
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_batched_lanes_match_sequential(self, mutated):
        engine, _ = mutated
        sources = [0, 3, 17, 250, 900, 1001, 40]
        batch = engine.run_batch(BatchedBFSLevels(sources))
        for lane, source in enumerate(sources):
            seq = engine.run(BFSLevels(source=source))
            np.testing.assert_array_equal(batch.distances_for(lane), seq.distances)

    def test_run_many_dedups_and_batches_with_overlay(self, mutated):
        engine, _ = mutated
        campaign = engine.run_many(
            [BFSLevels(source=s) for s in (1, 2, 1, 5)], batch_size=4
        )
        assert campaign.saved_traversals == 1
        np.testing.assert_array_equal(
            campaign[0].distances, engine.run(BFSLevels(source=1)).distances
        )


# --------------------------------------------------------------------------- #
# Incremental maintenance: the equivalence sweep
# --------------------------------------------------------------------------- #
SWEEP = [
    # (threshold, direction_optimized, blocking_reduce)
    (1, True, True),
    (None, True, True),       # the paper's suggested threshold ("auto")
    (10**9, True, True),      # effectively infinite: no delegates at all
    (None, False, True),      # DO off
    (None, True, False),      # IR reduction
    (1, False, False),
]


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("threshold,do,br", SWEEP)
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_maintained_answers_bit_identical(self, threshold, do, br, backend):
        edges = generate_rmat(9, rng=13)
        options = repro.BFSOptions(direction_optimized=do, blocking_reduce=br)
        dyn = DynamicGraph(edges, "2x1x2", threshold)
        engine = DynamicEngine(dyn, options=options, backend=backend)
        try:
            levels = Maintained(engine, "levels", source=1)
            components = Maintained(engine, "components")
            stream = update_stream(edges, 2, 96, style="pa", seed=31)
            for delta in stream:
                applied = engine.apply_delta(delta)
                levels.update(applied)
                components.update(applied)
                levels.verify()      # raises unless bit-identical
                components.verify()
            assert levels.stats.repairs > 0 or levels.stats.skipped > 0
        finally:
            engine.close()

    def test_delete_falls_back_to_recompute(self, rmat10):
        engine = fresh_engine(rmat10)
        levels = Maintained(engine, "levels", source=0)
        u, v = int(rmat10.src[10]), int(rmat10.dst[10])
        applied = engine.apply_delta(EdgeDelta.deletes([[u, v]]))
        levels.update(applied)
        levels.verify()
        assert levels.stats.recomputes == 2  # initial + fallback
        assert levels.stats.repairs == 0

    def test_unreachable_vertex_becomes_reachable(self, rmat10):
        # Find an unreached vertex, connect it, and expect a repaired level.
        engine = fresh_engine(rmat10)
        levels = Maintained(engine, "levels", source=0)
        unreached = int(np.flatnonzero(levels.values < 0)[0])
        applied = engine.apply_delta(EdgeDelta.inserts([[0, unreached]]))
        levels.update(applied)
        assert levels.values[unreached] == 1
        levels.verify()

    def test_noop_delta_skips_traversal(self, rmat10):
        engine = fresh_engine(rmat10)
        levels = Maintained(engine, "levels", source=0)
        unreached = np.flatnonzero(levels.values < 0)
        if unreached.size < 2:
            pytest.skip("graph has too few unreachable vertices")
        a, b = (int(x) for x in unreached[:2])
        applied = engine.apply_delta(EdgeDelta.inserts([[a, b]]))
        levels.update(applied)
        assert levels.stats.skipped == 1 and levels.stats.repairs == 0
        levels.verify()

    def test_out_of_order_update_recomputes(self, rmat10):
        engine = fresh_engine(rmat10)
        levels = Maintained(engine, "levels", source=0)
        engine.apply_delta(EdgeDelta.inserts([[1, 900]]))
        applied = engine.apply_delta(EdgeDelta.inserts([[2, 901]]))
        levels.update(applied)  # skipped a version: must not trust seeding
        assert levels.stats.recomputes == 2
        levels.verify()

    def test_repair_cheaper_than_recompute(self, rmat10):
        engine = fresh_engine(rmat10)
        levels = Maintained(engine, "levels", source=0)
        full_edges = levels.result.total_edges_examined
        applied = engine.apply_delta(EdgeDelta.inserts([[0, 777]]))
        repaired = levels.update(applied)
        levels.verify()
        assert levels.stats.repairs == 1
        assert repaired.total_edges_examined < full_edges / 5

    def test_live_backend_instance_rejected(self, rmat10):
        # A backend object stays bound to the CSR it was built over; after a
        # compaction it would silently traverse the old graph.  Only name
        # specs may cross a DynamicEngine.
        from repro.exec import InlineBackend

        dyn = DynamicGraph(rmat10, "2x1x2", 32)
        with pytest.raises(ValueError, match="backend name"):
            DynamicEngine(dyn, backend=InlineBackend(dyn.partitioned))
        engine = DynamicEngine(dyn)
        with pytest.raises(ValueError, match="backend name"):
            engine.use_backend(InlineBackend(dyn.partitioned))
        engine.use_backend("inline")  # names stay fine

    def test_maintenance_across_compaction(self, rmat10):
        dyn = DynamicGraph(rmat10, "2x1x2", 32, max_overlay_fraction=0.002)
        engine = DynamicEngine(dyn)
        levels = Maintained(engine, "levels", source=0)
        compacted = False
        for delta in update_stream(rmat10, 3, 64, seed=41):
            applied = engine.apply_delta(delta)
            compacted = compacted or applied.compacted
            levels.update(applied)
            levels.verify()
        assert compacted  # the sweep must actually cross a compaction


# --------------------------------------------------------------------------- #
# Serving mutable graphs
# --------------------------------------------------------------------------- #
class TestDynamicServing:
    def test_apply_delta_invalidates_and_counts(self, rmat10):
        service = QueryService(fresh_engine(rmat10), batch_size=4, cache_size=32)
        first = service.query(Query("levels", 0))
        assert service.query(Query("levels", 0)) is first  # cached
        service.apply_delta(EdgeDelta.inserts([[0, 1023]]))
        snapshot = service.stats_snapshot()["service"]
        assert snapshot["updates"] == 1
        assert snapshot["epoch_bumps"] == 1
        assert snapshot["entries_invalidated"] == 1
        fresh = service.query(Query("levels", 0))
        assert fresh is not first
        assert fresh.distances[1023] == 1
        assert service.stats_snapshot()["graph_version"] == 1

    def test_apply_delta_requires_dynamic_engine(self, rmat10):
        from repro.core.engine import TraversalEngine

        graph = build_partitions(rmat10, ClusterLayout.from_notation("2x1x2"), 32)
        service = QueryService(TraversalEngine(graph), batch_size=2, cache_size=8)
        with pytest.raises(TypeError, match="frozen graph"):
            service.apply_delta(EdgeDelta.inserts([[0, 1]]))

    def test_pending_queries_answered_against_mutated_graph(self, rmat10):
        service = QueryService(
            fresh_engine(rmat10), batch_size=4, cache_size=32, batched=False
        )
        service.submit(Query("levels", 0))
        service.apply_delta(EdgeDelta.inserts([[0, 1023]]))  # flushes pending first
        assert service.pending == 0
        result = service.query(Query("levels", 0))
        assert result.distances[1023] == 1

    def test_mixed_workload_deterministic_and_replayable(self, rmat10):
        from repro.graph.degree import out_degrees

        mixed = MixedWorkload(
            queries=ZipfWorkload(num_queries=48, skew=1.0, pool=12, seed=3),
            update_rate=0.2,
            edges_per_update=32,
            update_seed=5,
        )
        degrees = out_degrees(rmat10)
        ops_a = mixed.generate(rmat10, degrees=degrees)
        ops_b = mixed.generate(rmat10, degrees=degrees)
        assert [type(o).__name__ for o in ops_a] == [type(o).__name__ for o in ops_b]
        assert any(isinstance(o, EdgeDelta) for o in ops_a)

        def replay():
            service = QueryService(fresh_engine(rmat10), batch_size=8, cache_size=32)
            results = service.run_mixed(ops_a)
            return service, results

        s1, r1 = replay()
        s2, r2 = replay()
        assert len(r1) == sum(isinstance(o, Query) for o in ops_a)
        assert s1.stats.updates == s2.stats.updates > 0
        assert s1.stats.entries_invalidated == s2.stats.entries_invalidated
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_mixed_workload_validation(self):
        with pytest.raises(ValueError, match="update_rate"):
            MixedWorkload(update_rate=0.95)
        with pytest.raises(ValueError, match="edges_per_update"):
            MixedWorkload(edges_per_update=0)

    def test_session_mutate_and_serve(self, rmat10):
        graph = repro.session(layout="2x1x2").load(rmat10).threshold(32).build()
        baseline = graph.bfs(0).distances.copy()
        applied = graph.mutate(inserts=[[0, 1023]])
        assert applied.num_inserts >= 1 and graph.dynamic is not None
        after = graph.bfs(0).distances
        assert after[1023] == 1
        assert not np.array_equal(baseline, after)
        # further mutation through a prepared delta + deletes keyword
        graph.mutate(deletes=[[0, 1023]])
        np.testing.assert_array_equal(graph.bfs(0).distances, baseline)
        with pytest.raises(ValueError, match="delta or inserts"):
            graph.mutate()


# --------------------------------------------------------------------------- #
# Bench integration (dyn-* scenarios)
# --------------------------------------------------------------------------- #
def tiny_dynamic_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="dyn-test-tiny",
        kind="rmat",
        scale=9,
        program="dynamic",
        layout="2x1x2",
        threshold=32,
        maintained="levels",
        update_style="uniform",
        update_batches=2,
        update_edges=64,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestDynamicBench:
    def test_record_schema_and_both_paths_recorded(self):
        record = run_scenario(tiny_dynamic_scenario(), repeats=2)
        assert record["spec"]["program"] == "dynamic"
        counters = record["counters"]
        for key in (
            "updates_applied",
            "insert_edges",
            "repair_edges",
            "repair_modeled_ms",
            "recompute_edges",
            "recompute_modeled_ms",
            "answers_checksum",
        ):
            assert key in counters, key
        assert counters["updates_applied"] == 2
        dyn = record["dynamic"]
        assert dyn["mode"] == "incremental"
        assert dyn["modeled_recompute_ms"] > 0
        assert record["wall_s"]["traversal"] > 0
        assert json.loads(json.dumps(record)) == record

    def test_mode_changes_timing_not_counters(self):
        spec = tiny_dynamic_scenario()
        incremental = run_scenario(spec, repeats=2)
        recompute = run_scenario(spec, repeats=2, baseline=True)
        assert incremental["counters"] == recompute["counters"]
        assert incremental["dynamic"]["mode"] == "incremental"
        assert recompute["dynamic"]["mode"] == "recompute"

    def test_components_scenario_runs(self):
        record = run_scenario(
            tiny_dynamic_scenario(maintained="components"), repeats=2
        )
        assert record["counters"]["updates_applied"] == 2

    def test_maintained_row_parameters_reach_the_maintainer(self, monkeypatch):
        from repro.weighted.sssp import DeltaSteppingSSSP

        drive, deltas = DeltaSteppingSSSP.drive, []

        def recording(program, engine, init=None, overlay=None):
            deltas.append(program.delta)
            return drive(program, engine, init=init, overlay=overlay)

        monkeypatch.setattr(DeltaSteppingSSSP, "drive", recording)
        spec = tiny_dynamic_scenario(maintained="sssp", weights=3, delta=0.5)
        assert spec.describe()["delta"] == 0.5
        assert spec.describe() != tiny_dynamic_scenario(maintained="sssp", weights=3).describe()
        assert "delta" not in tiny_dynamic_scenario().describe()
        with pytest.raises(ValueError, match="delta"):
            tiny_dynamic_scenario(maintained="sssp", weights=3, delta=-1)
        run_scenario(spec, repeats=1)
        assert deltas and set(deltas) == {0.5}

    def test_registry_has_quick_dyn_scenario(self):
        from repro.bench import quick_scenarios

        names = [s.name for s in quick_scenarios() if s.program == "dynamic"]
        assert names, "the CI smoke subset must exercise a dyn-* scenario"

    def test_invalid_dynamic_scenarios_rejected(self):
        with pytest.raises(ValueError, match="maintained"):
            tiny_dynamic_scenario(maintained="parents")
        with pytest.raises(ValueError, match="update_batches"):
            tiny_dynamic_scenario(update_batches=0)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestDynamicCLI:
    def test_mutate_json(self, capsys):
        code = main(
            [
                "mutate",
                "--scale", "10",
                "--layout", "2x1x2",
                "--batches", "2",
                "--edges-per-batch", "64",
                "--style", "pa",
                "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is True
        assert len(out["batches"]) == 2
        assert out["final_version"] == 2
        assert all("recompute_modeled_ms" in b for b in out["batches"])
        # the overlay's per-GPU assignment (real distributor rules) adds up
        assert sum(out["overlay_edges_per_gpu"]) == out["overlay_edges"]

    def test_mutate_components_with_deletes(self, capsys):
        code = main(
            [
                "mutate",
                "--scale", "9",
                "--layout", "2x1x2",
                "--program", "components",
                "--batches", "1",
                "--edges-per-batch", "32",
                "--delete-fraction", "0.5",
                "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["batches"][0]["deleted"] > 0

    def test_serve_bench_update_rate_json(self, capsys):
        code = main(
            [
                "serve", "bench",
                "--scale", "10",
                "--layout", "2x1x2",
                "--queries", "24",
                "--batch-size", "4",
                "--cache-size", "16",
                "--update-rate", "0.2",
                "--update-edges", "32",
                "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        service = out["batched"]["service"]
        assert service["updates"] > 0
        assert service["epoch_bumps"] == service["updates"]
        assert "entries_invalidated" in service
        assert out["workload"]["update_rate"] == 0.2
        # both replay modes applied the identical pinned stream
        assert out["sequential"]["service"]["updates"] == service["updates"]

    def test_bench_list_json_carries_family(self, capsys):
        assert main(["bench", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(
            {"name", "family", "program", "backend"} <= set(row) for row in rows
        )
        dyn_rows = [r for r in rows if r["program"] == "dynamic"]
        assert dyn_rows and all(r["family"] == "rmat" for r in dyn_rows)
