"""Tests for the weighted program zoo (repro.weighted) and its integrations.

Covers the oracle property sweeps (delta-stepping vs Dijkstra, fixed-point
PageRank vs its serial replica), the cross-backend / cross-storage
invariance of every weighted answer, weight validation at the
data layer and the CLI, the weighted (v2) store manifest with its
backward-compatibility guarantees, incremental SSSP maintenance over
dynamic graphs, and the weighted bench scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.weighted import (
    dijkstra_sssp,
    pagerank_power,
    pagerank_reference_fixed,
    triangle_count_serial,
)
from repro.bench import Scenario, run_scenario
from repro.bench.runner import values_checksum
from repro.cli import main
from repro.core.engine import TraversalEngine
from repro.core.programs import ConnectedComponents
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta, Maintained
from repro.graph.edgelist import EdgeList
from repro.graph.rmat import generate_rmat
from repro.graph.weights import edge_keyed_weights, validate_weights
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage.segments import (
    SCHEMA_VERSION,
    SCHEMA_VERSION_WEIGHTED,
    load_graph_store,
    save_graph_store,
)
from repro.weighted import (
    BellmanFordSSSP,
    ComponentsHooking,
    DeltaSteppingSSSP,
    PageRank,
    TriangleCount,
)


@pytest.fixture(scope="module")
def wedges() -> EdgeList:
    """A prepared scale-11 RMAT graph carrying deterministic edge weights."""
    return generate_rmat(11, rng=1, weights_seed=5)


@pytest.fixture(scope="module")
def wgraph(wedges):
    return build_partitions(wedges, ClusterLayout.from_notation("1x2x2"), 32)


SOURCE = 11


# --------------------------------------------------------------------------- #
# Oracle property sweeps
# --------------------------------------------------------------------------- #
class TestSSSPOracle:
    @pytest.mark.parametrize("delta", [1.0, "auto", float("inf")])
    @pytest.mark.parametrize("do", [True, False])
    def test_matches_dijkstra_across_delta_and_direction(self, wedges, wgraph, delta, do):
        from repro.core.options import BFSOptions

        engine = TraversalEngine(wgraph, options=BFSOptions(direction_optimized=do))
        result = engine.run(DeltaSteppingSSSP(SOURCE, delta=delta))
        reference = dijkstra_sssp(
            wedges.src, wedges.dst, wedges.weights, wedges.num_vertices, SOURCE
        )
        # Bit-identical, not approximately equal: both sides fold the same
        # float64 additions in nondecreasing-distance order.
        np.testing.assert_array_equal(result.distances, reference)

    def test_bellman_ford_same_bits_more_relaxations(self, wgraph):
        engine = TraversalEngine(wgraph)
        delta = engine.run(DeltaSteppingSSSP(SOURCE, delta="auto"))
        bf = engine.run(BellmanFordSSSP(SOURCE))
        np.testing.assert_array_equal(delta.dist_bits, bf.dist_bits)
        assert delta.total_edges_examined < bf.total_edges_examined

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_bits_invariant_across_backends(self, wgraph, backend):
        engine = TraversalEngine(wgraph, backend=backend)
        try:
            result = engine.run(DeltaSteppingSSSP(SOURCE, delta="auto"))
        finally:
            engine.close()
        baseline = TraversalEngine(wgraph).run(DeltaSteppingSSSP(SOURCE, delta="auto"))
        np.testing.assert_array_equal(result.dist_bits, baseline.dist_bits)
        assert result.total_edges_examined == baseline.total_edges_examined

    def test_unreached_vertices_hold_inf(self, wgraph):
        result = TraversalEngine(wgraph).run(DeltaSteppingSSSP(SOURCE))
        unreached = result.dist_bits == -1
        assert np.isinf(result.distances[unreached]).all()
        assert result.num_reached == int((~unreached).sum())

    def test_rejects_unweighted_graph(self, rmat_small, small_layout):
        graph = build_partitions(rmat_small, small_layout, 32)
        engine = TraversalEngine(graph)
        with pytest.raises(ValueError, match="weight"):
            engine.run(DeltaSteppingSSSP(0))

    def test_rejects_bad_delta(self):
        for bad in (0, -1.0, float("nan"), "fast"):
            with pytest.raises(ValueError, match="delta"):
                DeltaSteppingSSSP(0, delta=bad)


class TestPageRankOracle:
    def test_fixed_mode_is_integer_exact(self, wedges, wgraph):
        result = TraversalEngine(wgraph).run(PageRank(iterations=12))
        reference = pagerank_reference_fixed(
            wedges.src, wedges.dst, wedges.num_vertices, iterations=12
        )
        np.testing.assert_array_equal(result.ranks, reference)

    def test_push_mode_tracks_power_iteration(self, wedges, wgraph):
        result = TraversalEngine(wgraph).run(PageRank(mode="push"))
        reference = pagerank_power(
            wedges.src, wedges.dst, wedges.num_vertices, iterations=100
        )
        assert np.abs(result.ranks_float - reference).max() <= 1e-3

    def test_rank_mass_conserved(self, wgraph):
        result = TraversalEngine(wgraph).run(PageRank())
        # Fixed-point truncation sheds a little mass each iteration; the
        # answer is still exact (integer), just not a true probability sum.
        assert result.ranks_float.sum() == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_ranks_invariant_across_backends(self, wgraph, backend):
        engine = TraversalEngine(wgraph, backend=backend)
        try:
            result = engine.run(PageRank(iterations=8))
        finally:
            engine.close()
        baseline = TraversalEngine(wgraph).run(PageRank(iterations=8))
        np.testing.assert_array_equal(result.ranks, baseline.ranks)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="damping"):
            PageRank(damping=1.5)
        with pytest.raises(ValueError, match="iterations"):
            PageRank(iterations=0)
        with pytest.raises(ValueError, match="mode"):
            PageRank(mode="approx")


class TestHookingAndTriangles:
    def test_hooking_matches_frontier_components(self, wgraph):
        engine = TraversalEngine(wgraph)
        hooked = engine.run(ComponentsHooking())
        frontier = engine.run(ConnectedComponents())
        np.testing.assert_array_equal(hooked.labels, frontier.labels)
        assert hooked.num_components == frontier.num_components

    def test_triangles_match_serial_oracle(self, wedges, wgraph):
        result = TraversalEngine(wgraph).run(TriangleCount())
        total, per_vertex = triangle_count_serial(
            wedges.src, wedges.dst, wedges.num_vertices
        )
        assert result.triangles == total
        np.testing.assert_array_equal(result.per_vertex, per_vertex)


# --------------------------------------------------------------------------- #
# Cross-storage invariance of the whole weighted zoo
# --------------------------------------------------------------------------- #
def _weighted_fingerprint(graph, backend):
    engine = TraversalEngine(graph, backend=backend)
    out = {}
    try:
        for name, program in (
            ("sssp", DeltaSteppingSSSP(SOURCE, delta="auto")),
            ("pagerank", PageRank(iterations=8)),
            ("wcc_hook", ComponentsHooking()),
            ("triangles", TriangleCount()),
        ):
            result = engine.run(program)
            out[name] = (
                int(result.total_edges_examined),
                int(result.iterations),
                values_checksum(result),
            )
    finally:
        engine.close()
    return out


class TestWeightedStorageInvariance:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_zoo_counters_identical_across_storage(
        self, wedges, tmp_path, backend
    ):
        layout = ClusterLayout.from_notation("1x2x2")
        base = build_partitions(wedges, layout, 32)
        expected = _weighted_fingerprint(base, backend)
        for storage in ("mmap", "compressed"):
            save_graph_store(base, tmp_path / storage, storage=storage)
            graph = load_graph_store(tmp_path / storage)
            assert _weighted_fingerprint(graph, backend) == expected, (
                storage,
                backend,
            )


# --------------------------------------------------------------------------- #
# Weight validation: data layer + CLI exit codes
# --------------------------------------------------------------------------- #
class TestWeightValidation:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_weights(np.asarray([0.5, -0.1]), num_edges=2)
        with pytest.raises(ValueError, match="non-negative"):
            EdgeList(
                src=np.asarray([0, 1]),
                dst=np.asarray([1, 0]),
                num_vertices=2,
                weights=np.asarray([1.0, -2.0]),
            )

    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                validate_weights(np.asarray([0.5, bad]), num_edges=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            validate_weights(np.asarray([0.5]), num_edges=2)

    def test_weights_deterministic_by_key(self):
        src = np.asarray([0, 3, 0], dtype=np.int64)
        dst = np.asarray([1, 2, 1], dtype=np.int64)
        a = edge_keyed_weights(src, dst, 4, seed=9)
        b = edge_keyed_weights(src, dst, 4, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a[0] == a[2]  # same (src, dst) key, same weight
        assert (a >= 0).all() and np.isfinite(a).all()

    def test_cli_sssp_on_unweighted_graph_exits_2(self, capsys):
        assert main(["sssp", "--scale", "8", "--source", "0"]) == 2
        assert "no edge weights" in capsys.readouterr().err

    def test_cli_bad_delta_exits_2(self, capsys):
        code = main(
            ["sssp", "--scale", "8", "--weights", "3", "--source", "0", "--delta", "-1"]
        )
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_cli_bad_damping_exits_2(self, capsys):
        code = main(["pagerank", "--scale", "8", "--damping", "1.5"])
        assert code == 2
        assert "damping" in capsys.readouterr().err

    def test_cli_weights_conflicts_with_npz_exit_2(self, tmp_path, capsys):
        npz = tmp_path / "g.npz"
        assert main(["generate", "--scale", "8", "--output", str(npz)]) == 0
        code = main(["sssp", "--npz", str(npz), "--weights", "3", "--source", "0"])
        assert code == 2
        assert "--weights" in capsys.readouterr().err


class TestCLIWeighted:
    def test_sssp_validates_against_dijkstra(self, capsys):
        code = main(
            ["sssp", "--scale", "9", "--weights", "3", "--sources", "2", "--validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "validated" in out

    def test_pagerank_fixed_validates(self, capsys):
        code = main(["pagerank", "--scale", "9", "--weights", "3", "--validate"])
        assert code == 0
        assert "validated" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Weighted stores: manifest v2 + backward compatibility
# --------------------------------------------------------------------------- #
class TestWeightedStoreManifest:
    def test_unweighted_store_stays_version_1(self, rmat_small, small_layout, tmp_path):
        import json

        graph = build_partitions(rmat_small, small_layout, 32)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["version"] == SCHEMA_VERSION

    def test_weighted_store_round_trips_as_version_2(self, wedges, tmp_path):
        import json

        layout = ClusterLayout.from_notation("1x2x2")
        graph = build_partitions(wedges, layout, 32)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["version"] == SCHEMA_VERSION_WEIGHTED

        loaded = load_graph_store(tmp_path / "s")
        assert loaded.is_weighted
        for mem, disk in zip(graph.gpus, loaded.gpus):
            for key in ("nn", "nd", "dn", "dd"):
                mw = getattr(mem, key).edge_weights
                dw = getattr(disk, key).edge_weights
                if mw is None:
                    assert dw is None
                else:
                    np.testing.assert_array_equal(np.asarray(mw), np.asarray(dw))

    def test_unknown_version_fails_with_versioned_error(
        self, rmat_small, small_layout, tmp_path
    ):
        import json

        graph = build_partitions(rmat_small, small_layout, 32)
        save_graph_store(graph, tmp_path / "s", storage="mmap")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported store version"):
            load_graph_store(tmp_path / "s")


# --------------------------------------------------------------------------- #
# Incremental SSSP maintenance over dynamic graphs
# --------------------------------------------------------------------------- #
class TestMaintainedSSSP:
    @pytest.fixture()
    def dyn_engine(self, wedges):
        dyn = DynamicGraph(wedges, "1x2x2", 32, weights_seed=5)
        return DynamicEngine(dyn)

    def test_insert_repair_is_bit_identical(self, dyn_engine):
        sssp = Maintained(dyn_engine, "sssp", SOURCE)
        before = sssp.values.copy()
        applied = dyn_engine.apply_delta(
            EdgeDelta.inserts([[SOURCE, 1500], [1500, 77], [77, 900]])
        )
        sssp.update(applied)
        sssp.verify()  # raises on any divergence from a fresh run
        assert sssp.stats.repairs >= 1 or sssp.stats.skipped >= 1
        # The maintained answer can only improve (weights are non-negative
        # and the delta inserted edges): distances never get worse.
        after = sssp.values
        improved = after != before
        if improved.any():
            old = np.where(before == -1, np.inf, before.view(np.float64))
            new = np.where(after == -1, np.inf, after.view(np.float64))
            assert (new[improved] < old[improved]).all()

    def test_delete_falls_back_to_recompute(self, dyn_engine, wedges):
        sssp = Maintained(dyn_engine, "sssp", SOURCE)
        recomputes_before = sssp.stats.recomputes
        pair = [[int(wedges.src[0]), int(wedges.dst[0])]]
        applied = dyn_engine.apply_delta(EdgeDelta.deletes(pair))
        sssp.update(applied)
        assert sssp.stats.recomputes == recomputes_before + 1
        sssp.verify()

    def test_unweighted_dynamic_graph_rejected(self, rmat_small):
        dyn = DynamicGraph(rmat_small, "1x2x2", 32)
        engine = DynamicEngine(dyn)
        with pytest.raises(ValueError, match="weights"):
            Maintained(engine, "sssp", 0)


# --------------------------------------------------------------------------- #
# Bench integration: weighted scenarios + answer checksums
# --------------------------------------------------------------------------- #
class TestWeightedBench:
    def test_sssp_scenario_records_bf_pair(self):
        spec = Scenario(
            "t-sssp", "rmat", 9, "sssp", weights=3, delta=0.25, sources=1
        )
        record = run_scenario(spec, repeats=1, check_determinism=False)
        assert record["spec"]["weights"] == 3
        assert record["spec"]["delta"] == 0.25
        section = record["sssp"]
        assert section["edges_bellman_ford"] >= section["edges_delta"]
        assert section["wall_bellman_ford_s"] > 0
        assert record["counters"]["values_checksum"] != 0

    def test_pagerank_scenario_runs_once(self):
        spec = Scenario("t-pr", "rmat", 9, "pagerank", weights=3, iterations=4)
        record = run_scenario(spec, repeats=1, check_determinism=False)
        assert record["spec"]["sources"] == 1
        assert record["counters"]["runs"] == 1
        assert record["counters"]["iterations"] == 4

    def test_sssp_scenario_requires_weights(self):
        with pytest.raises(ValueError, match="weights"):
            Scenario("t-bad", "rmat", 9, "sssp")

    def test_checksum_distinguishes_weighted_answers(self, wgraph):
        engine = TraversalEngine(wgraph)
        sssp = engine.run(DeltaSteppingSSSP(SOURCE))
        ranks = engine.run(PageRank(iterations=4))
        tri = engine.run(TriangleCount())
        sums = {values_checksum(r) for r in (sssp, ranks, tri)}
        assert len(sums) == 3 and 0 not in sums
