"""Tests for the query-serving subsystem (repro.serve) and its CLI/bench glue."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.bench import Scenario, run_scenario
from repro.cli import main
from repro.core.engine import TraversalEngine
from repro.core.programs import BFSLevels, KHopReachability
from repro.partition.subgraphs import build_partitions
from repro.serve import LRUCache, Query, QueryService, ZipfWorkload, zipf_ranks, zipf_weights


# --------------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5 and stats.lookups == 2

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert cache.stats.size == 2
        assert cache.get("b") is None and cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert cache.get("a") == 10 and cache.get("b") is None

    def test_clear_keeps_cumulative_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.stats.size == 0 and cache.stats.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)

    def test_stats_as_dict_round_trips(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        assert json.loads(json.dumps(cache.stats.as_dict())) == cache.stats.as_dict()


# --------------------------------------------------------------------------- #
# Zipf workload
# --------------------------------------------------------------------------- #
class TestZipfWorkload:
    def test_deterministic_stream(self):
        spec = ZipfWorkload(num_queries=64, skew=1.0, pool=16, seed=7)
        assert spec.generate(1000) == spec.generate(1000)

    def test_skew_concentrates_sources(self):
        hot = ZipfWorkload(num_queries=256, skew=2.0, pool=64, seed=3).sources(4096)
        cold = ZipfWorkload(num_queries=256, skew=0.0, pool=64, seed=3).sources(4096)
        assert np.unique(hot).size < np.unique(cold).size

    def test_degree_filter_excludes_isolated(self):
        degrees = np.array([0, 3, 0, 2, 1])
        stream = ZipfWorkload(num_queries=32, pool=8, seed=1).sources(5, degrees=degrees)
        assert set(stream.tolist()) <= {1, 3, 4}

    def test_pool_caps_at_candidates(self):
        degrees = np.array([1, 1, 0, 0])
        stream = ZipfWorkload(num_queries=16, pool=100, seed=1).sources(4, degrees=degrees)
        assert set(stream.tolist()) <= {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError, match="num_queries"):
            ZipfWorkload(num_queries=0)
        with pytest.raises(ValueError, match="skew"):
            ZipfWorkload(skew=-1.0)
        with pytest.raises(ValueError, match="max_hops"):
            ZipfWorkload(program="khop")
        with pytest.raises(ValueError, match="unknown query program"):
            Query("components", source=0)
        with pytest.raises(ValueError, match="pool"):
            zipf_ranks(4, 0, 1.0, rng=1)
        with pytest.raises(ValueError, match="all vertices are isolated"):
            ZipfWorkload().sources(4, degrees=np.zeros(4))

    def test_describe_json_stable(self):
        spec = ZipfWorkload(num_queries=8, skew=0.5, pool=4, seed=2)
        assert json.loads(json.dumps(spec.describe())) == spec.describe()


# --------------------------------------------------------------------------- #
# Zipf weight vector: computed once per (pool, skew), bit-identical streams
# --------------------------------------------------------------------------- #
class TestZipfWeights:
    def test_weights_match_direct_computation(self):
        weights = zipf_weights(64, 1.25)
        expected = np.power(np.arange(1, 65, dtype=np.float64), -1.25)
        np.testing.assert_array_equal(weights, expected / expected.sum())
        assert weights.sum() == pytest.approx(1.0)

    def test_cache_returns_the_same_immutable_vector(self):
        first = zipf_weights(48, 1.0)
        second = zipf_weights(48, 1.0)
        assert first is second  # the O(pool) power/normalise ran once
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_streams_bit_identical_through_the_cache(self):
        # Regression for the per-call recompute: the ranks drawn through the
        # cached vector must be bit-identical to drawing through a freshly
        # computed one — same rng consumption, same choice() input.
        fresh = np.power(np.arange(1, 33, dtype=np.float64), -1.5)
        fresh /= fresh.sum()
        from repro.utils.rng import make_rng

        expected = make_rng(9).choice(32, size=128, p=fresh)
        np.testing.assert_array_equal(zipf_ranks(128, 32, 1.5, rng=9), expected)
        np.testing.assert_array_equal(
            zipf_ranks(128, 32, 1.5, rng=9), zipf_ranks(128, 32, 1.5, rng=9)
        )

    def test_uniform_skew_zero(self):
        np.testing.assert_allclose(zipf_weights(10, 0.0), np.full(10, 0.1))

    def test_validation(self):
        with pytest.raises(ValueError, match="pool"):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError, match="skew"):
            zipf_weights(4, -0.5)


# --------------------------------------------------------------------------- #
# QueryService
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def engine(rmat_small, small_layout):
    graph = build_partitions(rmat_small, small_layout, threshold=16)
    return TraversalEngine(graph)


class TestQueryService:
    def test_answers_match_direct_engine_runs(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        queries = [Query("levels", s) for s in (0, 5, 9, 100, 255)]
        results = service.serve(queries)
        for query, result in zip(queries, results):
            np.testing.assert_array_equal(
                result.distances, engine.run(BFSLevels(source=query.source)).distances
            )

    def test_khop_queries_served(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        result = service.query(Query("khop", source=3, max_hops=2))
        np.testing.assert_array_equal(
            result.distances,
            engine.run(KHopReachability(source=3, max_hops=2)).distances,
        )

    def test_query_returns_own_result_with_pending_queue(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        service.submit(Query("levels", 1))
        result = service.query(Query("levels", 2))
        np.testing.assert_array_equal(
            result.distances, engine.run(BFSLevels(source=2)).distances
        )
        assert service.pending == 0  # the earlier submission was flushed too
        assert service.cache.stats.misses == 2

    def test_cache_hits_across_flushes(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        first = service.query(Query("levels", 7))
        second = service.query(Query("levels", 7))
        assert first is second  # served from cache, not re-traversed
        assert service.cache.stats.hits == 1
        assert service.stats.traversals == 1

    def test_coalescing_within_one_flush(self, engine):
        service = QueryService(engine, batch_size=8, cache_size=16)
        for _ in range(4):
            service.submit(Query("levels", 11))
        assert service.pending == 4
        results = service.flush()
        assert len(results) == 4
        assert all(r is results[0] for r in results)
        assert service.stats.coalesced == 3
        assert service.stats.traversals == 1
        assert service.pending == 0

    def test_eviction_forces_retraversal(self, engine):
        service = QueryService(engine, batch_size=1, cache_size=1)
        service.query(Query("levels", 0))
        service.query(Query("levels", 1))  # evicts source 0
        assert service.cache.stats.evictions == 1
        service.query(Query("levels", 0))  # miss again
        assert service.cache.stats.misses == 3
        assert service.stats.traversals == 3

    def test_batched_and_sequential_modes_agree(self, engine, rmat_small):
        from repro.graph.degree import out_degrees

        stream = ZipfWorkload(num_queries=48, skew=1.0, pool=12, seed=5).generate(
            rmat_small.num_vertices, degrees=out_degrees(rmat_small)
        )
        batched = QueryService(engine, batch_size=8, cache_size=8, batched=True)
        sequential = QueryService(engine, batch_size=8, cache_size=8, batched=False)
        results_b = batched.serve(stream)
        results_s = sequential.serve(stream)
        for a, b in zip(results_b, results_s):
            np.testing.assert_array_equal(a.distances, b.distances)
        assert batched.stats.batches > 0 and sequential.stats.batches == 0
        # Everything except the execution-mode split is identical.
        assert batched.stats.queries == sequential.stats.queries
        assert batched.stats.coalesced == sequential.stats.coalesced
        assert batched.cache.stats.as_dict() == sequential.cache.stats.as_dict()

    def test_wave_size_controls_admission(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        service.serve([Query("levels", s) for s in range(6)], wave_size=2)
        assert service.stats.flushes == 3
        with pytest.raises(ValueError, match="wave_size"):
            service.serve([], wave_size=0)

    def test_mixed_families_batch_separately(self, engine):
        service = QueryService(engine, batch_size=8, cache_size=16)
        results = service.serve(
            [Query("levels", 0), Query("khop", 0, max_hops=1), Query("levels", 2)],
            wave_size=3,
        )
        assert results[0].distances[0] == 0
        assert results[1].max_hops == 1

    def test_two_identical_graphs_never_share_cache_keys(self, rmat_small, small_layout):
        # Regression: the key must include graph identity, not just
        # (options, program, source) — two separately-built graphs with
        # identical parameters must never collide, even sharing one cache.
        engine_a = TraversalEngine(build_partitions(rmat_small, small_layout, threshold=16))
        engine_b = TraversalEngine(build_partitions(rmat_small, small_layout, threshold=16))
        service_a = QueryService(engine_a, batch_size=2, cache_size=8)
        service_b = QueryService(engine_b, batch_size=2, cache_size=8)
        query = Query("levels", 7)
        assert service_a.key_of(query) != service_b.key_of(query)
        service_b.cache = service_a.cache  # worst case: a literally shared cache
        service_a.query(query)
        service_b.query(query)
        assert service_a.cache.stats.hits == 0  # b could not reuse a's entry
        assert service_a.cache.stats.misses == 2

    def test_graph_token_survives_id_recycling(self, rmat_small, small_layout):
        from repro.serve import graph_token

        tokens = set()
        for _ in range(3):
            graph = build_partitions(rmat_small, small_layout, threshold=16)
            tokens.add(graph_token(graph))
            del graph  # allow id() reuse; tokens must still be distinct
        assert len(tokens) == 3

    def test_stats_snapshot_json_stable(self, engine):
        service = QueryService(engine, batch_size=2, cache_size=4)
        service.query(Query("levels", 0))
        snapshot = service.stats_snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["service"]["queries"] == 1
        assert snapshot["service"]["queries_per_sec"] > 0

    def test_batch_size_validation(self, engine):
        with pytest.raises(ValueError, match="batch_size"):
            QueryService(engine, batch_size=0)

    def test_session_facade(self, rmat_small):
        service = (
            repro.session(layout="2x1x2").load(rmat_small).threshold(16).serve(batch_size=4)
        )
        result = service.query(Query("levels", 0))
        assert int(result.distances[0]) == 0

    # Cache capacities at/above the source pool keep the comparison
    # eviction-free (a coalesced duplicate refreshes LRU recency differently
    # from a per-query cache hit); the batch_size=1 case flushes per query,
    # so even its thrashing cache sees the identical lookup sequence.
    @pytest.mark.parametrize("batch_size,cache_size,batched", [
        (1, 1, True),
        (4, 16, True),
        (16, 64, True),
        (4, 16, False),
    ])
    def test_serve_equals_per_query_loop(self, engine, rmat_small, batch_size, cache_size, batched):
        from repro.graph.degree import out_degrees

        stream = ZipfWorkload(num_queries=32, skew=1.0, pool=10, seed=9).generate(
            rmat_small.num_vertices, degrees=out_degrees(rmat_small)
        )
        bulk = QueryService(
            engine, batch_size=batch_size, cache_size=cache_size, batched=batched
        )
        loop = QueryService(
            engine, batch_size=batch_size, cache_size=cache_size, batched=batched
        )
        bulk_results = bulk.serve(stream)
        loop_results = [loop.query(q) for q in stream]
        for a, b in zip(bulk_results, loop_results):
            np.testing.assert_array_equal(a.distances, b.distances)
        # The cache sees the same unique-miss sequence either way.
        assert bulk.cache.stats.misses == loop.cache.stats.misses

    def test_apply_delta_retains_pending_for_post_mutation_graph(
        self, rmat_small, small_layout
    ):
        from repro.dynamic import DynamicEngine, DynamicGraph
        from repro.dynamic.delta import update_stream

        def fresh_service():
            dyn = DynamicGraph(rmat_small, small_layout, 16)
            return QueryService(DynamicEngine(dyn), batch_size=4, cache_size=8)

        delta = update_stream(rmat_small, num_batches=1, edges_per_batch=64, seed=5)[0]
        service = fresh_service()
        tickets = [service.submit(Query("levels", s)) for s in (0, 3, 7)]
        service.apply_delta(delta, flush_pending=False)
        assert service.pending == 3  # retained, not flushed pre-mutation
        results = service.flush()

        # Ground truth: the same delta applied *before* any query.
        oracle = fresh_service()
        oracle.apply_delta(delta)
        for ticket, source in zip(tickets, (0, 3, 7)):
            np.testing.assert_array_equal(
                results[ticket].distances,
                oracle.query(Query("levels", source)).distances,
            )
        assert service.stats_snapshot()["graph_version"] == 1

    def test_stats_snapshot_schema(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=8)
        service.query(Query("levels", 0))
        service.query(Query("levels", 0))  # one hit
        snapshot = service.stats_snapshot()
        assert snapshot["cache_hit_rate"] == pytest.approx(0.5)
        flush_wall = snapshot["flush_wall"]
        assert flush_wall["count"] == 2
        assert flush_wall["max_s"] >= flush_wall["mean_s"] > 0
        assert flush_wall["max_s"] == service.stats.flush_wall_max_s
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_flush_wall_zero_before_any_flush(self, engine):
        snapshot = QueryService(engine, batch_size=4, cache_size=8).stats_snapshot()
        assert snapshot["flush_wall"] == {"count": 0, "mean_s": 0.0, "max_s": 0.0}
        assert snapshot["cache_hit_rate"] == 0.0


# --------------------------------------------------------------------------- #
# Serving bench scenarios
# --------------------------------------------------------------------------- #
def tiny_serve_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="tiny-serve",
        kind="rmat",
        scale=8,
        program="serve",
        layout="2x1x2",
        threshold=8,
        batch_size=8,
        zipf_skew=1.0,
        num_queries=40,
        pool=24,
        cache_size=16,
        quick=True,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestServeScenarios:
    def test_record_structure(self):
        record = run_scenario(tiny_serve_scenario(), repeats=2)
        assert record["spec"]["program"] == "serve"
        assert record["spec"]["batch_size"] == 8
        assert record["wall_s"]["traversal"] > 0
        assert record["throughput"]["queries"] == 40
        assert record["throughput"]["queries_per_sec"] > 0
        assert record["throughput"]["batched"] is True
        assert record["counters"]["answers_checksum"] != 0
        assert json.loads(json.dumps(record)) == record

    def test_counters_mode_independent(self):
        batched = run_scenario(tiny_serve_scenario(), repeats=1)
        sequential = run_scenario(tiny_serve_scenario(), repeats=1, baseline=True)
        assert batched["counters"] == sequential["counters"]
        assert batched["throughput"]["batched"] is True
        assert sequential["throughput"]["batched"] is False
        assert batched["spec"] == sequential["spec"]

    def test_deterministic_across_runs(self):
        first = run_scenario(tiny_serve_scenario(), repeats=2)
        second = run_scenario(tiny_serve_scenario(), repeats=2)
        assert first["counters"] == second["counters"]

    def test_workload_accessor_guards(self):
        with pytest.raises(ValueError, match="not a serving scenario"):
            Scenario("x", "rmat", 8, "levels").workload()
        with pytest.raises(ValueError, match="no single frontier program"):
            tiny_serve_scenario().make_program(0)

    def test_cli_bench_run_includes_serve(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "run",
                "--scenario", "serve-rmat14-b16-zipf1.0",
                "--repeats", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        record = artifact["scenarios"]["serve-rmat14-b16-zipf1.0"]
        assert record["throughput"]["queries_per_sec"] > 0
        assert "q/s" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# CLI: serve bench, --version
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert repro.__version__ in out

    def test_dunder_version_matches_pyproject(self):
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

    def test_serve_bench_json(self, capsys):
        code = main(
            [
                "serve", "bench",
                "--scale", "9",
                "--queries", "24",
                "--pool", "12",
                "--batch-size", "4",
                "--cache-size", "8",
                "--layout", "2x1x2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "q/s" in out and "speedup" in out

        code = main(
            [
                "serve", "bench",
                "--scale", "9",
                "--queries", "24",
                "--pool", "12",
                "--batch-size", "4",
                "--cache-size", "8",
                "--layout", "2x1x2",
                "--no-baseline",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batched"]["service"]["queries"] == 24
        assert "sequential" not in payload
        # Satellite schema guard: the snapshot stays machine-consumable and
        # carries the derived cache_hit_rate and per-flush wall summary.
        snapshot = payload["batched"]
        assert 0.0 <= snapshot["cache_hit_rate"] <= 1.0
        assert snapshot["flush_wall"]["count"] > 0
        assert snapshot["flush_wall"]["max_s"] >= snapshot["flush_wall"]["mean_s"]

    @pytest.mark.parametrize("argv,message", [
        (["--rate", "100"], "only applies to open-loop"),
        (["--replicas", "3", "--slo-ms", "20"], "open-loop"),
        (["--arrivals", "poisson", "--rate", "-5"], "rate must be positive"),
        (["--arrivals", "poisson", "--replicas", "0"], "num_replicas must be >= 1"),
        (["--arrivals", "bursty", "--queue-limit", "-1"], "queue_limit must be >= 0"),
        (
            ["--arrivals", "poisson", "--replicas", "1", "--hedge-quantile", "0.9"],
            "needs --replicas >= 2",
        ),
        (
            ["--arrivals", "poisson", "--hedge-quantile", "1.5"],
            "must be in \\(0, 1\\)",
        ),
        (
            ["--arrivals", "poisson", "--no-hedge", "--hedge-quantile", "0.9"],
            "contradicts --no-hedge",
        ),
        (["--arrivals", "diurnal", "--slo-ms", "0"], "slo_ms must be positive"),
    ])
    def test_serve_bench_rejects_nonsense_knobs(self, capsys, argv, message):
        import re

        code = main(["serve", "bench", "--scale", "9", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert re.search(message, captured.err)
        assert captured.out == ""  # nothing ran

    def test_serve_bench_open_loop_json(self, capsys):
        code = main(
            [
                "serve", "bench",
                "--scale", "9",
                "--queries", "32",
                "--pool", "16",
                "--batch-size", "4",
                "--cache-size", "8",
                "--layout", "2x1x2",
                "--arrivals", "bursty",
                "--rate", "4000",
                "--replicas", "2",
                "--queue-limit", "8",
                "--slo-ms", "20",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["counters"]
        assert counters["arrivals"] == 32
        assert counters["admitted"] + counters["shed"] == 32
        lat = payload["cluster"]["latency"]
        assert {"p50_ms", "p95_ms", "p99_ms", "slo_violations"} <= set(lat)
        assert lat["slo_ms"] == 20.0
        assert payload["replicas"] == 2
        assert len(payload["replica_snapshots"]) == 2
        assert payload["cluster"]["config"]["queue_limit"] == 8

    def test_serve_bench_open_loop_text_with_updates(self, capsys):
        code = main(
            [
                "serve", "bench",
                "--scale", "9",
                "--queries", "32",
                "--pool", "16",
                "--layout", "2x1x2",
                "--arrivals", "poisson",
                "--rate", "2000",
                "--update-rate", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency p50" in out
        assert "hedging:" in out
        assert "updates: 3 applied" in out


# --------------------------------------------------------------------------- #
# Weighted queries (sssp / pagerank) through the service
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def weighted_engine(small_layout):
    from repro.graph.rmat import generate_rmat

    edges = generate_rmat(10, rng=1, weights_seed=5)
    return TraversalEngine(build_partitions(edges, small_layout, threshold=16))


class TestWeightedQueries:
    def test_sssp_answers_match_direct_engine_runs(self, weighted_engine):
        from repro.weighted import DeltaSteppingSSSP

        service = QueryService(weighted_engine, batch_size=4, cache_size=16)
        for source in (0, 7, 200):
            result = service.query(Query("sssp", source))
            direct = weighted_engine.run(DeltaSteppingSSSP(source, delta="auto"))
            np.testing.assert_array_equal(result.dist_bits, direct.dist_bits)

    def test_pagerank_answers_match_direct_engine_runs(self, weighted_engine):
        from repro.weighted import PageRank

        service = QueryService(weighted_engine, batch_size=4, cache_size=16)
        result = service.query(Query("pagerank", 0, iterations=8))
        direct = weighted_engine.run(PageRank(iterations=8))
        np.testing.assert_array_equal(result.ranks, direct.ranks)

    def test_parameters_are_part_of_the_cache_key(self, weighted_engine):
        service = QueryService(weighted_engine, batch_size=4, cache_size=16)
        narrow = service.query(Query("sssp", 3, delta=0.25))
        wide = service.query(Query("sssp", 3, delta=float("inf")))
        assert narrow is not wide  # same source, different delta: two entries
        assert service.stats.traversals == 2
        again = service.query(Query("sssp", 3, delta=0.25))
        assert again is narrow
        assert service.cache.stats.hits == 1

    def test_pagerank_coalesces_across_sources(self, weighted_engine):
        service = QueryService(weighted_engine, batch_size=8, cache_size=16)
        for source in (0, 5, 9, 100):
            service.submit(Query("pagerank", source, iterations=6))
        results = service.flush()
        # Ranking is source-free: four queries, one traversal, one answer.
        assert all(r is results[0] for r in results)
        assert service.stats.traversals == 1
        distinct = service.query(Query("pagerank", 0, iterations=7))
        assert distinct is not results[0]
        assert service.stats.traversals == 2

    def test_sssp_queries_run_sequentially_not_batched(self, weighted_engine):
        service = QueryService(weighted_engine, batch_size=8, cache_size=16)
        for source in (1, 2, 3):
            service.submit(Query("sssp", source))
        results = service.flush()
        assert len(results) == 3
        assert service.stats.traversals == 3
        assert service.stats.sequential_sources >= 3

    def test_sssp_on_unweighted_graph_rejected(self, engine):
        service = QueryService(engine, batch_size=4, cache_size=16)
        service.submit(Query("sssp", 0))
        with pytest.raises(ValueError, match="weights"):
            service.flush()

    def test_query_parameter_validation(self):
        with pytest.raises(ValueError, match="delta"):
            Query("levels", 0, delta=0.5)
        with pytest.raises(ValueError, match="iterations"):
            Query("pagerank", 0, iterations=0)
        with pytest.raises(ValueError, match="damping|pagerank"):
            Query("khop", 0, max_hops=2, damping=0.9)
