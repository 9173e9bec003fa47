"""Tests for the replicated serving tier (repro.serve.cluster)."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.bench import Scenario, run_scenario
from repro.core.engine import TraversalEngine
from repro.core.programs import BFSLevels
from repro.dynamic import DynamicGraph
from repro.dynamic.delta import update_stream
from repro.graph.degree import out_degrees
from repro.partition.subgraphs import build_partitions
from repro.serve import Query, ZipfWorkload
from repro.serve.cluster import (
    BurstyArrivals,
    ClusterConfig,
    ClusterDispatcher,
    DiurnalArrivals,
    LatencyHistogram,
    OpenLoopWorkload,
    PoissonArrivals,
    ReplicaPool,
    TimedQuery,
    TimedUpdate,
    make_arrivals,
    run_on_virtual_clock,
)
from repro.serve.cluster.virtualtime import VirtualClockEventLoop, virtual_sleep


# --------------------------------------------------------------------------- #
# Latency histogram
# --------------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0 and snap["mean_ms"] == 0.0
        assert snap["p50_ms"] == 0.0 and snap["p99_ms"] == 0.0
        assert snap["buckets"] == {}

    def test_nearest_rank_quantiles_are_observed_samples(self):
        hist = LatencyHistogram()
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        for s in samples:
            hist.record(s)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 3.0
        assert hist.quantile(1.0) == 5.0
        # Every quantile is one of the recorded values, never interpolated.
        for q in np.linspace(0, 1, 21):
            assert hist.quantile(float(q)) in samples

    def test_slo_violations_counted_strictly_above(self):
        hist = LatencyHistogram(slo_ms=10.0)
        for s in (9.0, 10.0, 10.1, 50.0):
            hist.record(s)
        assert hist.slo_violations == 2
        assert LatencyHistogram().slo_violations == 0

    def test_mean_max_and_bucket_totals(self):
        hist = LatencyHistogram()
        for s in (0.05, 1.0, 2.0, 9.0):
            hist.record(s)
        assert hist.mean == pytest.approx(3.0125)
        assert hist.max == 9.0
        assert sum(hist.buckets().values()) == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="slo_ms"):
            LatencyHistogram(slo_ms=0.0)
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="non-negative"):
            hist.record(-1.0)
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)

    def test_snapshot_json_stable(self):
        hist = LatencyHistogram(slo_ms=5.0)
        for s in (0.2, 3.0, 7.0):
            hist.record(s)
        assert json.loads(json.dumps(hist.snapshot())) == hist.snapshot()


# --------------------------------------------------------------------------- #
# Virtual clock
# --------------------------------------------------------------------------- #
class TestVirtualClock:
    def test_sleeps_advance_time_without_waiting(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await virtual_sleep(60_000.0)  # one simulated minute
            return loop.time() - start

        assert run_on_virtual_clock(scenario()) == pytest.approx(60_000.0)

    def test_concurrent_timers_fire_in_timestamp_order(self):
        order: list[str] = []

        async def tick(name: str, delay: float):
            await virtual_sleep(delay)
            order.append(name)

        async def scenario():
            await asyncio.gather(tick("c", 30), tick("a", 10), tick("b", 20))

        run_on_virtual_clock(scenario())
        assert order == ["a", "b", "c"]

    def test_deadlock_raises_instead_of_hanging(self):
        async def scenario():
            await asyncio.get_running_loop().create_future()  # never resolves

        with pytest.raises(RuntimeError, match="virtual clock deadlock"):
            run_on_virtual_clock(scenario())

    def test_cancelled_timer_does_not_steer_the_clock(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            task = loop.create_task(virtual_sleep(5_000.0))
            await virtual_sleep(1.0)
            task.cancel()
            await virtual_sleep(2.0)
            return loop.time()

        assert run_on_virtual_clock(scenario()) == pytest.approx(3.0)

    def test_clock_never_moves_backwards(self):
        loop = VirtualClockEventLoop()
        try:
            loop.advance_to(10.0)
            loop.advance_to(5.0)
            assert loop.time() == 10.0
        finally:
            loop.close()


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #
class TestArrivals:
    def test_streams_deterministic_and_monotone(self):
        for proc in (
            PoissonArrivals(rate_qps=800.0, seed=5),
            BurstyArrivals(rate_qps=800.0, period_ms=100.0, duty=0.5, seed=5),
            DiurnalArrivals(rate_qps=800.0, period_ms=400.0, amplitude=0.9, seed=5),
        ):
            first, second = proc.times(256), proc.times(256)
            np.testing.assert_array_equal(first, second)
            assert np.all(np.diff(first) >= 0)
            assert first[0] >= 0

    def test_poisson_long_run_rate_matches_offered(self):
        times = PoissonArrivals(rate_qps=1000.0, seed=3).times(4096)
        achieved = 4096 / (times[-1] / 1000.0)
        assert achieved == pytest.approx(1000.0, rel=0.1)

    def test_bursty_arrivals_confined_to_on_window(self):
        proc = BurstyArrivals(rate_qps=500.0, period_ms=200.0, duty=0.25, seed=7)
        phase = proc.times(2048) % 200.0
        # All mass lands inside the first duty fraction of each cycle.
        assert np.all(phase <= 200.0 * 0.25 + 1e-9)

    def test_diurnal_inverse_is_exact(self):
        proc = DiurnalArrivals(rate_qps=500.0, period_ms=300.0, amplitude=0.8, seed=9)
        times = proc.times(512)
        # Λ(Λ⁻¹(T)) == T: the bisected inverse round-trips the unit stream.
        rate_per_ms = 0.5
        from repro.serve.cluster.openloop import _unit_poisson

        np.testing.assert_allclose(
            proc._integrated(times, rate_per_ms), _unit_poisson(512, 9), rtol=1e-9
        )

    def test_make_arrivals_dispatch_and_validation(self):
        assert isinstance(make_arrivals("poisson", 100.0), PoissonArrivals)
        assert make_arrivals("bursty", 100.0, period_ms=50.0).period_ms == 50.0
        assert make_arrivals("diurnal", 100.0).period_ms == 1000.0
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrivals("lognormal", 100.0)
        with pytest.raises(ValueError, match="rate must be positive"):
            PoissonArrivals(rate_qps=0.0)
        with pytest.raises(ValueError, match="duty"):
            BurstyArrivals(duty=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(amplitude=1.5)


# --------------------------------------------------------------------------- #
# Open-loop workload
# --------------------------------------------------------------------------- #
class TestOpenLoopWorkload:
    def test_stream_pinned_and_replay_ordered(self):
        spec = OpenLoopWorkload(
            queries=ZipfWorkload(num_queries=64, skew=1.0, pool=16, seed=7),
            arrivals=PoissonArrivals(rate_qps=500.0, seed=13),
        )
        first, second = spec.generate(1024), spec.generate(1024)
        assert first == second
        assert all(isinstance(item, TimedQuery) for item in first)
        at = [item.at_ms for item in first]
        assert at == sorted(at)
        assert [item.index for item in first] == list(range(64))

    def test_updates_spliced_evenly_and_timed_at_next_query(self, rmat_small):
        spec = OpenLoopWorkload(
            queries=ZipfWorkload(num_queries=40, pool=8, seed=3),
            arrivals=PoissonArrivals(rate_qps=500.0, seed=3),
            num_updates=3,
            edges_per_update=32,
        )
        stream = spec.generate(rmat_small.num_vertices, edges=rmat_small)
        updates = [item for item in stream if isinstance(item, TimedUpdate)]
        assert len(updates) == 3
        assert [u.index for u in updates] == [0, 1, 2]
        at = [item.at_ms for item in stream]
        assert at == sorted(at)  # still one totally ordered replay
        for pos, item in enumerate(stream):
            if isinstance(item, TimedUpdate):
                follower = stream[pos + 1]
                assert isinstance(follower, (TimedQuery, TimedUpdate))
                assert item.at_ms == follower.at_ms

    def test_updates_require_edges(self):
        spec = OpenLoopWorkload(num_updates=1)
        with pytest.raises(ValueError, match="requires the prepared edge list"):
            spec.generate(64)

    def test_validation_and_describe(self):
        with pytest.raises(ValueError, match="num_updates"):
            OpenLoopWorkload(num_updates=-1)
        with pytest.raises(ValueError, match="edges_per_update"):
            OpenLoopWorkload(edges_per_update=0)
        desc = OpenLoopWorkload().describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["arrivals"]["kind"] == "poisson"


# --------------------------------------------------------------------------- #
# Replica pool
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cluster_graph(rmat_small, small_layout):
    return build_partitions(rmat_small, small_layout, threshold=16)


def open_stream(rmat_small, n=96, rate=2000.0, **kwargs):
    spec = OpenLoopWorkload(
        queries=ZipfWorkload(num_queries=n, skew=1.0, pool=24, seed=11),
        arrivals=BurstyArrivals(rate_qps=rate, period_ms=50.0, duty=0.25, seed=17),
        **kwargs,
    )
    return spec.generate(
        rmat_small.num_vertices,
        degrees=out_degrees(rmat_small),
        edges=rmat_small if kwargs.get("num_updates") else None,
    )


class TestReplicaPool:
    def test_frozen_replicas_share_one_backend(self, cluster_graph):
        with ReplicaPool(cluster_graph, 3) as pool:
            assert len(pool) == 3
            backends = {id(r.service.engine.backend) for r in pool}
            assert len(backends) == 1
            assert pool.backend_name == pool[0].service.engine.backend_name
            assert pool.graph_version() == 0

    def test_frozen_pool_rejects_deltas(self, cluster_graph, rmat_small):
        delta = update_stream(rmat_small, num_batches=1, edges_per_batch=8, seed=5)[0]
        with ReplicaPool(cluster_graph, 2) as pool:
            with pytest.raises(TypeError, match="frozen"):
                pool.apply_delta(delta)

    def test_dynamic_fanout_converges_all_replicas(
        self, rmat_small, small_layout, cluster_graph
    ):
        dyn = DynamicGraph(rmat_small, small_layout, 16, partitioned=cluster_graph)
        delta = update_stream(rmat_small, num_batches=1, edges_per_batch=16, seed=5)[0]
        with ReplicaPool(dyn, 3) as pool:
            for replica in pool:  # warm every per-replica cache
                replica.service.query(Query("levels", 0))
            pool.apply_delta(delta)
            assert pool.graph_version() == 1
            for replica in pool:
                stats = replica.service.stats
                assert stats.epoch_bumps == 1
                assert stats.entries_invalidated == 1
            # Exactly one replica applied; the rest only bumped their epoch.
            assert sum(r.service.stats.updates for r in pool) == 1

    def test_replica_count_validated(self, cluster_graph):
        with pytest.raises(ValueError, match="num_replicas"):
            ReplicaPool(cluster_graph, 0)

    def test_hedge_probe_bypasses_cache(self, cluster_graph):
        with ReplicaPool(cluster_graph, 2) as pool:
            replica = pool[0]
            result, service_ms = replica.probe_hedge(Query("levels", 5))
            assert service_ms > 0
            assert replica.service.cache.stats.lookups == 0
            assert replica.service.stats.queries == 0
            np.testing.assert_array_equal(
                result.distances,
                replica.service.engine.run(BFSLevels(source=5)).distances,
            )


# --------------------------------------------------------------------------- #
# Cluster dispatcher
# --------------------------------------------------------------------------- #
class TestClusterDispatcher:
    def test_replay_bit_deterministic(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small)
        snaps = []
        for _ in range(2):
            with ReplicaPool(cluster_graph, 3, cache_size=32) as pool:
                snaps.append(
                    ClusterDispatcher(pool, ClusterConfig(queue_limit=16)).run(stream)
                )
        assert snaps[0] == snaps[1]

    def test_gated_counters_mode_independent(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small)

        def replay(**config):
            with ReplicaPool(cluster_graph, 3, cache_size=32) as pool:
                cfg = ClusterConfig(queue_limit=16, hedge_min_samples=8, **config)
                return ClusterDispatcher(pool, cfg).run(stream)

        hedged = replay(hedge=True)
        unhedged = replay(hedge=False)
        assert hedged["counters"] == unhedged["counters"]
        assert hedged["counters"]["arrivals"] == 96
        assert hedged["counters"]["answers_checksum"] != 0
        assert unhedged["cluster"]["hedges_issued"] == 0

    def test_answers_independent_of_replica_count_and_router(
        self, cluster_graph, rmat_small
    ):
        stream = open_stream(rmat_small)
        checksums = set()
        for replicas, router in ((1, "affinity"), (3, "affinity"), (3, "least-queue")):
            with ReplicaPool(cluster_graph, replicas, cache_size=32) as pool:
                cfg = ClusterConfig(queue_limit=0, hedge=False, router=router)
                snap = ClusterDispatcher(pool, cfg).run(stream)
            assert snap["counters"]["shed"] == 0  # unbounded queue admits all
            checksums.add(snap["counters"]["answers_checksum"])
        assert len(checksums) == 1

    def test_answers_match_direct_engine(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small, n=24)
        engine = TraversalEngine(cluster_graph)
        answered: dict[int, object] = {}
        with ReplicaPool(cluster_graph, 2, cache_size=16) as pool:
            cfg = ClusterConfig(queue_limit=0, hedge_min_samples=4)
            ClusterDispatcher(pool, cfg).run(
                stream, on_answer=lambda index, result: answered.setdefault(index, result)
            )
        assert sorted(answered) == list(range(24))
        for item in stream:
            expected = engine.run(BFSLevels(source=item.query.source))
            np.testing.assert_array_equal(
                answered[item.index].distances, expected.distances
            )

    def test_bounded_queue_sheds_and_counts(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small, rate=20000.0)  # far past capacity
        with ReplicaPool(cluster_graph, 2, cache_size=8) as pool:
            snap = ClusterDispatcher(pool, ClusterConfig(queue_limit=4)).run(stream)
        counters = snap["counters"]
        assert counters["shed"] > 0
        assert counters["admitted"] + counters["shed"] == counters["arrivals"]
        assert counters["inflight_peak"] <= 4
        assert snap["cluster"]["latency"]["count"] == counters["admitted"]

    def test_update_fanout_during_replay(self, cluster_graph, rmat_small, small_layout):
        stream = open_stream(rmat_small, num_updates=2, edges_per_update=16)
        dyn = DynamicGraph(rmat_small, small_layout, 16, partitioned=cluster_graph)
        with ReplicaPool(dyn, 3, cache_size=32) as pool:
            snap = ClusterDispatcher(pool, ClusterConfig(queue_limit=16)).run(stream)
            assert pool.graph_version() == 2
        counters = snap["counters"]
        assert counters["updates"] == 2
        assert counters["final_graph_version"] == 2

    def test_hedging_requires_two_replicas(self, cluster_graph):
        with ReplicaPool(cluster_graph, 1) as pool:
            with pytest.raises(ValueError, match="hedg"):
                ClusterDispatcher(pool, ClusterConfig(hedge=True))
            ClusterDispatcher(pool, ClusterConfig(hedge=False))  # fine

    def test_dispatcher_is_single_use(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small, n=8)
        with ReplicaPool(cluster_graph, 2) as pool:
            dispatcher = ClusterDispatcher(pool, ClusterConfig(hedge=False))
            dispatcher.run(stream)
            with pytest.raises(RuntimeError, match="exactly one stream"):
                dispatcher.run(stream)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="queue_limit"):
            ClusterConfig(queue_limit=-1)
        with pytest.raises(ValueError, match="hedge_quantile"):
            ClusterConfig(hedge_quantile=1.0)
        with pytest.raises(ValueError, match="router"):
            ClusterConfig(router="random")
        with pytest.raises(ValueError, match="slo_ms"):
            ClusterConfig(slo_ms=-5.0)

    def test_snapshot_json_stable(self, cluster_graph, rmat_small):
        stream = open_stream(rmat_small, n=32)
        with ReplicaPool(cluster_graph, 2, cache_size=16) as pool:
            snap = ClusterDispatcher(pool, ClusterConfig(slo_ms=10.0)).run(stream)
        assert json.loads(json.dumps(snap)) == snap
        lat = snap["cluster"]["latency"]
        assert {"p50_ms", "p95_ms", "p99_ms", "slo_violations"} <= set(lat)
        assert snap["cluster"]["virtual_makespan_ms"] > 0
        assert snap["cluster"]["achieved_qps"] > 0


# --------------------------------------------------------------------------- #
# Session facade
# --------------------------------------------------------------------------- #
class TestSessionFacade:
    def test_serve_cluster_round_trip(self, rmat_small):
        import repro

        sess = repro.session(layout="2x1x2").load(rmat_small).threshold(16)
        pool, dispatcher = sess.serve_cluster(2, slo_ms=25.0, queue_limit=0)
        stream = OpenLoopWorkload(
            queries=ZipfWorkload(num_queries=16, pool=8, seed=3)
        ).generate(rmat_small.num_vertices)
        with pool:
            snap = dispatcher.run(stream)
        assert snap["counters"]["admitted"] == 16
        assert snap["cluster"]["latency"]["slo_ms"] == 25.0

    def test_single_replica_never_hedges(self, rmat_small):
        import repro

        sess = repro.session(layout="2x1x2").load(rmat_small).threshold(16)
        pool, dispatcher = sess.serve_cluster(1)
        with pool:
            assert dispatcher.config.hedge is False


# --------------------------------------------------------------------------- #
# Bench scenarios
# --------------------------------------------------------------------------- #
def tiny_cluster_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="tiny-cluster",
        kind="rmat",
        scale=8,
        program="serve_cluster",
        layout="2x1x2",
        threshold=8,
        batch_size=8,
        zipf_skew=1.0,
        num_queries=48,
        pool=24,
        cache_size=16,
        arrivals="bursty",
        arrival_rate_qps=4000.0,
        burst_period_ms=50.0,
        num_replicas=2,
        queue_limit=8,
        hedge_min_samples=8,
        hedge_quantile=0.9,
        slo_ms=20.0,
        quick=True,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestClusterScenarios:
    def test_record_structure(self):
        record = run_scenario(tiny_cluster_scenario(), repeats=2)
        assert record["spec"]["program"] == "serve_cluster"
        assert record["spec"]["num_replicas"] == 2
        assert record["wall_s"]["traversal"] > 0
        assert record["modeled_ms"]["elapsed_ms"] > 0
        assert record["counters"]["answers_checksum"] != 0
        assert record["cluster"]["latency"]["count"] == record["counters"]["admitted"]
        assert json.loads(json.dumps(record)) == record

    def test_counters_mode_independent_and_spec_identical(self):
        hedged = run_scenario(tiny_cluster_scenario(), repeats=1)
        unhedged = run_scenario(tiny_cluster_scenario(), repeats=1, baseline=True)
        assert hedged["counters"] == unhedged["counters"]
        assert hedged["spec"] == unhedged["spec"]
        assert unhedged["cluster"]["hedges_issued"] == 0

    def test_counters_backend_independent(self):
        inline = run_scenario(tiny_cluster_scenario(), repeats=1)
        process = run_scenario(tiny_cluster_scenario(), repeats=1, backend="process")
        assert inline["counters"] == process["counters"]
        assert process["backend"] == "process"

    def test_update_scenario_converges_graph_version(self):
        record = run_scenario(
            tiny_cluster_scenario(cluster_updates=2, update_edges=32), repeats=1
        )
        assert record["counters"]["updates"] == 2
        assert record["counters"]["final_graph_version"] == 2
        assert record["spec"]["cluster_updates"] == 2

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="arrival kind"):
            tiny_cluster_scenario(arrivals="steady")
        with pytest.raises(ValueError, match="arrival rate must be positive"):
            tiny_cluster_scenario(arrival_rate_qps=0.0)
        with pytest.raises(ValueError, match="num_replicas"):
            tiny_cluster_scenario(num_replicas=0)
        with pytest.raises(ValueError, match="num_updates"):
            tiny_cluster_scenario(cluster_updates=-1)
        with pytest.raises(ValueError, match="not a cluster scenario"):
            Scenario("x", "rmat", 8, "levels").cluster_config()
