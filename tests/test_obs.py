"""Tests for the observability layer (:mod:`repro.obs`).

The load-bearing properties:

* **Trace invariance** — enabling tracing must not change traversal results
  or deterministic workload counters, across every execution backend and
  storage tier (only wall clock may move, and only within noise).
* **Zero overhead when off** — the disabled tracer is an allocation-free
  no-op singleton, so instrumented hot paths cost nothing by default.
* **Well-formed artifacts** — exported traces are valid Chrome
  ``trace_event`` JSON with correctly nested spans (worker spans inside
  their super-step's kernel span), JSONL round-trips, ``trace summarize``
  aggregates them, and ``stats_snapshot()`` dictionaries flatten to valid
  Prometheus text exposition format.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.artifact import new_artifact
from repro.bench.compare import compare_artifacts
from repro.bench.runner import run_suite
from repro.bench.scenarios import Scenario
from repro.core.engine import TraversalEngine
from repro.core.programs import BatchedBFSLevels, BFSLevels
from repro.core.programs.table import PROGRAM_TABLE, make_program
from repro.graph.rmat import generate_rmat
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    get_tracer,
    load_trace,
    prometheus_text,
    set_tracer,
    summarize_events,
    summary_lines,
    write_trace,
)
from repro.obs.tracer import _NullSpan
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import apply_storage
from repro.utils.timing import now_s
from repro.weighted import DeltaSteppingSSSP

LAYOUT = ClusterLayout(num_ranks=2, gpus_per_rank=2)


@pytest.fixture()
def fresh_tracer():
    """Install a fresh enabled tracer, restoring the previous one after."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


# --------------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_tracer_is_allocation_free(self):
        span_a = NULL_TRACER.span("a", cat="x")
        span_b = NULL_TRACER.span("b", cat="y")
        assert span_a is span_b  # the one shared singleton
        assert isinstance(span_a, _NullSpan)
        with span_a as s:
            s.annotate(key="v")
        NULL_TRACER.event("e")
        NULL_TRACER.record_span("s", start=0.0, dur=1.0)
        NULL_TRACER.instant("i", ts=1.0)
        assert NULL_TRACER.events == []

    def test_disabled_guard_overhead_is_negligible(self):
        """The `if tracer.enabled:` guard is a plain attribute read."""
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        n = 200_000
        started = now_s()
        for _ in range(n):
            if tracer.enabled:  # pragma: no cover - never taken
                tracer.record_span("x", cat="y", start=0.0, dur=1.0)
        per_guard = (now_s() - started) / n
        # An attribute read plus a branch: generously bounded at 5 µs to
        # stay robust on loaded CI hosts (typically ~20-50 ns).
        assert per_guard < 5e-6

    def test_span_records_normalized_microseconds(self):
        ticks = iter([2.0, 5.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("work", cat="test", args={"k": 1}) as span:
            span.annotate(extra=2)
        (event,) = tracer.events
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(2e6)
        assert event["dur"] == pytest.approx(3e6)
        assert event["args"] == {"k": 1, "extra": 2}

    def test_record_span_units_and_clamping(self):
        tracer = Tracer()
        tracer.record_span("a", start=1.0, dur=0.5, unit="s")
        tracer.record_span("b", start=1.0, dur=0.5, unit="ms")
        tracer.record_span("c", start=1.0, dur=-0.5, unit="us")
        a, b, c = tracer.events
        assert a["ts"] == pytest.approx(1e6) and a["dur"] == pytest.approx(5e5)
        assert b["ts"] == pytest.approx(1e3) and b["dur"] == pytest.approx(5e2)
        assert c["ts"] == pytest.approx(1.0) and c["dur"] == 0.0  # clamped

    def test_instant_and_event(self):
        ticks = iter([4.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.event("clocked", cat="test", value=7)
        tracer.instant("explicit", cat="cluster", ts=3.0, unit="ms")
        clocked, explicit = tracer.events
        assert clocked["ph"] == "i" and clocked["ts"] == pytest.approx(4e6)
        assert clocked["args"] == {"value": 7}
        assert explicit["ph"] == "i" and explicit["ts"] == pytest.approx(3e3)

    def test_invalid_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            Tracer(unit="ns")

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            assert set_tracer(previous) is tracer
        assert set_tracer(None) is previous or get_tracer() is NULL_TRACER
        set_tracer(previous)

    def test_clear(self):
        tracer = Tracer()
        tracer.record_span("x", start=0.0, dur=1.0)
        tracer.clear()
        assert tracer.events == []


# --------------------------------------------------------------------------- #
# Trace invariance across backends and storage tiers
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def inv_edges():
    return generate_rmat(9, rng=5)


@pytest.fixture(scope="module")
def inv_graphs(inv_edges):
    base = build_partitions(inv_edges, LAYOUT, 32)
    return {
        "memory": base,
        "mmap": apply_storage(base, "mmap"),
        "compressed": apply_storage(base, "compressed"),
    }


@pytest.fixture(scope="module")
def inv_baseline(inv_graphs):
    """The untraced inline/memory reference result."""
    engine = TraversalEngine(inv_graphs["memory"])
    try:
        return engine.run(BFSLevels(1))
    finally:
        engine.close()


def assert_results_identical(a, b) -> None:
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.iterations == b.iterations
    assert a.total_edges_examined == b.total_edges_examined
    assert a.workload_by_kernel() == b.workload_by_kernel()
    assert a.comm_stats.as_dict() == b.comm_stats.as_dict()
    assert a.timing.elapsed_ms == b.timing.elapsed_ms


class TestTraceInvariance:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("storage", ["memory", "mmap", "compressed"])
    def test_counters_identical_tracing_on(
        self, inv_graphs, inv_baseline, backend, storage
    ):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            engine = TraversalEngine(inv_graphs[storage], backend=backend)
            try:
                result = engine.run(BFSLevels(1))
            finally:
                engine.close()
        finally:
            set_tracer(previous)
        assert_results_identical(result, inv_baseline)
        cats = {e["cat"] for e in tracer.events}
        assert {"engine", "worker"} <= cats
        assert "exec" not in cats

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_worker_spans_nest_inside_plan_spans(self, inv_graphs, backend):
        """Every worker span sits inside its super-step's ``plan+direction``
        span: the walk runs the kernels it decides."""
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            engine = TraversalEngine(inv_graphs["memory"], backend=backend)
            try:
                engine.run(BFSLevels(1))
            finally:
                engine.close()
        finally:
            set_tracer(previous)
        plan_spans = [
            e for e in tracer.events if e["cat"] == "engine" and e["name"] == "plan+direction"
        ]
        worker_spans = [e for e in tracer.events if e["cat"] == "worker"]
        assert plan_spans and worker_spans
        slack_us = 1.0  # rounding of the microsecond timestamps
        for w in worker_spans:
            assert any(
                k["ts"] - slack_us <= w["ts"]
                and w["ts"] + w["dur"] <= k["ts"] + k["dur"] + slack_us
                for k in plan_spans
            ), f"worker span {w['name']} at {w['ts']} outside every plan+direction span"
            assert w["tid"] >= 1  # per-GPU track, off the main thread's 0

    @pytest.mark.parametrize("kind", ["levels", "batched", "sssp"])
    def test_every_step_has_one_plan_span(self, fresh_tracer, kind):
        """One ``plan+direction`` span per ``super-step`` span per iteration,
        each nested in its step — for every program the one step loop drives
        (the delta-stepping driver used to emit none)."""
        edges = generate_rmat(9, rng=5, weights_seed=3)
        with TraversalEngine(build_partitions(edges, LAYOUT, 32)) as engine:
            if kind == "levels":
                result = engine.run(BFSLevels(1))
            elif kind == "batched":
                result = engine.run_batch(BatchedBFSLevels([1, 2]))
            else:
                result = engine.run(DeltaSteppingSSSP(1, delta=0.25))
        spans = {
            name: [e for e in fresh_tracer.events if e["name"] == name]
            for name in ("plan+direction", "super-step")
        }
        steps = spans["super-step"]
        assert len(steps) == len(spans["plan+direction"]) == result.iterations > 1
        for plan, step in zip(spans["plan+direction"], steps):
            assert plan["args"]["level"] == step["args"]["level"]
            assert step["ts"] <= plan["ts"]
            assert plan["ts"] + plan["dur"] <= step["ts"] + step["dur"]

    @pytest.mark.parametrize("name", list(PROGRAM_TABLE))
    def test_every_program_accounts_its_run_once(self, name):
        """Every program's run — the level loop's and each driver's — records
        one ``traversal`` span and the same seven ``wall_s`` keys, and
        tracing it changes no counter."""
        edges = generate_rmat(9, rng=5, weights_seed=3)
        program = make_program(name, 1, **({"max_hops": 2} if name == "khop" else {}))
        with TraversalEngine(build_partitions(edges, LAYOUT, 32)) as engine:
            untraced = engine.run(program)
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                traced = engine.run(program)
            finally:
                set_tracer(previous)
        (span,) = [e for e in tracer.events if e["name"] == "traversal"]
        assert span["cat"] == "engine"
        assert span["args"]["program"] == program.name
        assert span["args"]["iterations"] == traced.iterations
        keys = {"kernels", "plan", "fold", "overlay", "exchange", "delegate_reduce", "traversal"}
        assert set(traced.wall_s) == set(untraced.wall_s) == keys
        assert traced.iterations == untraced.iterations
        assert traced.total_edges_examined == untraced.total_edges_examined
        assert traced.workload_by_kernel() == untraced.workload_by_kernel()
        assert traced.comm_stats.as_dict() == untraced.comm_stats.as_dict()
        assert traced.timing.elapsed_ms == untraced.timing.elapsed_ms
        for field in type(traced).answer_fields:
            np.testing.assert_array_equal(getattr(traced, field), getattr(untraced, field))

    def test_disabled_tracing_records_nothing(self, inv_graphs):
        assert get_tracer() is NULL_TRACER
        engine = TraversalEngine(inv_graphs["memory"], backend="process")
        try:
            engine.run(BFSLevels(1))
        finally:
            engine.close()
        assert NULL_TRACER.events == []


# --------------------------------------------------------------------------- #
# Exporters and the summarizer
# --------------------------------------------------------------------------- #
class TestExporters:
    def _tracer_with_events(self) -> Tracer:
        tracer = Tracer()
        tracer.record_span("outer", cat="engine", start=0.0, dur=2.0, args={"n": 1})
        tracer.record_span("inner", cat="worker", start=0.5, dur=1.0, tid=2)
        tracer.instant("mark", cat="cluster", ts=1.0, unit="ms")
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._tracer_with_events()
        payload = chrome_trace(tracer.events)
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert len(payload["traceEvents"]) == 3
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert "ts" in event and "pid" in event and "tid" in event

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_write_load_round_trip(self, tmp_path, suffix):
        tracer = self._tracer_with_events()
        path = write_trace(tracer, tmp_path / f"trace{suffix}")
        events = load_trace(path)
        assert events == tracer.events
        json.loads(path.read_text().splitlines()[0])  # both formats are JSON lines/objects

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace(path)

    def test_summarize_events(self):
        tracer = self._tracer_with_events()
        summary = summarize_events(tracer.events)
        assert summary["events"] == 3
        assert summary["spans"]["engine/outer"]["count"] == 1
        assert summary["spans"]["engine/outer"]["total_ms"] == pytest.approx(2e3)
        assert summary["spans"]["worker/inner"]["mean_ms"] == pytest.approx(1e3)
        assert summary["instants"] == {"cluster/mark": 1}
        # Hottest span leads.
        assert next(iter(summary["spans"])) == "engine/outer"
        lines = summary_lines(summary)
        assert any("engine/outer" in line for line in lines)


# --------------------------------------------------------------------------- #
# Metrics and Prometheus exposition
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_registry_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("queries", 3)
        registry.counter("queries", 2)
        registry.gauge("inflight", 7)
        registry.histogram("latency_ms").record(1.0)
        registry.histogram("latency_ms").record(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["queries"] == 5
        assert snap["gauges"]["inflight"] == 7
        assert snap["histograms"]["latency_ms"]["count"] == 2
        text = registry.to_prometheus()
        assert "repro_counters_queries 5" in text

    def test_prometheus_text_flattening(self):
        snapshot = {
            "service": {"queries": 10, "wall_s": 1.5},
            "cache_hit_rate": 0.25,
            "enabled": True,
            "name": "ignored-string",
            "missing": None,
            "latency": {"p95 ms": 2.5},
        }
        text = prometheus_text(snapshot)
        assert "repro_service_queries 10" in text
        assert "repro_cache_hit_rate 0.25" in text
        assert "repro_enabled 1" in text
        assert "repro_latency_p95_ms 2.5" in text  # sanitized name
        assert "ignored-string" not in text
        assert "missing" not in text
        assert text.endswith("\n")


# --------------------------------------------------------------------------- #
# Bench integration: trace sections and the machine-readable compare
# --------------------------------------------------------------------------- #
def tiny_scenario() -> Scenario:
    return Scenario(
        name="tiny-levels",
        kind="rmat",
        scale=9,
        program="levels",
        layout="2x1x2",
        threshold=32,
        sources=1,
        quick=True,
    )


class TestBenchIntegration:
    def test_run_suite_records_trace_section(self, fresh_tracer):
        artifact = run_suite([tiny_scenario()], repeats=1)
        record = artifact["scenarios"]["tiny-levels"]
        assert "trace" in record
        assert record["trace"]["events"] > 0
        assert any(key.startswith("engine/") for key in record["trace"]["spans"])

    def test_run_suite_untraced_has_no_trace_section(self):
        assert get_tracer() is NULL_TRACER
        artifact = run_suite([tiny_scenario()], repeats=1)
        assert "trace" not in artifact["scenarios"]["tiny-levels"]

    def test_compare_json_drift_list(self):
        def record(traversal_s: float, checksum: int) -> dict:
            return {
                "spec": {"kind": "rmat", "scale": 10, "program": "levels"},
                "repeats": 1,
                "wall_s": {"traversal": traversal_s},
                "modeled_ms": {"elapsed_ms": 1.0},
                "counters": {"values_checksum": checksum},
            }

        old = new_artifact(
            {"a": record(0.100, 1), "b": record(0.100, 2)}, label="old"
        )
        new = new_artifact(
            {"a": record(0.150, 1), "b": record(0.100, 99)}, label="new"
        )
        payload = compare_artifacts(old, new).as_dict()
        by_name = {s["name"]: s for s in payload["scenarios"]}
        assert by_name["a"]["status"] == "ok"  # walls are recorded, not judged
        assert payload["counter_drift_scenarios"] == [
            {"name": "b", "note": by_name["b"]["note"]}
        ]
        assert "values_checksum" in payload["counter_drift_scenarios"][0]["note"]
        assert not payload["ok"]
        json.dumps(payload)  # must be JSON-serializable as-is


# --------------------------------------------------------------------------- #
# Serving-tier spans
# --------------------------------------------------------------------------- #
class TestServeSpans:
    def test_service_flush_spans_and_cache_events(self, fresh_tracer, inv_graphs):
        from repro.serve import Query, QueryService

        engine = TraversalEngine(inv_graphs["memory"])
        try:
            service = QueryService(engine, batch_size=8, cache_size=16)
            service.submit(Query(program="levels", source=1))
            service.submit(Query(program="levels", source=1))
            service.flush()
            service.submit(Query(program="levels", source=1))
            service.flush()
        finally:
            engine.close()
        names = [(e["cat"], e["name"]) for e in fresh_tracer.events]
        assert names.count(("serve", "flush")) == 2
        assert ("serve", "cache-miss") in names
        assert ("serve", "cache-hit") in names
        assert ("serve", "coalesce") in names
        flushes = [
            e for e in fresh_tracer.events
            if e["cat"] == "serve" and e["name"] == "flush"
        ]
        assert flushes[0]["args"]["misses"] == 1
        assert flushes[1]["args"]["hits"] == 1


# --------------------------------------------------------------------------- #
# Session facade
# --------------------------------------------------------------------------- #
class TestSessionTrace:
    def test_session_trace_and_write(self, tmp_path):
        import repro

        path = tmp_path / "session.trace.json"
        s = repro.session(layout="2x1x2").generate(scale=9, seed=5).trace(path)
        try:
            s.bfs(1)
            assert s.tracer is not None and s.tracer.events
            out = s.write_trace()
            events = load_trace(out)
            assert any(e["name"] == "traversal" for e in events)
        finally:
            set_tracer(None)

    def test_write_trace_without_trace_raises(self):
        import repro

        s = repro.session()
        with pytest.raises(RuntimeError, match="trace"):
            s.write_trace()
