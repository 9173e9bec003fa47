"""Tests for the pluggable execution-backend layer (:mod:`repro.exec`).

The load-bearing property is *configuration equivalence*: every cell of
the backend (inline / process) x storage (memory / mmap / compressed) matrix
must produce bit-identical results, workload counters and modeled times for
every program, option set and delegate threshold — only wall-clock may
differ.  The sweep below runs the BFS option grid (DO on/off, BR/IR) across
the delegate-threshold extremes (1 = almost everything is a delegate, auto,
effectively-infinite = no delegates) over all four shipped programs plus the
batched MS-BFS path, comparing each cell with inline x memory.

Also covered: backend selection (engine / session / CLI; the precedence of
arguments, scenario pins and the environment is tests/test_exec_config.py's),
engine-owned backend lifecycle, and the ``run_many`` batch-routing edge
cases (1-lane batches must never be built).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import (
    BatchedBFSLevels,
    BatchedReachability,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    KHopReachability,
)
from repro.exec import (
    BACKEND_NAMES,
    InlineBackend,
    ProcessBackend,
    resolve_backend,
)
from repro.graph.rmat import generate_rmat
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import apply_storage

LAYOUT = ClusterLayout(num_ranks=2, gpus_per_rank=2)

#: Delegate-threshold axis: almost-all-delegates, the paper's suggestion,
#: and no-delegates-at-all (every vertex stays normal).
THRESHOLDS = ("one", "auto", "inf")

#: BFS option grid of the equivalence sweep.
OPTION_GRID = {
    "DO+BR": BFSOptions(),
    "DO+IR": BFSOptions(blocking_reduce=False),
    "plain+BR": BFSOptions(direction_optimized=False),
}


@pytest.fixture(scope="module")
def edges():
    return generate_rmat(9, rng=5)


@pytest.fixture(scope="module")
def graphs(edges):
    resolved = {
        "one": 1,
        "auto": suggest_threshold(edges, LAYOUT.num_gpus),
        "inf": 1 << 30,
    }
    return {key: build_partitions(edges, LAYOUT, th) for key, th in resolved.items()}


@pytest.fixture(scope="module")
def process_backends(graphs):
    """One shared ProcessBackend per graph (pool + shared memory reused)."""
    backends = {key: ProcessBackend(graph, workers=2) for key, graph in graphs.items()}
    yield backends
    for backend in backends.values():
        backend.close()


#: Every backend x storage cell but the reference, inline x memory.
CELLS = {
    "process": ("process", "memory"),
    "mmap": ("inline", "mmap"),
    "compressed": ("inline", "compressed"),
    "process-mmap": ("process", "mmap"),
    "process-compressed": ("process", "compressed"),
}


@pytest.fixture(scope="module", params=list(CELLS))
def remote(request, graphs, tmp_path_factory):
    """One cell of :data:`CELLS`: threshold -> ``(graph, backend)``, the graph
    in the cell's storage and the backend built over it."""
    backend, storage = CELLS[request.param]
    root = tmp_path_factory.mktemp(request.param)
    cell = {}
    for key, graph in graphs.items():
        if storage != "memory":
            graph = apply_storage(graph, storage, path=root / key)
        cell[key] = (graph, ProcessBackend(graph, workers=2) if backend == "process" else backend)
    yield cell
    for _, backend in cell.values():
        if isinstance(backend, ProcessBackend):
            backend.close()


def assert_results_identical(a, b) -> None:
    """Two traversal results must match bit for bit, wall-clock excepted."""
    for attr in ("distances", "parents", "labels"):
        va, vb = getattr(a, attr, None), getattr(b, attr, None)
        assert (va is None) == (vb is None)
        if va is not None:
            np.testing.assert_array_equal(va, vb)
    assert a.iterations == b.iterations
    assert a.total_edges_examined == b.total_edges_examined
    assert a.workload_by_kernel() == b.workload_by_kernel()
    assert a.comm_stats.as_dict() == b.comm_stats.as_dict()
    assert a.timing.elapsed_ms == b.timing.elapsed_ms
    assert a.timing.as_dict() == b.timing.as_dict()
    for ra, rb in zip(a.records, b.records):
        assert ra.edges_examined == rb.edges_examined
        assert ra.directions == rb.directions
        assert ra.discovered == rb.discovered


# --------------------------------------------------------------------------- #
# The equivalence sweep over the backend x storage matrix
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("label", sorted(OPTION_GRID))
    @pytest.mark.parametrize("program_name", ["levels", "parents", "components", "khop"])
    def test_sequential_programs(self, graphs, remote, threshold, label, program_name):
        graph, backend = remote[threshold]
        make = {
            "levels": lambda: BFSLevels(source=3),
            "parents": lambda: BFSParents(source=3),
            "components": lambda: ConnectedComponents(),
            "khop": lambda: KHopReachability(source=3, max_hops=3),
        }[program_name]
        options = OPTION_GRID[label]
        reference = TraversalEngine(graphs[threshold], options=options)
        cell = TraversalEngine(graph, options=options, backend=backend)
        assert_results_identical(reference.run(make()), cell.run(make()))

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_batched_sweeps(self, graphs, remote, threshold):
        graph, backend = remote[threshold]
        # 70 lanes forces multi-word lane bitsets through the shared-memory
        # dense scratch; the reachability batch exercises the hop cap.
        factories = (
            lambda: BatchedBFSLevels(list(range(70))),
            lambda: BatchedReachability([5, 9, 11], max_hops=2),
        )
        for make in factories:
            a = TraversalEngine(graphs[threshold]).run_batch(make())
            b = TraversalEngine(graph, backend=backend).run_batch(make())
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.comm_stats.as_dict() == b.comm_stats.as_dict()
            assert a.timing.elapsed_ms == b.timing.elapsed_ms
            assert a.workload_by_kernel() == b.workload_by_kernel()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_multiword_batch_with_pulls_matches_sequential(
        self, graphs, process_backends, backend
    ):
        """A 70-lane (two-word) batch whose nd kernels pull — so the dense
        *local* lane-word buffer is published next to the delegate one — with
        sequential runs before and after it on the same backend, so one dense
        scratch serves flags, then wider lane words, then flags again."""
        graph = graphs["auto"]
        sources = list(range(70))
        reference = TraversalEngine(graph).run_batch(BatchedBFSLevels(sources))
        assert any(r.directions["nd"] for r in reference.records)
        engine = TraversalEngine(
            graph, backend=process_backends["auto"] if backend == "process" else backend
        )
        before = [engine.run(BFSLevels(source=s)).distances for s in sources[:3]]
        batch = engine.run_batch(BatchedBFSLevels(sources))
        after = [engine.run(BFSLevels(source=s)).distances for s in sources[3:]]
        for lane, distances in enumerate(before + after):
            np.testing.assert_array_equal(batch.distances[lane], distances)
        assert len(batch.records) == len(reference.records)
        for got, want in zip(batch.records, reference.records):
            assert got == want  # every counter and modeled time of the step

    def test_run_many_with_dedup_and_batches(self, graphs, remote):
        graph, backend = remote["auto"]
        programs = [BFSLevels(source=s) for s in [2, 7, 2, 9, 13, 7, 21]]
        reference = TraversalEngine(graphs["auto"]).run_many(list(programs), batch_size=4)
        cell = TraversalEngine(graph, backend=backend).run_many(list(programs), batch_size=4)
        assert reference.saved_traversals == cell.saved_traversals == 2
        for a, b in zip(reference, cell):
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_option_label_axis_is_complete(self):
        # The sweep's labels really are the configurations they claim.
        assert OPTION_GRID["DO+BR"].label() == "DO+BR"
        assert OPTION_GRID["DO+IR"].label() == "DO+IR"
        assert OPTION_GRID["plain+BR"].label() == "plain+BR"


# --------------------------------------------------------------------------- #
# Backend selection and lifecycle
# --------------------------------------------------------------------------- #
class TestBackendSelection:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("inline", "process")

    def test_resolve_backend_ownership(self, graphs):
        graph = graphs["auto"]
        backend, owned = resolve_backend("inline", graph)
        assert isinstance(backend, InlineBackend) and owned
        shared = InlineBackend(graph)
        backend, owned = resolve_backend(shared, graph)
        assert backend is shared and not owned
        for name in ("teleport", "thread"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                resolve_backend(name, graph)

    def test_engine_owns_named_backend_but_not_instances(self, graphs, process_backends):
        graph = graphs["auto"]
        engine = TraversalEngine(graph, backend="inline")
        assert engine.backend_name == "inline"
        engine.close()

        shared = process_backends["auto"]
        engine = TraversalEngine(graph, backend=shared)
        engine.run(BFSLevels(source=0))
        engine.close()  # must NOT close the shared backend
        assert not shared._closed
        # ... the shared pool still works afterwards.
        TraversalEngine(graph, backend=shared).run(BFSLevels(source=1))

    def test_use_backend_switches_in_place(self, graphs):
        graph = graphs["auto"]
        engine = TraversalEngine(graph)
        a = engine.run(BFSLevels(source=3))
        engine.use_backend("inline")
        b = engine.run(BFSLevels(source=3))
        assert_results_identical(a, b)

    def test_process_backend_rejects_bad_workers(self, graphs):
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(graphs["auto"], workers=0)

    def test_closed_process_backend_refuses_work(self, graphs):
        backend = ProcessBackend(graphs["auto"], workers=1)
        engine = TraversalEngine(graphs["auto"], backend=backend)
        engine.run(BFSLevels(source=0))
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(BFSLevels(source=0))

    def test_session_threads_backend_through(self, graphs, process_backends):
        import repro

        result = (
            repro.session(layout="2x1x2")
            .generate(scale=9, seed=5)
            .backend(process_backends["auto"])
            .bfs(3)
        )
        reference = repro.session(layout="2x1x2").generate(scale=9, seed=5).bfs(3)
        np.testing.assert_array_equal(result.distances, reference.distances)

    def test_graph_session_backend_switch_and_name(self):
        import repro

        graph_session = (
            repro.session(layout="2x1x2", backend="inline")
            .generate(scale=9, seed=5)
            .build()
        )
        assert graph_session.backend_name == "inline"
        graph_session.backend("inline")
        assert graph_session.engine.backend_name == "inline"
        graph_session.close()


# --------------------------------------------------------------------------- #
# run_many batch routing (satellite: no 1-lane batches, ever)
# --------------------------------------------------------------------------- #
class TestRunManyBatchRouting:
    @pytest.fixture()
    def engine(self, graphs):
        return TraversalEngine(graphs["auto"])

    def _trap_run_batch(self, engine, monkeypatch):
        calls = []
        original = engine.run_batch

        def spy(program, overlay=None):
            calls.append(program.width)
            assert program.width >= 2, "a 1-lane batch must never be built"
            return original(program, overlay=overlay)

        monkeypatch.setattr(engine, "run_batch", spy)
        return calls

    def test_batch_size_one_routes_sequential(self, engine, monkeypatch):
        calls = self._trap_run_batch(engine, monkeypatch)
        campaign = engine.run_many(
            [BFSLevels(source=s) for s in (1, 2, 3)], batch_size=1
        )
        assert calls == []
        assert len(campaign) == 3

    def test_single_program_list_routes_sequential(self, engine, monkeypatch):
        calls = self._trap_run_batch(engine, monkeypatch)
        campaign = engine.run_many([BFSLevels(source=4)], batch_size=32)
        assert calls == []
        assert len(campaign) == 1

    def test_duplicates_collapsing_to_one_route_sequential(self, engine, monkeypatch):
        calls = self._trap_run_batch(engine, monkeypatch)
        campaign = engine.run_many(
            [BFSLevels(source=6), BFSLevels(source=6), BFSLevels(source=6)],
            batch_size=32,
        )
        assert calls == []
        assert campaign.saved_traversals == 2

    def test_remainder_chunk_of_one_routes_sequential(self, engine, monkeypatch):
        calls = self._trap_run_batch(engine, monkeypatch)
        sources = [1, 2, 3, 4, 5]  # batch_size 4 -> one 4-lane batch + 1 leftover
        campaign = engine.run_many(
            [BFSLevels(source=s) for s in sources], batch_size=4
        )
        assert calls == [4]
        assert len(campaign) == 5

    def test_query_service_batch_size_one_is_sequential(self, graphs):
        from repro.serve import Query, QueryService

        service = QueryService(TraversalEngine(graphs["auto"]), batch_size=1)
        assert not service.batched
        service.serve([Query("levels", source=1), Query("levels", source=2)])
        assert service.stats.batches == 0
        assert service.stats.sequential_sources == 2


# --------------------------------------------------------------------------- #
# Serving and benching on a chosen backend
# --------------------------------------------------------------------------- #
class TestBackendIntegration:
    def test_query_service_accepts_backend(self, graphs, process_backends):
        from repro.serve import Query, QueryService

        engine = TraversalEngine(graphs["auto"])
        service = QueryService(
            engine, batch_size=4, backend=process_backends["auto"]
        )
        assert engine.backend_name == "process"
        results = service.serve([Query("levels", source=s) for s in (1, 2, 3, 4)])
        reference = TraversalEngine(graphs["auto"]).run(BFSLevels(source=2))
        np.testing.assert_array_equal(results[1].distances, reference.distances)
        assert service.stats_snapshot()["backend"] == "process"

    def test_run_scenario_records_backend_outside_spec(self, monkeypatch):
        from repro.bench.runner import run_scenario
        from repro.bench.scenarios import Scenario

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        spec = Scenario("tiny-process", "rmat", 9, "levels", sources=1, backend="process")
        record = run_scenario(spec, repeats=2)
        assert record["backend"] == "process"
        assert "backend" not in record["spec"]

        inline_record = run_scenario(
            Scenario("tiny-inline", "rmat", 9, "levels", sources=1), repeats=2
        )
        assert inline_record["backend"] == "inline"
        # Backend-invariant counters: the whole point of the axis.
        assert inline_record["counters"] == record["counters"]
        assert inline_record["modeled_ms"] == record["modeled_ms"]

    def test_scenario_rejects_unknown_backend(self):
        from repro.bench.scenarios import Scenario

        with pytest.raises(ValueError, match="backend"):
            Scenario("bad", "rmat", 9, "levels", backend="teleport")

    def test_cli_bfs_backend_json(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "bfs",
                    "--scale",
                    "9",
                    "--layout",
                    "2x1x2",
                    "--source",
                    "3",
                    "--backend",
                    "process",
                    "--json",
                ]
            )
            == 0
        )
        process_out = json.loads(capsys.readouterr().out)
        assert process_out["backend"] == "process"

        assert (
            main(
                [
                    "bfs",
                    "--scale",
                    "9",
                    "--layout",
                    "2x1x2",
                    "--source",
                    "3",
                    "--backend",
                    "inline",
                    "--json",
                ]
            )
            == 0
        )
        inline_out = json.loads(capsys.readouterr().out)
        assert inline_out["backend"] == "inline"
        assert inline_out["runs"] == process_out["runs"]

    def test_cli_serve_bench_json_reports_backend_and_qps(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "bench",
                "--scale",
                "9",
                "--layout",
                "2x1x2",
                "--queries",
                "24",
                "--batch-size",
                "4",
                "--pool",
                "16",
                "--backend",
                "inline",
                "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["backend"] == "inline"
        assert out["batched"]["backend"] == "inline"
        assert out["batched"]["service"]["queries"] == 24
        assert out["batched"]["service"]["queries_per_sec"] >= 0.0
        assert out["sequential"]["service"]["queries_per_sec"] >= 0.0
        assert "speedup" in out
