"""Tests for the kernel-provider layer (:mod:`repro.exec.providers`).

The load-bearing property is *provider equivalence*: whichever provider
computes the visit kernels, results, workload counters and modeled times
must match bit for bit — only wall-clock may differ.  On hosts without
Numba the NumbaProvider cases run through the documented fallback (warn,
then NumPy), so spec-level equivalence still holds; the JIT-vs-NumPy
bit-exactness tests proper are skipped locally and run on the CI leg that
installs Numba.

Also covered: name resolution (the precedence of arguments and
``$REPRO_KERNELS`` is tests/test_exec_config.py's), the singleton registry, session/engine/dynamic threading, the
process-boundary name handoff, bench-record placement (``kernels`` in the
record, never the spec) and the CLI round-trips including the rejected
``--backend process --kernels numba`` combination.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import TraversalEngine
from repro.core.programs import BatchedBFSLevels, BFSLevels, ConnectedComponents
from repro.exec.config import ExecConfig
from repro.exec.providers import (
    PROVIDER_NAMES,
    NumpyProvider,
    get_provider,
    numba_available,
)
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

LAYOUT = ClusterLayout(num_ranks=2, gpus_per_rank=2)

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not importable on this host"
)


@pytest.fixture(scope="module")
def edges():
    return generate_rmat(9, rng=5)


@pytest.fixture(scope="module")
def graph(edges):
    return build_partitions(edges, LAYOUT, 16)


# --------------------------------------------------------------------------- #
# Resolution: names, env var, fallback
# --------------------------------------------------------------------------- #
class TestResolution:
    def test_registry_names(self):
        assert PROVIDER_NAMES == ("numpy", "numba", "auto")

    def test_get_provider_is_singleton(self):
        a = get_provider("numpy")
        assert isinstance(a, NumpyProvider)
        assert get_provider("numpy") is a
        with pytest.raises(ValueError, match="auto"):
            get_provider("auto")  # auto is a spec, not a provider

    def test_resolve_passes_instances_through(self, graph):
        provider = get_provider("numpy")
        assert ExecConfig.resolve(kernels=provider).kernels is provider
        engine = TraversalEngine(graph, kernels=provider)
        assert engine.provider is provider and engine.provider_name == "numpy"

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="fortran"):
            ExecConfig.resolve(kernels="fortran")

    def test_auto_resolves_silently(self, monkeypatch):
        import warnings

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name = ExecConfig.resolve(kernels="auto").kernels
        assert name == ("numba" if numba_available() else "numpy")
        assert ExecConfig.resolve().kernels == name

    @pytest.mark.skipif(numba_available(), reason="needs a numba-free host")
    def test_explicit_numba_without_numba_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="[Nn]umba"):
            config = ExecConfig.resolve(kernels="numba")
        assert config.kernels == "numpy"
        assert get_provider(config.kernels).name == "numpy"


# --------------------------------------------------------------------------- #
# Spec-level equivalence: any provider spec, same bits
# --------------------------------------------------------------------------- #
class TestProviderEquivalence:
    @pytest.mark.parametrize("spec", ["numpy", "numba", "auto"])
    @pytest.mark.parametrize("backend", ["inline", "process", "thread"])
    def test_results_identical_across_specs_and_backends(self, graph, spec, backend):
        import warnings

        from tests.test_exec_backends import assert_results_identical

        reference = TraversalEngine(graph, kernels="numpy").run(BFSLevels(source=3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numba fallback
            engine = TraversalEngine(graph, backend=backend, kernels=spec)
            try:
                assert_results_identical(reference, engine.run(BFSLevels(source=3)))
            finally:
                engine.close()

    @pytest.mark.parametrize("spec", ["numpy", "numba"])
    def test_batched_and_components_identical(self, graph, spec):
        import warnings

        reference = TraversalEngine(graph, kernels="numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # lazy numba fallback
            engine = TraversalEngine(graph, kernels=spec)
            a = engine.run_batch(BatchedBFSLevels(list(range(70))))
        b = reference.run_batch(BatchedBFSLevels(list(range(70))))
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.workload_by_kernel() == b.workload_by_kernel()
        assert a.timing.elapsed_ms == b.timing.elapsed_ms
        ca = engine.run(ConnectedComponents())
        cb = reference.run(ConnectedComponents())
        np.testing.assert_array_equal(ca.labels, cb.labels)
        assert ca.comm_stats.as_dict() == cb.comm_stats.as_dict()


# --------------------------------------------------------------------------- #
# JIT twins proper (CI numba leg; skipped on numba-free hosts)
# --------------------------------------------------------------------------- #
@needs_numba
class TestNumbaKernelsBitExact:
    def test_provider_resolves_to_numba(self):
        assert ExecConfig.resolve(kernels="numba").kernels == "numba"
        assert ExecConfig.resolve(kernels="auto").kernels == "numba"

    def test_forward_and_backward_visits_match(self, graph):
        from repro.core.state import BFSState  # noqa: F401  (import sanity)

        numba_engine = TraversalEngine(graph, kernels="numba")
        numpy_engine = TraversalEngine(graph, kernels="numpy")
        from tests.test_exec_backends import assert_results_identical

        for source in (0, 3, 17):
            assert_results_identical(
                numpy_engine.run(BFSLevels(source=source)),
                numba_engine.run(BFSLevels(source=source)),
            )

    def test_bitmask_bulk_ops_match(self):
        from repro.utils.bitmask import Bitmask

        numba_p = get_provider("numba")
        numpy_p = get_provider("numpy")
        idx = np.asarray([0, 3, 3, 64, 65, 127, 200], dtype=np.int64)
        a, b = Bitmask(256), Bitmask(256)
        numba_p.bitmask_set_many(a, idx)
        numpy_p.bitmask_set_many(b, idx)
        np.testing.assert_array_equal(a.buffer, b.buffer)
        probe = np.arange(256, dtype=np.int64)
        np.testing.assert_array_equal(
            numba_p.bitmask_test_many(a, probe), numpy_p.bitmask_test_many(b, probe)
        )


# --------------------------------------------------------------------------- #
# Threading through session / dynamic / bench / CLI
# --------------------------------------------------------------------------- #
class TestProviderThreading:
    def test_session_fluent_kernels(self):
        import repro

        graph_session = (
            repro.session(layout="2x1x2", kernels="numpy")
            .generate(scale=9, seed=5)
            .build()
        )
        assert graph_session.kernels_name == "numpy"
        reference = graph_session.bfs(3)
        graph_session.kernels("auto")
        np.testing.assert_array_equal(
            graph_session.bfs(3).distances, reference.distances
        )
        graph_session.close()

    def test_engine_use_kernels_switches_in_place(self, graph):
        engine = TraversalEngine(graph, kernels="numpy")
        assert engine.provider_name == "numpy"
        a = engine.run(BFSLevels(source=3))
        engine.use_kernels("auto")
        b = engine.run(BFSLevels(source=3))
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.timing.elapsed_ms == b.timing.elapsed_ms

    def test_dynamic_engine_threads_kernels(self, edges):
        from repro.dynamic import DynamicEngine, DynamicGraph

        engine = DynamicEngine(
            DynamicGraph(edges, LAYOUT, 16), kernels="numpy"
        )
        try:
            assert engine.provider_name == "numpy"
            engine.run(BFSLevels(source=3))
            engine.use_kernels("auto")
            engine.run(BFSLevels(source=3))
        finally:
            engine.close()

    def test_replica_pool_threads_kernels(self, graph):
        from repro.serve.cluster.replica import ReplicaPool

        with ReplicaPool(graph, 2, kernels="numpy", batch_size=4) as pool:
            assert pool.kernels_name == "numpy"

    def test_run_scenario_records_kernels_outside_spec(self):
        from repro.bench.runner import run_scenario
        from repro.bench.scenarios import Scenario

        spec = Scenario("tiny", "rmat", 9, "levels", sources=1)
        record = run_scenario(spec, repeats=2, kernels="numpy")
        assert record["kernels"] == "numpy"
        assert "kernels" not in record["spec"]
        # Provider-invariant counters: the whole point of the axis.
        auto_record = run_scenario(spec, repeats=2, kernels="auto")
        assert auto_record["counters"] == record["counters"]
        assert auto_record["modeled_ms"] == record["modeled_ms"]


class TestProviderCLI:
    def test_bfs_kernels_round_trip_json(self, capsys):
        from repro.cli import main

        args = ["bfs", "--scale", "9", "--layout", "2x1x2", "--source", "3", "--json"]
        assert main([*args, "--kernels", "numpy"]) == 0
        numpy_out = json.loads(capsys.readouterr().out)
        assert numpy_out["kernels"] == "numpy"
        assert main([*args, "--kernels", "auto"]) == 0
        auto_out = json.loads(capsys.readouterr().out)
        assert auto_out["kernels"] in ("numpy", "numba")
        assert auto_out["runs"] == numpy_out["runs"]

    @pytest.mark.parametrize("argv", [
        ["bfs", "--scale", "9"],
        ["components", "--scale", "9"],
        ["mutate", "--scale", "9", "--batches", "1"],
        ["bench", "run", "--quick"],
        ["serve", "bench", "--scale", "9"],
    ])
    def test_process_plus_numba_exits_2_everywhere(self, capsys, argv):
        from repro.cli import main

        code = main([*argv, "--backend", "process", "--kernels", "numba"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "JIT warm-up" in captured.err
        assert captured.out == ""  # nothing ran

    def test_process_with_auto_kernels_is_allowed(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bfs", "--scale", "9", "--layout", "2x1x2", "--source", "3",
                "--backend", "process", "--kernels", "auto", "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["backend"] == "process"
        assert out["kernels"] in ("numpy", "numba")

    def test_bench_list_mentions_the_axes(self, capsys):
        from repro.cli import main

        assert main(["bench", "list", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "--kernels numpy|numba|auto" in out
        assert "--backend inline|process|thread" in out
