"""Tests for the kernels axis.

The visit kernels have one implementation, :mod:`repro.core.kernels`, so
the axis is a label: ``numpy`` and ``auto`` both resolve to ``numpy`` on
every entry point, results are identical whichever name (and backend) is
given, the bench record carries the label outside the scenario spec, and
the CLI rejects ``numba`` on every command that takes ``--kernels``.  The
precedence of arguments and ``$REPRO_KERNELS`` is tests/test_exec_config.py's.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import TraversalEngine
from repro.core.programs import BatchedBFSLevels, BFSLevels, ConnectedComponents
from repro.exec.config import PROVIDER_NAMES, ExecConfig
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

LAYOUT = ClusterLayout(num_ranks=2, gpus_per_rank=2)


@pytest.fixture(scope="module")
def edges():
    return generate_rmat(9, rng=5)


@pytest.fixture(scope="module")
def graph(edges):
    return build_partitions(edges, LAYOUT, 16)


# --------------------------------------------------------------------------- #
# Resolution: names and the environment
# --------------------------------------------------------------------------- #
class TestResolution:
    def test_registry_names(self):
        assert PROVIDER_NAMES == ("numpy", "auto")

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="fortran"):
            ExecConfig.resolve(kernels="fortran")

    def test_auto_resolves_silently(self, monkeypatch):
        import warnings

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name = ExecConfig.resolve(kernels="auto").kernels
        assert name == "numpy"
        assert ExecConfig.resolve().kernels == name


# --------------------------------------------------------------------------- #
# Equivalence: any kernels name, any backend, same bits
# --------------------------------------------------------------------------- #
class TestProviderEquivalence:
    @pytest.mark.parametrize("spec", ["numpy", "auto"])
    @pytest.mark.parametrize("backend", ["inline", "process", "thread"])
    def test_results_identical_across_specs_and_backends(self, graph, spec, backend):
        from tests.test_exec_backends import assert_results_identical

        reference = TraversalEngine(graph, kernels="numpy").run(BFSLevels(source=3))
        engine = TraversalEngine(graph, backend=backend, kernels=spec)
        try:
            assert_results_identical(reference, engine.run(BFSLevels(source=3)))
        finally:
            engine.close()

    @pytest.mark.parametrize("spec", ["numpy", "auto"])
    def test_batched_and_components_identical(self, graph, spec):
        reference = TraversalEngine(graph, kernels="numpy")
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
# Threading through session / dynamic / bench / CLI
# --------------------------------------------------------------------------- #
class TestProviderThreading:
    def test_dynamic_engine_threads_kernels(self, edges):
        from repro.dynamic import DynamicEngine, DynamicGraph

        engine = DynamicEngine(
            DynamicGraph(edges, LAYOUT, 16), kernels="numpy"
        )
        try:
            assert engine.config.kernels_name == "numpy"
            engine.run(BFSLevels(source=3))
        finally:
            engine.close()

    def test_replica_pool_threads_kernels(self, graph):
        from repro.serve.cluster.replica import ReplicaPool

        with ReplicaPool(graph, 2, kernels="numpy", batch_size=4) as pool:
            assert pool.config.kernels_name == "numpy"

    def test_run_scenario_records_kernels_outside_spec(self):
        from repro.bench.runner import run_scenario
        from repro.bench.scenarios import Scenario

        spec = Scenario("tiny", "rmat", 9, "levels", sources=1)
        record = run_scenario(spec, repeats=2, kernels="numpy")
        assert record["kernels"] == "numpy"
        assert "kernels" not in record["spec"]
        # The same kernels under either name.
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
        assert auto_out["kernels"] == "numpy"
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

        with pytest.raises(SystemExit) as exited:
            main([*argv, "--backend", "process", "--kernels", "numba"])
        captured = capsys.readouterr()
        assert exited.value.code == 2
        assert "error: argument --kernels: invalid choice: 'numba'" in captured.err
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
        assert out["kernels"] == "numpy"

    def test_bench_list_mentions_the_axes(self, capsys):
        from repro.cli import main

        assert main(["bench", "list", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "--storage memory|mmap|compressed" in out
        assert "--backend inline|process|thread" in out
