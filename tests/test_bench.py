"""Tests for the benchmark & counter-gate subsystem (repro.bench)."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import repro
from repro.bench import (
    REGISTRY,
    BenchArtifactError,
    BenchDeterminismError,
    Scenario,
    compare_artifacts,
    default_artifact_path,
    find_scenarios,
    load_artifact,
    new_artifact,
    quick_scenarios,
    run_scenario,
    run_suite,
    save_artifact,
    time_program,
    validate_artifact,
)
from repro.cli import main
from repro.core import kernels


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def tiny_scenario(name: str = "tiny", **overrides) -> Scenario:
    """A sub-100ms scenario for runner tests."""
    kwargs = dict(
        name=name,
        kind="rmat",
        scale=8,
        program="levels",
        layout="2x1x2",
        threshold=8,
        sources=1,
        quick=True,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def make_record(
    traversal_s: float = 0.1,
    checksum: int = 42,
    spec_extra: dict | None = None,
) -> dict:
    """A minimal schema-valid scenario record."""
    spec = {"kind": "rmat", "scale": 10, "program": "levels", "options": "DO+BR"}
    spec.update(spec_extra or {})
    return {
        "spec": spec,
        "repeats": 2,
        "wall_s": {
            "graph_build": 0.01,
            "partition": 0.01,
            "traversal": traversal_s,
            "kernels": traversal_s * 0.8,
            "exchange": traversal_s * 0.1,
            "delegate_reduce": traversal_s * 0.1,
            "total": 0.02 + traversal_s,
        },
        "modeled_ms": {"elapsed_ms": 1.0},
        "counters": {
            "iterations": 5,
            "total_edges_examined": 1000,
            "values_checksum": checksum,
        },
    }


def make_art(records: dict) -> dict:
    return new_artifact(records, label="test", quick=True)


# --------------------------------------------------------------------------- #
# Artifact schema
# --------------------------------------------------------------------------- #
class TestArtifact:
    def test_round_trip(self, tmp_path):
        artifact = make_art({"a": make_record()})
        path = save_artifact(artifact, tmp_path / "BENCH_test.json")
        assert load_artifact(path) == artifact

    def test_default_path_convention(self, tmp_path):
        path = default_artifact_path(tmp_path)
        assert path.name.startswith("BENCH_") and path.name.endswith(".json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchArtifactError, match="no such artifact"):
            load_artifact(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_not_an_object(self):
        with pytest.raises(BenchArtifactError, match="expected a JSON object"):
            validate_artifact([1, 2, 3])

    def test_wrong_schema(self):
        artifact = make_art({})
        artifact["schema"] = "something.else"
        with pytest.raises(BenchArtifactError, match="schema is"):
            validate_artifact(artifact)

    def test_unsupported_version(self):
        artifact = make_art({})
        artifact["schema_version"] = 99
        with pytest.raises(BenchArtifactError, match="schema_version"):
            validate_artifact(artifact)

    def test_scenarios_must_be_object(self):
        artifact = make_art({})
        artifact["scenarios"] = "oops"
        with pytest.raises(BenchArtifactError, match="'scenarios' must be an object"):
            validate_artifact(artifact)

    @pytest.mark.parametrize("missing", ["spec", "repeats", "wall_s", "modeled_ms", "counters"])
    def test_record_missing_key(self, missing):
        record = make_record()
        del record[missing]
        with pytest.raises(BenchArtifactError, match=f"lacks '{missing}'"):
            validate_artifact(make_art({"a": record}))

    def test_negative_wall_time_rejected(self):
        record = make_record()
        record["wall_s"]["traversal"] = -1.0
        with pytest.raises(BenchArtifactError, match="non-negative"):
            validate_artifact(make_art({"a": record}))

    def test_host_provenance_recorded(self):
        artifact = make_art({})
        assert artifact["host"]["numpy"] == np.__version__
        assert artifact["host"]["native_kernels"] == (
            kernels._COMPILER if kernels._LIB is not None else None
        )
        assert artifact["created"].endswith("Z")


# --------------------------------------------------------------------------- #
# Comparator
# --------------------------------------------------------------------------- #
class TestCompare:
    def test_wall_changes_are_never_judged(self):
        old = make_art({"a": make_record(0.100), "b": make_record(0.100)})
        new = make_art({"a": make_record(9.000), "b": make_record(0.001)})
        report = compare_artifacts(old, new)
        assert report.ok
        assert [d.status for d in report.deltas] == ["ok", "ok"]

    def test_counter_drift_fails_even_when_faster(self):
        old = make_art({"a": make_record(0.100, checksum=1)})
        new = make_art({"a": make_record(0.050, checksum=2)})
        report = compare_artifacts(old, new)
        assert not report.ok
        assert [d.status for d in report.deltas] == ["counter-drift"]
        assert "values_checksum" in report.deltas[0].note

    def test_spec_change_is_informational(self):
        old = make_art({"a": make_record(0.100)})
        new = make_art({"a": make_record(0.900, spec_extra={"scale": 20})})
        report = compare_artifacts(old, new)
        assert report.ok
        assert [d.status for d in report.deltas] == ["spec-changed"]

    def test_added_and_removed_scenarios(self):
        old = make_art({"a": make_record(), "gone": make_record()})
        new = make_art({"a": make_record(), "fresh": make_record()})
        report = compare_artifacts(old, new)
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {"a": "ok", "gone": "removed", "fresh": "added"}
        assert report.ok

    def test_malformed_input_rejected(self):
        with pytest.raises(BenchArtifactError):
            compare_artifacts({"schema": "nope"}, make_art({}))

    def test_summary_lines_and_dict(self):
        old = make_art({"a": make_record(checksum=1)})
        new = make_art({"a": make_record(checksum=2)})
        report = compare_artifacts(old, new)
        lines = report.summary_lines()
        assert any("counter-drift" in line for line in lines)
        assert lines[-1].startswith("FAIL")
        as_dict = report.as_dict()
        assert as_dict["counter_drifts"] == 1 and as_dict["ok"] is False


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_names_unique(self):
        names = [s.name for s in REGISTRY]
        assert len(names) == len(set(names))

    def test_quick_subset(self):
        quick = quick_scenarios()
        assert quick and all(s.quick for s in quick)
        assert len(quick) < len(REGISTRY)

    def test_axes_covered(self):
        programs = {s.program for s in REGISTRY}
        kinds = {s.kind for s in REGISTRY}
        options = {s.options.label() for s in REGISTRY}
        thresholds = {s.threshold for s in REGISTRY}
        assert programs == {
            "levels", "parents", "components", "khop", "serve", "serve_cluster",
            "dynamic", "build", "sssp", "pagerank", "wcc_hook", "triangles",
        }
        assert kinds == {"rmat", "uniform", "wdc"}
        assert {"DO+BR", "plain+BR", "DO+IR", "DO+L+U+BR"} <= options
        assert len(thresholds) > 1  # delegate-threshold sweep present

    def test_serve_scenarios_sweep_batch_and_skew(self):
        serve = [s for s in REGISTRY if s.program == "serve"]
        assert len(serve) >= 3
        assert len({s.batch_size for s in serve}) > 1  # batch-size sweep
        assert len({s.zipf_skew for s in serve}) > 1  # skew sweep
        assert any(s.batch_size >= 16 and s.zipf_skew > 0 for s in serve)
        assert all(s.quick for s in serve)  # qps tracked by the CI smoke run

    def test_find_scenarios(self):
        found = find_scenarios(["rmat14-components", "rmat14-levels-do-br"])
        assert [s.name for s in found] == ["rmat14-levels-do-br", "rmat14-components"]
        with pytest.raises(KeyError, match="no-such-scenario"):
            find_scenarios(["no-such-scenario"])

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown program"):
            tiny_scenario(program="dijkstra")
        with pytest.raises(ValueError, match="unknown graph kind"):
            tiny_scenario(kind="hypercube")

    @pytest.mark.parametrize(
        "program, bad",
        [
            ("dynamic", {"update_style": "bogus"}),
            ("dynamic", {"delete_fraction": 1.5}),
            ("serve", {"num_queries": 0}),
            ("serve", {"cache_size": -1}),
            ("serve", {"zipf_skew": -1.0}),
            ("serve_cluster", {"router": "bogus"}),
            ("serve_cluster", {"hedge_min_samples": 0}),
            ("serve_cluster", {"arrivals": "bursty", "burst_duty": 2.0}),
            ("serve_cluster", {"cluster_updates": 1, "update_style": "bogus"}),
        ],
        ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value)),
    )
    def test_bad_stream_scenario_rejected_at_construction(self, program, bad):
        # Each of these used to be accepted and fail only inside run_scenario,
        # after the graph was generated and partitioned.
        with pytest.raises(ValueError):
            tiny_scenario(program=program, **bad)

    def test_describe_is_json_stable(self):
        spec = tiny_scenario()
        assert json.loads(json.dumps(spec.describe())) == spec.describe()


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class TestRunner:
    def test_record_structure(self):
        record = run_scenario(tiny_scenario(), repeats=2)
        for phase in ("graph_build", "partition", "traversal", "kernels",
                      "exchange", "delegate_reduce", "total"):
            assert record["wall_s"][phase] >= 0.0
        assert record["wall_s"]["traversal"] > 0.0
        assert record["counters"]["total_edges_examined"] > 0
        assert record["counters"]["values_checksum"] != 0
        assert record["modeled_ms"]["elapsed_ms"] > 0.0
        # The record must survive a JSON round trip unchanged (artifact food).
        assert json.loads(json.dumps(record)) == record

    def test_deterministic_across_independent_runs(self):
        first = run_scenario(tiny_scenario(), repeats=2)
        second = run_scenario(tiny_scenario(), repeats=2)
        assert first["counters"] == second["counters"]
        assert first["modeled_ms"] == second["modeled_ms"]
        assert first["sources"] == second["sources"]

    def test_all_programs_run(self):
        for program in ("levels", "parents", "components", "khop"):
            record = run_scenario(
                tiny_scenario(name=f"tiny-{program}", program=program), repeats=1
            )
            assert record["counters"]["iterations"] >= 1

    def test_repeats_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            run_scenario(tiny_scenario(), repeats=0)
        with pytest.raises(ValueError, match="determinism"):
            run_scenario(tiny_scenario(), repeats=1, check_determinism=True)

    def test_determinism_guard_trips_on_divergent_counters(self):
        class FlakyEngine:
            """Returns a different workload count on every run."""

            def __init__(self):
                self.calls = 0

            def run(self, program):
                from repro.cluster.comm import CommStats
                from repro.core.results import TraversalResult
                from repro.utils.timing import TimingBreakdown

                self.calls += 1
                return TraversalResult(
                    iterations=1,
                    records=[],
                    timing=TimingBreakdown(elapsed_ms=1.0),
                    comm_stats=CommStats(),
                    total_edges_examined=self.calls,  # diverges
                    num_directed_edges=10,
                    wall_s={"traversal": 0.001},
                )

        with pytest.raises(BenchDeterminismError, match="counters differ"):
            time_program(FlakyEngine(), lambda: None, repeats=2)

    def test_duplicate_source_checksums_do_not_cancel(self):
        # Sources are drawn with replacement; two identical per-source
        # checksums must not XOR away the answer-integrity signal.
        from repro.bench.streams import _merge_counters

        counters = {
            "iterations": 1,
            "total_edges_examined": 1,
            "edges_by_kernel": {},
            "comm": {},
            "modeled_elapsed_ms": 1.0,
            "values_checksum": 12345,
        }
        merged = _merge_counters([counters, counters])
        assert merged["values_checksum"] != 0

    def test_run_suite_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "BENCH_suite.json"
        seen = []
        artifact = run_suite(
            [tiny_scenario()],
            label="unit",
            quick=True,
            repeats=2,
            out_path=out,
            on_record=lambda name, rec: seen.append(name),
        )
        assert seen == ["tiny"]
        assert load_artifact(out) == artifact
        assert compare_artifacts(artifact, artifact).ok


# --------------------------------------------------------------------------- #
# Fluent facade
# --------------------------------------------------------------------------- #
class TestSessionBench:
    def test_session_bench_smoke(self):
        record = (
            repro.session(layout="2x1x2")
            .generate(scale=8, seed=3)
            .threshold(8)
            .bench(repeats=2)
        )
        assert record["wall_s"]["traversal"] > 0.0
        assert record["counters"]["iterations"] >= 1

    def test_session_bench_custom_program(self):
        graph = repro.session(layout="2x1x2").generate(scale=8, seed=3).build()
        record = graph.bench(repro.ConnectedComponents(), repeats=2)
        again = graph.bench(repro.ConnectedComponents(), repeats=2)
        assert record["counters"] == again["counters"]


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_bench_list_json(self, capsys):
        assert main(["bench", "list", "--quick", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert {"rmat14-levels-do-br", "wdc14-levels-do-br"} <= {s["name"] for s in listed}

    def test_bench_run_and_compare_round_trip(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        assert main(
            ["bench", "run", "--scenario", "rmat14-khop3", "--repeats", "1",
             "--output", str(out), "--label", "cli-test"]
        ) == 0
        artifact = load_artifact(out)
        assert set(artifact["scenarios"]) == {"rmat14-khop3"}
        capsys.readouterr()

        # Identical artifacts compare clean (exit 0) ...
        assert main(["bench", "compare", str(out), str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

        # ... a drifted counter trips the gate (exit 1) ...
        drifted = copy.deepcopy(artifact)
        drifted["scenarios"]["rmat14-khop3"]["counters"]["iterations"] += 1
        drift_path = tmp_path / "BENCH_drift.json"
        save_artifact(drifted, drift_path)
        assert main(["bench", "compare", str(out), str(drift_path)]) == 1
        assert "counter-drift" in capsys.readouterr().out

        # ... and --json emits the machine-readable report.
        assert main(["bench", "compare", str(out), str(drift_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["counter_drifts"] == 1

    @pytest.mark.parametrize(
        "old, new, code",
        [
            ({"a": make_record()}, {"a": make_record()}, 0),
            ({"a": make_record(0.100)}, {"a": make_record(5.0)}, 0),
            ({"a": make_record(0.100)}, {"a": make_record(0.001)}, 0),
            ({"a": make_record(checksum=1)}, {"a": make_record(checksum=2)}, 1),
            ({"a": make_record()}, {"a": make_record(spec_extra={"scale": 20})}, 0),
            ({"a": make_record(), "gone": make_record()},
             {"a": make_record(), "fresh": make_record()}, 0),
        ],
        ids=["identical", "wall-slower", "wall-faster", "counter-drift", "spec-changed",
             "added-removed"],
    )
    def test_bench_compare_exit_codes(self, tmp_path, capsys, old, new, code):
        """Only counter drift fails the gate; walls never move the exit code."""
        paths = [tmp_path / "old.json", tmp_path / "new.json"]
        for path, records in zip(paths, (old, new)):
            save_artifact(make_art(records), path)
        assert main(["bench", "compare", *map(str, paths)]) == code
        capsys.readouterr()
        assert main(["bench", "compare", *map(str, paths), "--json"]) == code
        assert json.loads(capsys.readouterr().out)["counter_drifts"] == code

    def test_bench_compare_malformed_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        assert main(["bench", "compare", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_run_quick_with_non_quick_scenario_exits_2(self, tmp_path, capsys):
        assert main(
            ["bench", "run", "--quick", "--scenario", "rmat17-levels-do-br",
             "--output", str(tmp_path / "x.json")]
        ) == 2
        assert "quick subset" in capsys.readouterr().err
