"""Benchmark & counter-invariance subsystem (``repro.bench``).

The paper's contribution is performance, so this package gives the
reproduction a machine-readable record of every scenario, and holds its
deterministic counters fixed across backends, storage modes, tracing and
refactors (wall-clock judgements of paired runs belong to
``benchmarks/perf/compare.py``):

* :mod:`repro.bench.scenarios` — a registry of fully-pinned benchmark
  scenarios spanning graph families, frontier programs and the BFS option
  grid;
* :mod:`repro.bench.streams` — the stream-kind table and the replays the
  runner and the CLI share;
* :mod:`repro.bench.runner` — a timed runner recording wall-clock per phase
  alongside the modeled cluster times and the deterministic workload
  counters (with a determinism guard across repeats);
* :mod:`repro.bench.artifact` — the versioned ``BENCH_<timestamp>.json``
  artifact schema;
* :mod:`repro.bench.compare` — the exact counter comparator behind the CI
  gate (``repro bench compare``).

Typical use::

    from repro.bench import quick_scenarios, run_suite, compare_artifacts
    art = run_suite(quick_scenarios(), label="my change", quick=True)
    assert compare_artifacts(baseline, art).ok  # no counter drift
"""

from repro.bench.artifact import (
    BenchArtifactError,
    default_artifact_path,
    load_artifact,
    new_artifact,
    save_artifact,
    validate_artifact,
)
from repro.bench.compare import CompareReport, ScenarioDelta, compare_artifacts
from repro.bench.runner import (
    BenchDeterminismError,
    run_scenario,
    run_suite,
    time_program,
    values_checksum,
)
from repro.bench.scenarios import (
    REGISTRY,
    Scenario,
    find_scenarios,
    quick_scenarios,
    registry,
)

__all__ = [
    "BenchArtifactError",
    "BenchDeterminismError",
    "CompareReport",
    "REGISTRY",
    "Scenario",
    "ScenarioDelta",
    "compare_artifacts",
    "default_artifact_path",
    "find_scenarios",
    "load_artifact",
    "new_artifact",
    "quick_scenarios",
    "registry",
    "run_scenario",
    "run_suite",
    "save_artifact",
    "time_program",
    "validate_artifact",
    "values_checksum",
]
