"""Tier-1 smoke test of the repo benchmark (``run.py --smoke``: scale 10).

Checks the contract later PRs rely on: every metric declared in
``BENCHMARK.json`` is emitted exactly once per workload with a finite value,
no operation fails, simulated time is identical between two runs, and a run
leaves nothing behind (scratch directory, worker pool, shm segment) — checked
on the run's own session, so other users of the host do not matter.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


def shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def live_processes():
    """``(session id, memory map)`` of every live process this user may inspect."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            session = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[3])
        except (OSError, IndexError, ValueError):
            continue
        try:
            maps = (entry / "maps").read_text()
        except OSError:  # an unreaped process has none, and still counts
            maps = ""
        yield session, maps


def run_in_session(arguments, cwd):
    """Run ``run.py`` as the leader of its own session, so what it leaves is its alone."""
    child = subprocess.Popen(RUN + arguments, cwd=cwd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    stdout, stderr = child.communicate()
    # Checked the moment it exits: a run stops and reaps what it started (pool
    # workers, multiprocessing's resource tracker) before it reports.
    assert not [s for s, _ in live_processes() if s == child.pid]
    return child, stdout, stderr


def test_smoke_set_emits_every_declared_metric(tmp_path):
    before = shm_segments()
    out = tmp_path / "smoke.json"
    child, _, stderr = run_in_session(["--smoke", "--out", str(out)], tmp_path)
    assert child.returncode == 0, stderr[-2000:]
    result = json.loads(out.read_text())

    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(declared)) == len(declared)
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, workload in result["workloads"].items():
        metrics = workload["metrics"]
        assert set(metrics) == set(declared), name
        for metric, value in metrics.items():
            assert math.isfinite(value), (name, metric)
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]] > 0, (name, metric["name"])
        assert metrics["failed_ops_share"] == 0, name
        assert metrics["validate.checked_ops"] > 0, name
        assert metrics["obs.trace_overhead"] > 0, name
        assert workload["correct"] and workload["failed"] == 0, name
    assert result["workloads"]["serve14-mixed-updates"]["metrics"]["serve.update_s"] > 0
    assert result["workloads"]["serve14-zipf-reads"]["metrics"]["serve.update_s"] == 0

    # The driver's form: one JSON line, the end-to-end metrics with their units;
    # simulated time depends on the seed alone, so a second run reproduces it.
    name = "serve14-mixed-updates"
    again, stdout, stderr = run_in_session(
        ["--smoke", "--workload", name, "--seed", "1", "--trace", "0"], tmp_path)
    assert again.returncode == 0, stderr[-2000:]
    envelope = json.loads(stdout.strip().splitlines()[-1])
    assert set(envelope) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in envelope["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert envelope["metrics"]["modeled_ms"]["value"] == result["workloads"][name]["metrics"]["modeled_ms"]

    # Nothing is left behind: no scratch directory (each is named after its
    # owner's pid) without a live owner, no new shm segment that no live
    # process maps (and no process of the two sessions: ``run_in_session``).
    scratch = ROOT / ".bench_work"
    stale = [d.name for d in (scratch.iterdir() if scratch.is_dir() else [])
             if not Path("/proc", d.name.rsplit("-", 1)[-1]).exists()]
    assert not stale
    live = list(live_processes())
    leaked = [n for n in shm_segments() - before if not any(f"/dev/shm/{n}" in m for _, m in live)]
    assert not leaked


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "rmat16-g500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
