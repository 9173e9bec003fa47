"""Tier-1 counter gate: replay committed quick scenarios against the baseline.

The invariance contract (answers, counters and modeled times bit-identical
across refactors) is enforced in CI by ``bench compare`` (exit 1 on drift)
against ``benchmarks/baseline.json``; this test reads the same file so a
counter drift fails ``pytest`` locally, before any CI leg runs.  One scenario
per engine code path: sequential with payload exchange + value reduce,
batched lanes, overlay relaxation under both frontier representations, a
hand-built (PageRank) plan, a long tail — 9,572 super-steps over frontiers
of a few vertices, the regime where a plan lists almost no kernel and the
idle-kernel charges carry the modeled time — the only quick scenario that
stages its exchange through local all2all + uniquify (it sends 204 vertices
and deduplicates none, so ``tests/golden/comm`` covers that path in depth) —
and the only quick cluster scenario, whose open-loop replay runs on the
virtual clock.  Every quick stream scenario is replayed once more in its
baseline mode (``bench run --baseline``), which must not move a gated counter.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import find_scenarios, load_artifact, quick_scenarios, run_scenario
from repro.bench.streams import STREAM_TABLE

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"

SCENARIOS = (
    "rmat14-parents-do-br",
    "rmat14-levels-do-lu-br",
    "serve-rmat14-b32-zipf1.0",
    "serve-cluster-rmat12-bursty",
    "dyn-rmat14-uniform-levels",
    "pagerank-rmat14-fixed",
    "wdc14-levels-do-br",
)
STREAM_SCENARIOS = tuple(s.name for s in quick_scenarios() if s.program in STREAM_TABLE)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return load_artifact(BASELINE)["scenarios"]


def _check(committed: dict, name: str, **mode) -> None:
    (spec,) = find_scenarios([name])
    record = run_scenario(spec, repeats=1, **mode)
    expected = committed[name]
    assert record["spec"] == expected["spec"], "scenario definition drifted"
    assert record["counters"] == expected["counters"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_counters_match_committed_baseline(baseline, name):
    _check(baseline, name)


@pytest.mark.parametrize("name", STREAM_SCENARIOS)
def test_baseline_mode_keeps_counters(baseline, name):
    _check(baseline, name, baseline=True)
