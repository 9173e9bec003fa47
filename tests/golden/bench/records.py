"""Golden bench records: one small scenario per runner path and run mode.

``records.json`` beside this file holds, for each case of :data:`CASES`, the
record :func:`repro.bench.run_scenario` returns (two repeats, inline backend,
NumPy kernels, memory storage asked for) after :func:`normalize`: every
wall-clock value — the ``wall_s`` section, any ``wall_*`` key and the two
rates derived from wall time (``queries_per_sec``, ``updates_per_sec``) — and
the ``max_rss_mb`` section are replaced by a marker.  Everything else is
pinned exactly: every section's key set, every counter, every modeled float,
``spec``, ``workload``, the run-time axes, the ``sssp`` / ``throughput`` /
``cluster`` / ``dynamic`` / ``build`` sections.  ``max_rss_mb`` is masked
whole because which set-up phases sample the process's peak RSS is a
measurement detail, not part of a record's meaning.

It was written by ``python tests/golden/bench/records.py`` at the commit
before the stream kinds moved into one table, through that commit's three
per-kind run-mode switches (``serve_batched``, ``cluster_hedging``,
``dyn_incremental``), and is not regenerated: ``tests/test_golden_bench.py``
replays it through the one ``baseline`` switch.  The script refuses to
overwrite the file; run it with ``--check`` to re-derive the records on any
commit and compare.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

from repro.bench import Scenario, run_scenario

GOLDEN = Path(__file__).with_name("records.json")

_SMALL = dict(kind="rmat", scale=10, layout="2x1x2")
_SERVE = dict(batch_size=8, num_queries=64, pool=32, cache_size=16)
_CLUSTER = dict(
    _SERVE,
    num_queries=96,
    pool=48,
    arrivals="bursty",
    arrival_rate_qps=4000.0,
    burst_period_ms=50.0,
    num_replicas=2,
    queue_limit=8,
    hedge_min_samples=8,
    hedge_quantile=0.9,
    slo_ms=2.0,
)

#: ``(case name, scenario, baseline mode)``.
CASES = (
    ("levels", Scenario("golden-levels", program="levels", sources=2, **_SMALL), False),
    (
        "sssp",
        Scenario("golden-sssp", program="sssp", weights=7, delta=0.125, **_SMALL),
        False,
    ),
    ("serve-batched", Scenario("golden-serve", program="serve", **_SERVE, **_SMALL), False),
    ("serve-sequential", Scenario("golden-serve", program="serve", **_SERVE, **_SMALL), True),
    (
        "cluster-hedged",
        Scenario("golden-cluster", program="serve_cluster", **_CLUSTER, **_SMALL),
        False,
    ),
    (
        "cluster-unhedged",
        Scenario("golden-cluster", program="serve_cluster", **_CLUSTER, **_SMALL),
        True,
    ),
    (
        "cluster-updates",
        Scenario(
            "golden-cluster-updates",
            program="serve_cluster",
            **dict(_CLUSTER, arrivals="poisson", num_replicas=3),
            cluster_updates=2,
            update_edges=32,
            **_SMALL,
        ),
        False,
    ),
    (
        "dynamic-incremental",
        Scenario(
            "golden-dyn",
            program="dynamic",
            maintained="levels",
            update_batches=3,
            update_edges=8,
            **_SMALL,
        ),
        False,
    ),
    (
        "dynamic-recompute",
        Scenario(
            "golden-dyn",
            program="dynamic",
            maintained="levels",
            update_batches=3,
            update_edges=8,
            **_SMALL,
        ),
        True,
    ),
    (
        "dynamic-deletes",
        Scenario(
            "golden-dyn-deletes",
            program="dynamic",
            maintained="components",
            update_style="pa",
            update_batches=3,
            update_edges=32,
            delete_fraction=0.25,
            **_SMALL,
        ),
        False,
    ),
    (
        "build",
        Scenario(
            "golden-build",
            program="build",
            sources=2,
            chunk_edges=4096,
            block_edges=4096,
            **_SMALL,
        ),
        False,
    ),
)

#: Keys whose values are wall-clock rates.
_WALL_RATES = ("queries_per_sec", "updates_per_sec")
#: Sections masked value by value (keys pinned) and masked whole.
_WALL_SECTION, _RSS_SECTION = "wall_s", "max_rss_mb"
WALL, RSS = "<wall>", "<rss>"


def _mode_kwargs(baseline: bool) -> dict:
    """The run-mode keyword(s) of ``run_scenario``: the one ``baseline``
    switch, or the three per-kind switches the file was written through."""
    if "baseline" in inspect.signature(run_scenario).parameters:
        return {"baseline": baseline}
    return {
        "serve_batched": not baseline,
        "cluster_hedging": not baseline,
        "dyn_incremental": not baseline,
    }


def _axis_kwargs() -> dict:
    """The run-time axes asked for, with ``kernels`` on the commits whose
    ``run_scenario`` still took it."""
    axes = {"backend": "inline", "storage": "memory"}
    if "kernels" in inspect.signature(run_scenario).parameters:
        axes["kernels"] = "numpy"
    return axes


def run_case(spec: Scenario, baseline: bool) -> dict:
    """The raw record of one case."""
    return run_scenario(spec, repeats=2, **_axis_kwargs(), **_mode_kwargs(baseline))


def _mask(value):
    if isinstance(value, dict):
        return {
            key: WALL if key.startswith("wall_") or key in _WALL_RATES else _mask(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask(item) for item in value]
    return value


def normalize(record: dict) -> dict:
    """``record`` with wall-clock and RSS values replaced by markers."""
    out = _mask({k: v for k, v in record.items() if k not in (_WALL_SECTION, _RSS_SECTION)})
    out[_WALL_SECTION] = {phase: WALL for phase in record[_WALL_SECTION]}
    out[_RSS_SECTION] = RSS
    # JSON has no tuples: compare what the file can hold.
    return json.loads(json.dumps(out))


def derive() -> dict:
    """Every case's normalized record, by case name."""
    return {name: normalize(run_case(spec, baseline)) for name, spec, baseline in CASES}


def main() -> int:
    if "--check" in sys.argv:
        expected = json.loads(GOLDEN.read_text())
        got = derive()
        same = [name for name in expected if got.get(name) == expected[name]]
        print(f"{len(same)} of {len(expected)} records match {GOLDEN}")
        return 0 if len(same) == len(expected) == len(got) else 1
    if GOLDEN.exists():
        print(f"{GOLDEN} exists; it is a fixed point and is never regenerated")
        return 1
    golden = derive()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
