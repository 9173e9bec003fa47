"""Golden stdout contract of the program commands, ``mutate`` and ``serve bench``.

The expectations under ``tests/golden/cli/`` are *not* regenerated.  The
program-command files were captured from the four hand-written
``_cmd_{bfs,components,sssp,pagerank}`` bodies (the commit before the program
table): they are the proof that the one table-driven body prints what the four
did.  ``mutate.*`` and ``serve_bench_*.json`` were captured from the
hand-written ``mutate`` / ``serve bench`` bodies (the commit before the
stream-kind table) and prove the shared replays print what those did.  Every
printed value is modeled or counted, so the files are host-independent — except
the serving tier's wall-clock keys, which the ``serve bench`` comparison masks.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
COMMON = ["--scale", "9", "--layout", "2x1x2", "--backend", "inline", "--kernels", "numpy"]
CASES = {
    "bfs_levels": ["bfs"],
    "bfs_parents_validate": ["bfs", "--algorithm", "parents", "--validate"],
    "components_validate": ["components", "--validate"],
    "sssp_delta": ["sssp", "--weights", "3"],
    "sssp_bellman_ford": ["sssp", "--weights", "3", "--bellman-ford"],
    "pagerank_fixed_validate": ["pagerank", "--mode", "fixed", "--validate"],
    "pagerank_push": ["pagerank", "--mode", "push"],
    "mutate": [
        "mutate", "--program", "sssp", "--weights", "3", "--batches", "4",
        "--edges-per-batch", "6",
    ],
}
_SERVE = ["--pool", "32", "--batch-size", "8", "--cache-size", "16"]
SERVE_CASES = {
    "serve_bench_closed": ["--queries", "64", *_SERVE],
    "serve_bench_mixed": [
        "--queries", "64", *_SERVE, "--update-rate", "0.1", "--update-edges", "16",
    ],
    "serve_bench_bursty": [
        "--queries", "160", "--pool", "48", "--batch-size", "8", "--cache-size", "16",
        "--arrivals", "bursty", "--rate", "1500", "--replicas", "3", "--queue-limit", "64",
        "--hedge-quantile", "0.6", "--slo-ms", "2", "--update-rate", "0.03",
        "--update-edges", "16",
    ],
}
#: ``serve bench --json`` keys holding wall-clock values (or rates of them).
WALL_KEYS = frozenset(
    {"wall_s", "flush_wall_max_s", "update_wall_s", "queries_per_sec", "mean_s", "max_s",
     "speedup"}
)


def _mask_wall(value):
    if isinstance(value, dict):
        return {k: "<wall>" if k in WALL_KEYS else _mask_wall(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_wall(v) for v in value]
    return value


def _stdout(argv: list[str], capsys, monkeypatch) -> str:
    for var in ("REPRO_BACKEND", "REPRO_KERNELS", "REPRO_STORAGE", "REPRO_TRACE"):
        monkeypatch.delenv(var, raising=False)
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, form, capsys, monkeypatch):
    argv = [CASES[name][0], *COMMON, *CASES[name][1:]]
    if form == "json":
        argv.append("--json")
    expected = (GOLDEN / f"{name}.{'json' if form == 'json' else 'txt'}").read_text()
    assert _stdout(argv, capsys, monkeypatch) == expected


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_serve_bench_json_matches_golden(name, capsys, monkeypatch):
    argv = ["serve", "bench", *COMMON, *SERVE_CASES[name], "--json"]
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _mask_wall(json.loads(_stdout(argv, capsys, monkeypatch))) == expected
