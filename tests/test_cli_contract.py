"""Golden stdout contract of the four program commands.

The expectations under ``tests/golden/cli/`` were captured from the four
hand-written ``_cmd_{bfs,components,sssp,pagerank}`` bodies (the commit before
the program table) and are *not* regenerated: they are the proof that the one
table-driven body prints what the four did.  Every printed value is modeled or
counted, so the files are host-independent.
"""

from __future__ import annotations

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
}


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
