"""Replay the golden set-up digests (``tests/golden/graph``).

Generated, prepared, distributed and partitioned arrays, and out-of-core
stores, each compared by sha256 with the digest written before the set-up
pipeline was made to work in place.  See the generator's docstring for the
grid.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "graph" / "setup_digests.py"
_spec = importlib.util.spec_from_file_location("golden_setup_digests", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED = json.loads(golden.GOLDEN.read_text())


def _check(got: dict) -> None:
    wrong = sorted(name for name, value in got.items() if EXPECTED.get(name) != value)
    assert not wrong, f"{len(wrong)} of {len(got)} digests differ, first: {wrong[:5]}"


def test_generators_and_prepare_match_golden():
    _check(golden.generator_cases())


@pytest.mark.parametrize("name", golden.grid_graphs())
def test_grid_graph_matches_golden(name):
    _check(golden.grid_cases(name))


def test_external_build_stores_match_golden():
    _check(golden.store_cases())


def test_golden_grid_is_the_replayed_grid():
    grid = {name.split("/")[1] for name in EXPECTED if name.startswith("grid/")}
    assert grid == set(golden.grid_graphs())
