"""Replay the golden per-step records (``tests/golden/engine``).

The goldens were generated at the commit before the super-step was made
proportional to its frontier and are never regenerated; see the generator's
docstring for what a digest covers.  Every case replays on the inline backend,
every fifth on the thread and process backends as well.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "engine" / "step_records.py"
_spec = importlib.util.spec_from_file_location("golden_step_records", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = golden.cases()
EXPECTED = json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def fixtures():
    return golden.Fixtures()


def test_golden_covers_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(golden.case_id(case) for case in CASES)
    assert 60 <= len(CASES) <= 100


def test_some_gpu_owns_no_edge(fixtures):
    gpus = fixtures.graph("sparse12", "2x2x2", 2).gpus
    assert any(
        part.nn.num_edges + part.nd.num_edges + part.dn.num_edges + part.dd.num_edges == 0
        for part in gpus
    )


@pytest.mark.parametrize("case", CASES, ids=golden.case_id)
def test_inline_replay(fixtures, case):
    assert golden.digest(golden.run_case(fixtures, case)) == EXPECTED[golden.case_id(case)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("case", CASES[:: golden.REMOTE_EVERY], ids=golden.case_id)
def test_remote_replay(fixtures, case, backend):
    result = golden.run_case(fixtures, case, backend=backend)
    assert golden.digest(result) == EXPECTED[golden.case_id(case)]
