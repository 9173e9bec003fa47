"""Replay the golden per-step records of the driver programs.

``tests/golden/engine/driver_records.json`` was generated before the drivers
(PageRank, hooking components, triangle counting) moved onto the engine's run
bookkeeping and is never regenerated; see the generator's docstring for what
an entry holds.  Every plain case replays on the inline and the process
backend from memory, from an mmap store and from a compressed store; every
overlay case, whose dynamic graph lives in memory, on both backends from
memory.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "engine" / "driver_records.py"
_spec = importlib.util.spec_from_file_location("golden_driver_records", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = golden.cases()
EXPECTED = json.loads(golden.GOLDEN.read_text())
PLAIN = [case for case in CASES if not case[4]]
OVERLAY = [case for case in CASES if case[4]]


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return golden.Fixtures(root=tmp_path_factory.mktemp("stores"))


def test_golden_covers_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(golden.case_id(case) for case in CASES)
    assert {case[0] for case in OVERLAY} == set(golden.PROGRAMS)
    # Every overlay case examined more edges than the same program without
    # its overlay: the drivers saw the inserted edges.
    for case in OVERLAY:
        plain = (*case[:4], False)
        assert plain in PLAIN
        overlaid = EXPECTED[golden.case_id(case)]["edges"]
        assert overlaid > EXPECTED[golden.case_id(plain)]["edges"]


@pytest.mark.parametrize("storage", ["memory", "mmap", "compressed"])
@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("case", PLAIN, ids=golden.case_id)
def test_plain_replay(fixtures, case, backend, storage):
    result = golden.run_case(fixtures, case, backend=backend, storage=storage)
    assert golden.digest(result) == EXPECTED[golden.case_id(case)]


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("case", OVERLAY, ids=golden.case_id)
def test_overlay_replay(fixtures, case, backend):
    result = golden.run_case(fixtures, case, backend=backend)
    assert golden.digest(result) == EXPECTED[golden.case_id(case)]
