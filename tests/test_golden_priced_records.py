"""Replay the golden modeled times under non-default options and machines.

``tests/golden/engine/priced_records.json`` was generated before the modeled
seconds were computed from step bills and is never regenerated; see the
generator's docstring for what an entry holds.  Every case replays inline
from memory: backends and stores are the step goldens' business.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "engine" / "priced_records.py"
_spec = importlib.util.spec_from_file_location("golden_priced_records", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = golden.cases()
EXPECTED = json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def fixtures():
    return golden.Fixtures()


def test_golden_covers_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(golden.case_id(case) for case in CASES)


def test_the_options_and_machines_move_the_times():
    """Each option set and each machine prices some case differently from
    the defaults, so the goldens pin what the step goldens cannot."""
    def timing(case):
        return EXPECTED[golden.case_id(case)]["timing"]

    for program in ("levels", "parents", "pagerank"):
        for layout in golden.LAYOUTS:
            base = timing((program, layout, "none", "ray"))
            for machine in ("rdma-nic10x", "low-overhead"):
                assert timing((program, layout, "none", machine)) != base
    for option in ("L", "LU", "LU-IR"):
        assert any(
            timing((program, layout, option, "ray"))
            != timing((program, layout, "none", "ray"))
            for program in golden.PROGRAMS
            for layout in golden.LAYOUTS
        )


@pytest.mark.parametrize("case", CASES, ids=golden.case_id)
def test_replay(fixtures, case):
    assert golden.digest(golden.run_case(fixtures, case)) == EXPECTED[golden.case_id(case)]
