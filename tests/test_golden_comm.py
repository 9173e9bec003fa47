"""Replay the golden communicator records (``tests/golden/comm``).

The goldens were written before the exchange and the delegate all-reduce were
each folded into one method and are never regenerated; see the generator's
docstring for what a record covers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "comm" / "exchange_records.py"
_spec = importlib.util.spec_from_file_location("golden_exchange_records", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXCHANGES = golden.exchange_cases()
REDUCTIONS = golden.reduce_cases()
EXPECTED = json.loads(golden.GOLDEN.read_text())


def test_golden_covers_exactly_the_cases():
    ids = [golden.case_id(case) for case in EXCHANGES + REDUCTIONS]
    assert sorted(EXPECTED) == sorted(ids)


def test_the_l_u_cases_deduplicate():
    deduplicated = [
        EXPECTED[golden.case_id(case)]["stats"]["normal_vertices_deduplicated"]
        for case in EXCHANGES
        if case[1] == "LU"
    ]
    assert sum(count > 0 for count in deduplicated) >= 20


@pytest.mark.parametrize("case", EXCHANGES, ids=golden.case_id)
def test_exchange_replay(case):
    assert golden.exchange_digest(case) == EXPECTED[golden.case_id(case)]


@pytest.mark.parametrize("case", REDUCTIONS, ids=golden.case_id)
def test_reduce_replay(case):
    assert golden.reduce_digest(case) == EXPECTED[golden.case_id(case)]
