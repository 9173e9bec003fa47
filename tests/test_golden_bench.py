"""Replay the golden bench records (``tests/golden/bench``).

One small scenario per runner path and run mode — levels, sssp with its
``sssp`` section, closed-loop serving batched and sequential, the cluster
tier hedged, unhedged and under updates, dynamic maintenance incremental,
recompute and under deletions, and the out-of-core build — each compared
with the record written before the stream kinds shared one table.  Only
wall-clock and RSS values are masked; see the generator's docstring.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "bench" / "records.py"
_spec = importlib.util.spec_from_file_location("golden_bench_records", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED = json.loads(golden.GOLDEN.read_text())


def test_golden_covers_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(name for name, _, _ in golden.CASES)


@pytest.mark.parametrize(
    "name, spec, baseline", golden.CASES, ids=[name for name, _, _ in golden.CASES]
)
def test_record_matches_golden(name, spec, baseline):
    assert golden.normalize(golden.run_case(spec, baseline)) == EXPECTED[name]
