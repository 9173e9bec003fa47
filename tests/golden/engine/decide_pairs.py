"""Golden direction-decision inputs of the plan walk.

``decide_pairs.json`` beside this file holds, for four direction-optimised
cases of :mod:`step_records` (levels, parents and two batched levels runs),
every ``(forward, backward)`` workload pair the plan walk handed to
``DirectionState.decide``, in call order.  It was written by
``python tests/golden/engine/decide_pairs.py`` at the commit *before* the walk
took its forward workloads from degree sums instead of from previsit-filtered
queues, and is not regenerated: the replay (``tests/test_plan_walk.py``) is
the proof that every decision is still taken in the same order on the same
two numbers.  Floats (the paper's ``|U|(q+s)/q`` estimate, ``inf`` for an
empty frontier) are stored as ``float.hex()``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

from repro.core.direction import DirectionState

GOLDEN = Path(__file__).with_name("decide_pairs.json")

_spec = importlib.util.spec_from_file_location(
    "golden_step_records", Path(__file__).with_name("step_records.py")
)
step_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_records)

CASES = (
    ("rmat10", "2x1x2", 1, "levels", True),
    ("rmat10", "2x2x2", 8, "parents", True),
    ("rmat10", "2x2x2", 1, "batch70", True),
    ("wdc10", "2x1x2", 8, "batch70", True),
)


def _plain(value):
    return value.hex() if isinstance(value, float) else int(value)


def decide_pairs(fixtures, case: tuple) -> list:
    """Run ``case`` and return the ``[forward, backward]`` of every decision."""
    pairs = []
    decide = DirectionState.decide

    def spy(self, forward_workload, backward_workload):
        pairs.append([_plain(forward_workload), _plain(backward_workload)])
        return decide(self, forward_workload, backward_workload)

    with mock.patch.object(DirectionState, "decide", spy):
        step_records.run_case(fixtures, case)
    return pairs


def main() -> int:
    if GOLDEN.exists() and "--force" not in sys.argv:
        print(f"{GOLDEN} exists; it is a fixed point (pass --force to overwrite)")
        return 1
    fixtures = step_records.Fixtures()
    golden = {step_records.case_id(case): decide_pairs(fixtures, case) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} pairs of {len(golden)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
