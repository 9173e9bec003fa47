"""The plan walk decides directions on degree sums and builds a queue only
for a kernel that pushes (``TraversalEngine._plan_super_step``).

Two fixed points: the ``(forward, backward)`` pairs handed to
``DirectionState.decide`` replay the golden list captured before the walk
stopped building queues to sum their degrees (``tests/golden/engine/
decide_pairs.py``; never regenerated), and ``push_payload`` — spied on, for
both frontier representations — is reached exactly for the kernels whose
forward task the plan then lists.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.engine import TraversalEngine
from repro.core.frontier import FlagFrontier, LaneFrontier

_PATH = Path(__file__).parent / "golden" / "engine" / "decide_pairs.py"
_spec = importlib.util.spec_from_file_location("golden_decide_pairs", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED = json.loads(golden.GOLDEN.read_text())
case_id = golden.step_records.case_id


@pytest.fixture(scope="module")
def fixtures():
    return golden.step_records.Fixtures()


def test_golden_covers_exactly_the_cases():
    assert sorted(EXPECTED) == sorted(case_id(case) for case in golden.CASES)
    assert {case[3] for case in golden.CASES} >= {"levels", "parents", "batch70"}


@pytest.mark.parametrize("case", golden.CASES, ids=case_id)
def test_decisions_are_taken_on_the_same_numbers(fixtures, case):
    pairs = golden.decide_pairs(fixtures, case)
    assert len(pairs) == len(EXPECTED[case_id(case)])
    assert pairs == EXPECTED[case_id(case)]


@pytest.mark.parametrize("case", golden.CASES, ids=case_id)
def test_a_queue_is_built_only_for_a_kernel_that_pushes(fixtures, case):
    built: list = []  # (kernel, gpu) of every push_payload call of one step
    steps = {"plans": 0, "pulls": 0, "pushes": 0}

    def spy_on(kind):
        push_payload = kind.push_payload

        def spy(self, kernel, g, out_degrees):
            fields = push_payload(self, kernel, g, out_degrees)
            # Never a queue without an edge to push along.
            assert fields["queue"].size and out_degrees[fields["queue"]].all()
            built.append((kernel, g))
            return fields

        return mock.patch.object(kind, "push_payload", spy)

    plan_super_step = TraversalEngine._plan_super_step

    def checked_plan(self, *args):
        del built[:]
        plan = plan_super_step(self, *args)
        listed = [
            (spec.kernel, gpu_plan.gpu, spec.backward)
            for gpu_plan in plan.gpu_plans
            for spec in gpu_plan.visits
        ]
        forward = [(kernel, g) for kernel, g, backward in listed if not backward]
        pulling = [(kernel, g) for kernel, g, backward in listed if backward]
        # Exactly the pushing kernels had a queue built, once, in walk order;
        # a kernel that pulls this step (or is idle) got none.
        assert built == forward
        assert not set(built) & set(pulling)
        steps["plans"] += 1
        steps["pulls"] += len(pulling)
        steps["pushes"] += len(forward)
        return plan

    with spy_on(FlagFrontier), spy_on(LaneFrontier), mock.patch.object(
        TraversalEngine, "_plan_super_step", checked_plan
    ):
        result = golden.step_records.run_case(fixtures, case)
    assert steps["plans"] == len(result.records)
    assert steps["pulls"] == sum(sum(r.directions.values()) for r in result.records) > 0
    assert steps["pushes"] > 0


def test_the_degree_table_replaces_the_has_edges_table(fixtures):
    graph = fixtures.graph("rmat10", "2x2x2", 8)
    engine = TraversalEngine(graph)
    assert not hasattr(engine, "_delegate_has_edges")
    table = engine._delegate_degrees
    assert table.shape == (2 * graph.num_gpus, graph.num_delegates)
    assert table.dtype == np.int32
    for g, part in enumerate(graph.gpus):
        np.testing.assert_array_equal(table[2 * g], part.dn.out_degrees())
        np.testing.assert_array_equal(table[2 * g + 1], part.dd.out_degrees())
    assert TraversalEngine(fixtures.graph("rmat10", "1x1x1", 1 << 30))._delegate_degrees is None
