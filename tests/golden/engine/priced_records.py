"""Golden modeled times under non-default options and machines.

The step and driver goldens beside this file run every program with the
default :class:`~repro.core.options.BFSOptions` and the default
:class:`~repro.cluster.hardware.HardwareSpec`, so the engine-level local
all2all (L), uniquify (U) and non-blocking reduce (IR) charges, and every
machine but Ray, reach no golden.  ``priced_records.json`` does: for each case
of :func:`cases` it holds the ``float.hex()`` of the five modeled times of
every record of the run and of the run's ``TimingBreakdown`` totals.  It was
written by ``python tests/golden/engine/priced_records.py`` before the
modeled seconds were computed from step bills, and is never regenerated: the
replay (``tests/test_golden_priced_records.py``) is the proof that pricing a
step's bill gives the seconds the inline formulas gave.

The cases cross six programs (BFS levels, BFS parents, a three-lane batched
levels run, delta-stepping SSSP, fixed-sweep PageRank and hooking
components) with rmat10 on two layouts, four option sets (none, L, L+U,
L+U+IR) and three machines: Ray, Ray with RDMA (no staging copies) and a 10x
NIC, and the low-overhead machine of the option-ablation figure.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.cluster.hardware import HardwareSpec
from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import BatchedBFSLevels, BFSLevels, BFSParents
from repro.core.programs.table import make_program
from repro.weighted import DeltaSteppingSSSP

GOLDEN = Path(__file__).with_name("priced_records.json")

_spec = importlib.util.spec_from_file_location(
    "golden_step_records", Path(__file__).with_name("step_records.py")
)
step_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_records)
Fixtures = step_records.Fixtures

PROGRAMS = ("levels", "parents", "batch3", "sssp", "pagerank", "hooking")
LAYOUTS = ("2x2x2", "4x2x2")
#: Delegate threshold of every case: a mixed normal / delegate split.
THRESHOLD = 8
OPTIONS = {
    "none": BFSOptions(),
    "L": BFSOptions(local_all2all=True),
    "LU": BFSOptions(local_all2all=True, uniquify=True),
    "LU-IR": BFSOptions(local_all2all=True, uniquify=True, blocking_reduce=False),
}
_RAY = HardwareSpec()
MACHINES = {
    "ray": _RAY,
    "rdma-nic10x": replace(
        _RAY, staging_copies=0, nic_bandwidth_Bps=10 * _RAY.nic_bandwidth_Bps
    ),
    "low-overhead": HardwareSpec(kernel_overhead_s=2e-7, iteration_overhead_s=2e-7),
}


def cases() -> list[tuple[str, str, str, str]]:
    """``(program, layout, options, machine)`` per case."""
    return [
        (program, layout, options, machine)
        for program in PROGRAMS
        for layout in LAYOUTS
        for options in OPTIONS
        for machine in MACHINES
    ]


def case_id(case: tuple) -> str:
    return "-".join(case)


def run_case(fixtures: Fixtures, case: tuple):
    """Execute one case inline from memory and return its result."""
    label, layout, options, machine = case
    weighted = label == "sssp"
    edges = fixtures.edges("rmat10", weighted)
    graph = fixtures.graph("rmat10", layout, THRESHOLD, weighted)
    sources = step_records._sources(edges, 3)
    with TraversalEngine(
        graph, options=OPTIONS[options], hardware=MACHINES[machine], backend="inline"
    ) as engine:
        if label == "batch3":
            return engine.run_batch(BatchedBFSLevels(sources))
        program = {
            "levels": lambda: BFSLevels(sources[0]),
            "parents": lambda: BFSParents(sources[0]),
            "sssp": lambda: DeltaSteppingSSSP(sources[0], delta=0.25),
            "pagerank": lambda: make_program("pagerank", mode="fixed", iterations=4),
            "hooking": lambda: make_program("wcc_hook"),
        }[label]()
        return engine.run(program)


def _hex(*times: float) -> list[str]:
    return [float(t).hex() for t in times]


def digest(result) -> dict:
    """The golden entry of one result: every record's five modeled times
    and the run's totals."""
    timing = result.timing
    return {
        "records": [
            _hex(
                r.computation_s, r.local_communication_s, r.remote_normal_exchange_s,
                r.remote_delegate_reduce_s, r.elapsed_s,
            )
            for r in result.records
        ],
        "timing": _hex(
            timing.computation, timing.local_communication, timing.remote_normal_exchange,
            timing.remote_delegate_reduce, timing.elapsed_ms,
        ),
    }


def main() -> int:
    if GOLDEN.exists():
        print(f"{GOLDEN} exists; it is a fixed point and is never overwritten")
        return 1
    fixtures = Fixtures()
    golden = {case_id(case): digest(run_case(fixtures, case)) for case in cases()}
    # One line per case: the file is read by the replay, not by eye.
    lines = [
        f"{json.dumps(key)}: {json.dumps(golden[key], separators=(',', ':'))}"
        for key in sorted(golden)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    steps = sum(len(entry["records"]) for entry in golden.values())
    print(f"wrote {len(golden)} cases, {steps} records, to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
