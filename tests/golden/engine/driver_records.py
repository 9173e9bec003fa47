"""Golden per-step records of the driver programs.

PageRank, hooking components and triangle counting own their outer loop
(``drive``) instead of running the engine's level loop, so the step goldens
beside this file (``step_records.json``) do not cover them.
``driver_records.json`` does: for each case of :func:`cases` it holds every
record of the run in readable form — per step the frontier sizes,
``edges_examined`` by key, ``directions``, ``discovered``,
``delegate_reduce`` and the ``float.hex()`` of the five modeled times — plus
the run's ``comm_stats``, edge total, modeled elapsed time and a sha256 of
the answer.  It was written by ``python tests/golden/engine/driver_records.py``
at the commit before the drivers moved onto the engine's run bookkeeping and
is not regenerated: the replay (``tests/test_golden_driver_records.py``) is the
proof that the move changed no observable number, on any backend and in any
storage mode.

The cases are four programs (fixed and residual-push PageRank, ``wcc_hook``
and ``triangles``) on three partitionings — an RMAT and a WDC-like long tail
with delegates, and one GPU with none — plus each program over an
uncompacted overlay of inserted edges through a ``DynamicEngine``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.engine import TraversalEngine
from repro.core.programs.table import make_program
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta

GOLDEN = Path(__file__).with_name("driver_records.json")

_spec = importlib.util.spec_from_file_location(
    "golden_step_records", Path(__file__).with_name("step_records.py")
)
step_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_records)
Fixtures = step_records.Fixtures

#: Program label -> ``make_program`` arguments.
PROGRAMS = {
    "pagerank-fixed": ("pagerank", {"mode": "fixed", "iterations": 6}),
    "pagerank-push": ("pagerank", {"mode": "push", "eps": 1e-4}),
    "wcc_hook": ("wcc_hook", {}),
    "triangles": ("triangles", {}),
}
#: ``(graph, layout, threshold)`` of the plain cases.
GRAPHS = (("rmat10", "2x1x2", 8), ("wdc10", "2x2x2", 1), ("rmat10", "1x1x1", 1 << 30))
#: The partitioning the overlay cases start from.
OVERLAY_GRAPH = ("rmat10", "2x1x2", 8)


def cases() -> list[tuple]:
    """``(program, graph, layout, threshold, overlay)`` per case."""
    out = [(program, *graph, False) for graph in GRAPHS for program in PROGRAMS]
    out += [(program, *OVERLAY_GRAPH, True) for program in PROGRAMS]
    return out


def case_id(case: tuple) -> str:
    program, graph, layout, threshold, overlay = case
    th = "inf" if threshold >= 1 << 30 else str(threshold)
    return f"{program}-{graph}-{layout}-th{th}{'-overlay' if overlay else ''}"


def run_case(
    fixtures: Fixtures, case: tuple, backend: str = "inline", storage: str = "memory"
):
    """Execute one case and return its result.  An overlay case builds its
    own dynamic graph, which lives in memory: it takes no storage."""
    label, name, layout, threshold, overlay = case
    program_name, params = PROGRAMS[label]
    program = make_program(program_name, **params)
    if not overlay:
        graph = fixtures.graph(name, layout, threshold, storage=storage)
        with TraversalEngine(graph, backend=backend) as engine:
            return engine.run(program)
    if storage != "memory":
        raise ValueError(f"an overlay case runs from memory, not {storage}")
    edges = fixtures.edges(name)
    # A fresh dynamic graph per run: the overlay must stay uncompacted.
    dyn = DynamicGraph(
        edges, layout, threshold, max_overlay_fraction=1.0, max_degree_crossings=1 << 30
    )
    rng = np.random.default_rng(99)
    pairs = rng.integers(0, edges.num_vertices, size=(40, 2))
    dyn.apply(EdgeDelta.inserts(pairs[pairs[:, 0] != pairs[:, 1]]))
    assert dyn.compactions == 0 and not dyn.overlay.empty
    with DynamicEngine(dyn, backend=backend) as engine:
        return engine.run(program)


def _record(record) -> list:
    return [
        record.iteration,
        record.normal_frontier_size,
        record.delegate_frontier_size,
        {k: int(v) for k, v in sorted(record.edges_examined.items())},
        {k: int(v) for k, v in sorted(record.directions.items())},
        int(record.discovered),
        bool(record.delegate_reduce),
        float(record.computation_s).hex(),
        float(record.local_communication_s).hex(),
        float(record.remote_normal_exchange_s).hex(),
        float(record.remote_delegate_reduce_s).hex(),
        float(record.elapsed_s).hex(),
    ]


def digest(result) -> dict:
    """The golden entry of one result: every record, the run's totals and a
    sha256 of the answer."""
    answer = hashlib.sha256()
    for field in type(result).answer_fields:
        answer.update(np.ascontiguousarray(getattr(result, field), dtype=np.int64).tobytes())
    if hasattr(result, "triangles"):
        answer.update(str(int(result.triangles)).encode())
    return {
        "records": [_record(record) for record in result.records],
        "iterations": int(result.iterations),
        "edges": int(result.total_edges_examined),
        "comm_stats": result.comm_stats.as_dict(),
        "elapsed_ms": float(result.timing.elapsed_ms).hex(),
        "answer_sha256": answer.hexdigest(),
    }


def main() -> int:
    if GOLDEN.exists() and "--force" not in sys.argv:
        print(f"{GOLDEN} exists; it is a fixed point (pass --force to overwrite)")
        return 1
    fixtures = Fixtures()
    golden = {case_id(case): digest(run_case(fixtures, case)) for case in cases()}
    # One line per case: the file is read by the replay, not by eye.
    lines = [
        f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(golden)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    steps = sum(len(entry["records"]) for entry in golden.values())
    print(f"wrote {len(golden)} cases, {steps} records, to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
