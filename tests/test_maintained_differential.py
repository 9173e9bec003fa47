"""Differential test of every maintained answer against a from-scratch run.

Each maintained row of the program table, entered through
``PROGRAM_TABLE[name].maintain(engine, source)``, replays uniform and
preferential-attachment insert streams on the inline and the process
backend.  After every batch:

* the maintained array equals the answer of a from-scratch run;
* a repair starts from exactly the state the reference relaxation below
  computes — each inserted edge relaxed once against the current answer —
  scattered by :func:`repro.dynamic.seeded_init`;
* the skip path (an insertion that improves nothing), the delete path and
  the out-of-order path (both full recomputes) each occur, and
  :class:`repro.dynamic.MaintenanceStats` counts every path's work.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.programs import PROGRAM_TABLE, make_program
from repro.core.state import UNVISITED
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta, seeded_init, update_stream
from repro.dynamic.incremental import MaintenanceStats
from repro.graph.rmat import generate_rmat

SOURCE = 1
WEIGHTS_SEED = 5
_MAXI = np.int64(np.iinfo(np.int64).max)


def _reference_seeds(name: str, values: np.ndarray, applied):
    """``(seeded values, frontier)`` of one insert-only delta, or ``None``
    when no inserted edge improves ``values``."""
    src, dst = applied.insert_src, applied.insert_dst
    if name == "levels":
        du = values[src]
        ok = du >= 0
        current = np.where(values >= 0, values, _MAXI)
        proposed = current.copy()
        np.minimum.at(proposed, dst[ok], du[ok] + 1)
    elif name == "components":
        current = values
        proposed = values.copy()
        np.minimum.at(proposed, dst, values[src])
    else:  # sssp: float distances; unreached sources propose nothing
        reached = values != UNVISITED
        current = values.view(np.float64).copy()
        current[~reached] = np.inf
        ok = reached[src]
        proposed = current.copy()
        np.minimum.at(proposed, dst[ok], current[src[ok]] + applied.insert_weights[ok])
    changed = np.flatnonzero(proposed < current)
    if changed.size == 0:
        return None
    seeded = values.copy()
    seeded[changed] = proposed[changed].view(np.int64) if name == "sssp" else proposed[changed]
    return seeded, changed


def _assert_same_init(got, want) -> None:
    for a, b in zip(got.normal_values, want.normal_values, strict=True):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got.normal_frontiers, want.normal_frontiers, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.delegate_values, want.delegate_values)
    np.testing.assert_array_equal(got.delegate_frontier, want.delegate_frontier)


class _Tracked:
    """A maintained answer, its runs recorded and its stats re-derived."""

    def __init__(self, name: str, engine: DynamicEngine) -> None:
        self.name = name
        self.engine = engine
        #: The starting state of every run: the seeded ``init`` when one is
        #: passed (copied: the run folds into its arrays), else the program's
        #: own ``init_state``.
        self.inits: list = []
        run = engine.run

        def recording(program, init=None):
            self.inits.append(
                copy.deepcopy(init) if init is not None else program.init_state(engine.graph)
            )
            return run(program, init=init)

        engine.run = recording
        self.maintained = PROGRAM_TABLE[name].maintain(engine, SOURCE)
        self.expected = MaintenanceStats()
        self._count("recompute", self.maintained.result)
        self.paths: list[str] = []

    def _count(self, path: str, result) -> None:
        stats = self.expected
        if path == "skip":
            stats.skipped += 1
        elif path == "repair":
            stats.repairs += 1
            stats.repair_edges += int(result.total_edges_examined)
            stats.repair_iterations += int(result.iterations)
            stats.repair_modeled_ms += float(result.timing.elapsed_ms)
        else:
            stats.recomputes += 1
            stats.recompute_edges += int(result.total_edges_examined)
            stats.recompute_modeled_ms += float(result.timing.elapsed_ms)

    def update(self, applied, in_order: bool = True) -> str:
        """Update with ``applied``; returns the path the reference predicts."""
        before = self.maintained.values.copy()
        self.inits.clear()
        result = self.maintained.update(applied)
        if applied.num_deletes or not in_order:
            path = "recompute"
        else:
            seeds = _reference_seeds(self.name, before, applied)
            path = "skip" if seeds is None else "repair"
            if seeds is not None:
                (init,) = self.inits
                _assert_same_init(init, seeded_init(self.engine.graph, *seeds))
        if path == "skip":
            assert self.inits == []
            np.testing.assert_array_equal(self.maintained.values, before)
        self._count(path, result)
        self.paths.append(path)
        self.check()
        return path

    def check(self) -> None:
        program = make_program(self.name, SOURCE if PROGRAM_TABLE[self.name].takes_source else None)
        fresh = self.engine.run(program)
        np.testing.assert_array_equal(
            self.maintained.values, getattr(fresh, fresh.answer_fields[0])
        )
        assert self.maintained.stats == self.expected


def _same_value_pair(values: np.ndarray) -> list[int]:
    """Two vertices holding the answer's most common value: an edge between
    them improves neither (``value + w >= value`` for every row)."""
    common = np.unique(values, return_counts=True)
    members = np.flatnonzero(values == common[0][np.argmax(common[1])])
    return [int(members[0]), int(members[-1])]


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("style", ["uniform", "pa"])
@pytest.mark.parametrize("name", ["levels", "components", "sssp"])
def test_maintained_matches_recompute(name, style, backend):
    weighted = PROGRAM_TABLE[name].cls.needs_weights
    edges = generate_rmat(9, rng=13, weights_seed=WEIGHTS_SEED if weighted else None)
    dyn = DynamicGraph(edges, "2x1x2", 16, weights_seed=WEIGHTS_SEED if weighted else 0)
    engine = DynamicEngine(dyn, backend=backend)
    try:
        tracked = _Tracked(name, engine)
        tracked.check()
        for delta in update_stream(edges, 3, 48, style=style, seed=29):
            assert tracked.update(engine.apply_delta(delta)) in ("repair", "skip")

        # An insertion between two equal values improves nothing.
        pair = _same_value_pair(tracked.maintained.values)
        applied = engine.apply_delta(EdgeDelta.inserts([pair]))
        assert applied.num_inserts == 2
        assert tracked.update(applied) == "skip"

        # Deletions can make answers worse: recompute.
        u, v = int(edges.src[7]), int(edges.dst[7])
        applied = engine.apply_delta(EdgeDelta.deletes([[u, v]]))
        assert applied.num_deletes == 2
        assert tracked.update(applied) == "recompute"

        # A skipped version leaves the answer untrusted: recompute.
        engine.apply_delta(EdgeDelta.inserts([[SOURCE, 400]]))
        applied = engine.apply_delta(EdgeDelta.inserts([[SOURCE, 401]]))
        assert tracked.update(applied, in_order=False) == "recompute"

        assert {"repair", "skip", "recompute"} <= set(tracked.paths)
        assert tracked.maintained.stats.repairs == tracked.paths.count("repair") > 0
    finally:
        engine.close()
