"""Mutable graphs (``repro.dynamic``): deltas, overlays, incremental repair.

Every graph in the build-time pipeline is frozen; this package makes it
mutable without giving up the degree-separated machinery:

* :mod:`repro.dynamic.delta` — :class:`EdgeDelta` update batches and the
  deterministic :func:`update_stream` generator (uniform and
  preferential-attachment styles, pinned by seed);
* :mod:`repro.dynamic.graph` — :class:`DynamicGraph`: the partitioned CSR
  plus a per-GPU adjacency overlay for fresh insertions, a monotonically
  increasing ``version``, delegate-set crossing tracking, and compaction
  back into clean CSR once the overlay outgrows its budget;
  :class:`DynamicEngine` runs any frontier program over CSR + overlay;
* :mod:`repro.dynamic.incremental` — :class:`Maintained`: keeps the answer
  of any program-table row with a ``maintained`` column (levels,
  components, sssp) current across deltas by resuming the engine from a
  bounded repair frontier, whose seeds :func:`repair_seeds` relaxes from
  the inserted edges through the repair program's own hooks (bit-identical
  to full recompute, at a fraction of the traversal work).

Typical use::

    import repro
    from repro.dynamic import DynamicGraph, DynamicEngine, EdgeDelta, Maintained

    dyn = DynamicGraph(edges, layout="2x1x2", threshold=32)
    engine = DynamicEngine(dyn)
    bfs = Maintained(engine, "levels", source=0)
    applied = engine.apply_delta(EdgeDelta.inserts([[1, 9], [4, 7]]))
    bfs.update(applied)        # bounded repair, not a re-traversal
    bfs.verify()               # bit-identical to a from-scratch run
"""

from repro.dynamic.delta import AppliedDelta, EdgeDelta, UPDATE_STYLES, update_stream
from repro.dynamic.graph import DynamicEngine, DynamicGraph, OverlayBuffer
from repro.dynamic.incremental import (
    LevelRepair,
    Maintained,
    MaintenanceStats,
    repair_seeds,
    seeded_init,
)

__all__ = [
    "AppliedDelta",
    "DynamicEngine",
    "DynamicGraph",
    "EdgeDelta",
    "LevelRepair",
    "Maintained",
    "MaintenanceStats",
    "OverlayBuffer",
    "UPDATE_STYLES",
    "repair_seeds",
    "seeded_init",
    "update_stream",
]
