#!/usr/bin/env python3
"""Dynamic graphs end to end: build -> mutate -> incremental repair -> serve.

This walks the whole mutable-graph story:

1. build a partitioned RMAT graph through the fluent session,
2. keep a BFS answer *maintained* while a preferential-attachment update
   stream mutates the graph — every batch repaired from a bounded frontier
   (seeded by ``repair_seeds``: the inserted edges relaxed once through the
   repair program's own hooks) and verified bit-identical to a from-scratch
   run,
3. compare the repair's traversal work against the full recompute it
   replaces, and
4. serve a mixed read/update workload through the QueryService, watching the
   version-tagged cache invalidate by epoch bump on every applied delta.

Run with::

    python examples/dynamic_updates.py [scale]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.dynamic import DynamicEngine, DynamicGraph, Maintained, update_stream
from repro.graph.degree import out_degrees
from repro.serve import MixedWorkload, QueryService, ZipfWorkload


def main(scale: int = 13) -> None:
    print(f"== Building a scale-{scale} RMAT graph ==")
    session = repro.session(layout="4x1x2").generate(scale=scale, seed=7)
    graph = session.threshold(repro.auto).build()
    edges = graph.edges

    print("\n== Maintaining BFS levels across an update stream ==")
    dynamic = DynamicGraph(edges, graph.graph.layout, graph.graph.threshold)
    engine = DynamicEngine(dynamic)
    maintained = Maintained(engine, "levels", source=0)
    initial = maintained.result
    print(
        f"initial BFS: {initial.num_visited:,} visited, "
        f"{initial.total_edges_examined:,} edges examined, "
        f"{initial.timing.elapsed_ms:.3f} ms modeled"
    )

    for i, delta in enumerate(update_stream(edges, 4, 2048, style="pa", seed=3)):
        applied = engine.apply_delta(delta)
        repaired = maintained.update(applied)
        fresh = maintained.verify()  # raises unless bit-identical
        note = f" [compacted: {applied.compact_reason}]" if applied.compacted else ""
        print(
            f"batch {i}: +{applied.num_inserts} edges -> repair examined "
            f"{repaired.total_edges_examined:,} edges "
            f"({repaired.timing.elapsed_ms:.3f} ms modeled) vs recompute "
            f"{fresh.total_edges_examined:,} ({fresh.timing.elapsed_ms:.3f} ms)"
            + note
        )
    stats = maintained.stats
    print(
        f"maintenance totals: {stats.repairs} repairs over "
        f"{stats.repair_edges:,} edges; graph at version {dynamic.version}, "
        f"{dynamic.overlay.num_edges:,} overlay edges, "
        f"{dynamic.compactions} compaction(s)"
    )

    print("\n== The one-liner: mutate through the session facade ==")
    target = edges.num_vertices - 1
    session_graph = repro.session(layout="4x1x2").generate(scale=scale, seed=7).build()
    before = int(session_graph.bfs(0).distances[target])
    session_graph.mutate(inserts=[[0, target]])
    after = int(session_graph.bfs(0).distances[target])
    print(f"distance 0 -> {target}: {before} before the insert, {after} after")

    print("\n== Serving a mixed read/update workload ==")
    workload = MixedWorkload(
        queries=ZipfWorkload(num_queries=192, skew=1.0, pool=64, seed=11),
        update_rate=0.1,
        edges_per_update=512,
        update_style="pa",
    )
    operations = workload.generate(edges, degrees=out_degrees(edges))
    service = QueryService(
        DynamicEngine(DynamicGraph(edges, graph.graph.layout, graph.graph.threshold)),
        batch_size=16,
        cache_size=256,
    )
    service.run_mixed(operations)
    snapshot = service.stats_snapshot()["service"]
    cache = service.stats_snapshot()["cache"]
    print(
        f"{snapshot['queries']} queries at {snapshot['queries_per_sec']:,.0f} q/s, "
        f"{snapshot['updates']} update batches applied"
    )
    print(
        f"cache: {cache['hits']} hits ({cache['hit_rate']:.0%}), "
        f"{snapshot['epoch_bumps']} epoch bumps invalidated "
        f"{snapshot['entries_invalidated']} entries"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 13)
