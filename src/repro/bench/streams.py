"""The stream-kind table: what a *stream scenario* is, stated once.

A traversal scenario runs one row of :data:`repro.core.programs.PROGRAM_TABLE`
from each of its sources.  The kinds here replay a *stream* instead — queries,
timed arrivals, update batches, edge chunks — and :data:`STREAM_TABLE` holds
one :class:`StreamKind` row per kind.  A row's replay is the one code path that
drives its kind: ``repro bench run`` (:func:`repro.bench.run_scenario`) calls
it once per repeat, and the CLI's ``serve bench`` and ``mutate`` call the same
functions on the graph they build from their flags.  Adding a stream kind is
one row plus one replay.  A row states:

``fields``
    The :class:`~repro.bench.Scenario` fields identifying the workload, in
    ``describe()`` order (plus ``update_fields`` when the stream mutates).
``probe``
    ``spec -> None``: builds the kind's workload and config objects, so their
    own constructors reject a bad scenario before its graph is built.
``mutates``
    ``spec -> bool``: the replay mutates its graph, so the scenario runs (and
    records) memory storage and each replay gets a fresh mutable view.
``section``, ``baseline``
    The record section the replay fills; what ``baseline=True`` (``bench run
    --baseline``) replays instead — the gated counters are the same.
``prepare``, ``feed``, ``replay``, ``finish``
    ``(spec, config) -> Prepared``, timed once; ``(spec, prepared) ->
    (replay kwargs, record keys)``; the replay, timed per repeat;
    ``(spec, prepared, section, wall minima) -> section``.

:data:`TRAVERSAL` states a traversal scenario in the same columns, so the
runner has one path for every scenario.
"""

from __future__ import annotations

import functools
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable

import numpy as np

from repro.core.programs.table import PROGRAM_TABLE, make_program, names_where
from repro.exec.config import ExecConfig
from repro.graph.degree import out_degrees, resolve_sources
from repro.utils.rng import hash64
from repro.utils.rss import max_rss_mb
from repro.utils.timing import Timer, TimingBreakdown, now_s

__all__ = [
    "BenchDeterminismError",
    "fold_checksum",
    "values_checksum",
    "StreamKind",
    "STREAM_TABLE",
    "TRAVERSAL",
    "Prepared",
    "Replayed",
    "serve_closed",
    "serve_open",
    "maintain",
    "traverse",
]


class BenchDeterminismError(AssertionError):
    """Two passes over the same scenario produced different workload counters."""


# ---------------------------------------------------------------------- #
# What a record counts
# ---------------------------------------------------------------------- #
def values_checksum(result) -> int:
    """Order-independent 64-bit checksum of a traversal result's answer.

    Covers the per-vertex array(s) the result class names as its answer
    (``answer_fields``) so the comparator can prove two artifacts describe
    the *same* traversal answers, not merely similar timings.
    """
    checksum = np.uint64(0)
    for attr in result.answer_fields:
        values = np.asarray(getattr(result, attr), dtype=np.int64)
        # Hash (index, value) pairs so permutations do not collide.
        mixed = hash64(
            values.view(np.uint64) ^ hash64(np.arange(values.size, dtype=np.uint64))
        )
        checksum ^= np.bitwise_xor.reduce(mixed) if mixed.size else np.uint64(0)
    return int(checksum)


def fold_checksum(checksum: int, i: int, value: int) -> int:
    """Fold checksum ``value`` of answer ``i`` into an order-mixed checksum:
    a bare XOR would cancel identical answers (sources are drawn with
    replacement, so they happen), blinding the drift gate to answer changes."""
    return checksum ^ int(hash64(np.uint64(value), seed=i + 1))


def _result_counters(result) -> dict:
    """The deterministic portion of one traversal result."""
    return {
        "iterations": int(result.iterations),
        "total_edges_examined": int(result.total_edges_examined),
        "edges_by_kernel": {k: int(v) for k, v in sorted(result.workload_by_kernel().items())},
        "comm": result.comm_stats.as_dict(),
        "modeled_elapsed_ms": float(result.timing.elapsed_ms),
        "values_checksum": values_checksum(result),
    }


def _merge_counters(per_source: list[dict]) -> dict:
    """Aggregate per-source counters into one scenario-level record."""
    merged = {
        "runs": len(per_source),
        "iterations": sum(c["iterations"] for c in per_source),
        "total_edges_examined": sum(c["total_edges_examined"] for c in per_source),
        "edges_by_kernel": {},
        "comm": {},
        "modeled_elapsed_ms": float(sum(c["modeled_elapsed_ms"] for c in per_source)),
        "values_checksum": 0,
    }
    for i, counters in enumerate(per_source):
        for part in ("edges_by_kernel", "comm"):
            for key, value in counters[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        merged["values_checksum"] = fold_checksum(
            merged["values_checksum"], i, counters["values_checksum"]
        )
    return merged


# ---------------------------------------------------------------------- #
# The graph a stream replays against
# ---------------------------------------------------------------------- #
@dataclass
class Prepared:
    """A stream's graph: built once, replayed any number of times."""

    #: The prepared edge list; ``None`` for a store built out of core.
    edges: object
    layout: object
    threshold: int
    graph: object
    #: The run configuration every engine over the graph uses.
    config: ExecConfig
    options: object = None
    #: Wall seconds of the set-up phases, in pipeline order.
    wall: dict = field(default_factory=dict)
    #: Peak RSS (MiB) sampled after each set-up phase.
    rss: dict = field(default_factory=dict)
    #: Seed of the weights derived for inserted edges on a weighted graph.
    weights_seed: int = 0
    #: The out-of-core build's report (build scenarios only).
    report: dict | None = None
    _store_dir: tempfile.TemporaryDirectory | None = None
    _engine: object = None

    @classmethod
    def partition(cls, edges, layout: str, threshold, config: ExecConfig, options=None):
        """Partition ``edges`` over ``layout`` with degree threshold
        ``threshold`` (``None``: the paper's suggestion); timed as
        ``partition``."""
        from repro.partition.delegates import suggest_threshold
        from repro.partition.layout import ClusterLayout
        from repro.partition.subgraphs import build_partitions

        layout = ClusterLayout.from_notation(layout)
        if threshold is None:
            threshold = suggest_threshold(edges, layout.num_gpus)
        with Timer() as timer:
            graph = build_partitions(edges, layout, threshold)
        return cls(
            edges, layout, threshold, graph, config, options,
            {"partition": timer.elapsed}, {"partition": max_rss_mb()},
        )

    def engine(self):
        """The one :class:`~repro.core.engine.TraversalEngine` over the built
        graph, shared by every replay that leaves the graph as it is."""
        if self._engine is None:
            from repro.core.engine import TraversalEngine

            self._engine = TraversalEngine(
                self.graph, options=self.options, backend=self.config.backend
            )
        return self._engine

    def mutable(self):
        """A fresh :class:`~repro.dynamic.DynamicGraph` adopting the built
        partitioning, which stays read-only: compaction replaces it."""
        from repro.dynamic import DynamicGraph

        return DynamicGraph(
            self.edges,
            self.layout,
            self.threshold,
            partitioned=self.graph,
            weights_seed=self.weights_seed,
        )

    def dynamic_engine(self):
        """A :class:`~repro.dynamic.DynamicEngine` over :meth:`mutable`."""
        from repro.dynamic import DynamicEngine

        return DynamicEngine(self.mutable(), options=self.options, backend=self.config.backend)

    def close(self) -> None:
        """Close the shared engine and drop a temporary store.  Unlinking
        open-mmapped segments is safe on POSIX; cached handles keep their
        (now anonymous) pages until process exit."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self._store_dir is not None:
            self._store_dir.cleanup()
            self._store_dir = None


def _prepare_graph(spec, config: ExecConfig) -> Prepared:
    """Build edges -> threshold -> partition -> attach ``config.storage`` into
    a temporary store: the set-up of every kind but ``build``."""
    with Timer() as build_timer:
        edges = spec.build_edges()
    rss = max_rss_mb()
    prepared = Prepared.partition(edges, spec.layout, spec.threshold, config, spec.options)
    prepared.wall["graph_build"], prepared.rss["graph_build"] = build_timer.elapsed, rss
    if config.storage != "memory":
        from repro.storage import apply_storage

        prepared._store_dir = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        with Timer() as storage_timer:
            prepared.graph = apply_storage(
                prepared.graph, config.storage, path=prepared._store_dir.name
            )
        prepared.wall["storage"] = storage_timer.elapsed
        prepared.rss["storage"] = max_rss_mb()
    return prepared


def _prepare_store(spec, config: ExecConfig) -> Prepared:
    """The build kind's set-up: stream the spec's edge chunks through the
    out-of-core pipeline into a temporary store (``graph_build``, its passes
    as ``build_*``), then attach it (``partition``).  It runs once: it is
    deterministic and IO-dominated, where repeat minima would reward
    page-cache warmth, not the pipeline.  ``memory`` is not a store flavour,
    so a memory resolution coerces to ``mmap``."""
    from repro.partition.layout import ClusterLayout
    from repro.storage import load_graph_store
    from repro.storage.extsort import external_build

    if config.storage == "memory":
        config = replace(config, storage="mmap")
    layout = ClusterLayout.from_notation(spec.layout)
    store_dir = tempfile.TemporaryDirectory(prefix="repro-bench-build-")
    try:
        with Timer() as build_timer:
            store_path, report = external_build(
                spec.edge_chunks(),
                1 << spec.scale,
                layout,
                Path(store_dir.name) / "store",
                threshold=spec.threshold,
                storage=config.storage,
                block_edges=spec.block_edges,
            )
        rss = {"graph_build": max_rss_mb()}
        with Timer() as attach_timer:
            graph = load_graph_store(store_path)
        rss["partition"] = max_rss_mb()
    except BaseException:
        store_dir.cleanup()
        raise
    wall = {f"build_{name}": float(seconds) for name, seconds in report["walls"].items()}
    wall.update(graph_build=build_timer.elapsed, partition=attach_timer.elapsed)
    return Prepared(
        None, layout, int(report["threshold"]), graph, config, spec.options, wall, rss,
        report=report, _store_dir=store_dir,
    )


# ---------------------------------------------------------------------- #
# The replays
# ---------------------------------------------------------------------- #
@dataclass
class Replayed:
    """What one replay reports."""

    #: Wall seconds per phase; ``traversal`` is the kind's measured phase.
    wall: dict
    #: The gated counters: identical in both modes and on every backend.
    counters: dict
    #: The record's ``modeled_ms``.
    modeled_ms: dict
    #: The deterministic entries of the kind's record section.
    section: dict
    #: What the CLI reports: the service, the replica snapshots, the batches.
    detail: object = None


def serve_closed(
    prepared: Prepared, stream, *, batch_size: int, cache_size: int, baseline: bool = False
) -> Replayed:
    """Closed loop: replay ``stream`` through a fresh
    :class:`~repro.serve.QueryService` in waves of ``batch_size``, over the
    shared engine — or, for a stream mixing in update batches, a fresh
    :class:`~repro.dynamic.DynamicEngine`.  ``baseline`` answers misses one
    by one instead of in fused MS-BFS batches.  The measured wall is the
    service's time inside flushes.
    """
    from repro.serve.service import QueryService
    from repro.serve.workload import Query

    mixed = not all(isinstance(op, Query) for op in stream)
    engine = prepared.dynamic_engine() if mixed else prepared.engine()
    service = QueryService(
        engine, batch_size=batch_size, cache_size=cache_size, batched=not baseline
    )
    try:
        results = service.run_mixed(stream)
    finally:
        if mixed:
            engine.close()
    checksum, modeled, seen = 0, 0.0, set()
    for i, result in enumerate(results):
        checksum = fold_checksum(checksum, i, values_checksum(result))
        if id(result) not in seen:
            seen.add(id(result))
            modeled += float(result.timing.elapsed_ms)
    stats, cache = service.stats, service.cache.stats
    return Replayed(
        wall={"traversal": stats.wall_s},
        counters={
            "queries": stats.queries,
            "flushes": stats.flushes,
            "coalesced": stats.coalesced,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "answers_checksum": checksum,
        },
        modeled_ms={"elapsed_ms": modeled},
        section={
            "queries": stats.queries,
            "batched": not baseline,
            "batch_size": batch_size,
            "traversals": stats.traversals,
            "batches": stats.batches,
        },
        detail=service,
    )


def serve_open(
    prepared: Prepared,
    stream,
    cluster_config,
    *,
    replicas: int,
    batch_size: int,
    cache_size: int,
    baseline: bool = False,
) -> Replayed:
    """Open loop: replay a timed ``stream`` through a fresh
    :class:`~repro.serve.cluster.ReplicaPool` and
    :class:`~repro.serve.cluster.ClusterDispatcher` on the virtual clock (over
    a fresh mutable view when the stream carries updates).  ``baseline`` turns
    hedging off; the snapshot is deterministic per mode, its ``counters`` half
    in both modes and on every backend.  The measured wall is the dispatch.
    """
    from repro.serve.cluster import ClusterDispatcher, ReplicaPool, TimedUpdate

    mutating = any(isinstance(item, TimedUpdate) for item in stream)
    pool = ReplicaPool(
        prepared.mutable() if mutating else prepared.graph,
        replicas,
        options=prepared.options,
        backend=prepared.config.backend,
        batch_size=batch_size,
        cache_size=cache_size,
    )
    try:
        dispatcher = ClusterDispatcher(
            pool, replace(cluster_config, hedge=False) if baseline else cluster_config
        )
        with Timer() as replay_timer:
            snapshot = dispatcher.run(stream)
        replica_snapshots = [replica.service.stats_snapshot() for replica in pool]
    finally:
        pool.close()
    cluster = snapshot["cluster"]
    return Replayed(
        wall={"traversal": replay_timer.elapsed},
        counters=snapshot["counters"],
        modeled_ms={"elapsed_ms": cluster["virtual_makespan_ms"]},
        section=cluster,
        detail=replica_snapshots,
    )


def maintain(
    prepared: Prepared,
    stream,
    program: str,
    source: int | None = None,
    *,
    verify: bool = True,
    baseline: bool = False,
) -> Replayed:
    """Maintained updates: per batch of ``stream``, apply it to a fresh mutable
    view, update ``program``'s maintained answer and (``verify``) recompute it
    from scratch, which raises on any divergence.  Both paths always run, so
    the counters are the same in either mode; ``baseline`` charges the
    recompute path to the measured ``traversal``.  ``detail``: the per-batch
    entries ``mutate`` prints, the maintenance stats and the graph.
    """
    engine = prepared.dynamic_engine()
    dynamic = engine.dynamic
    wall = {"initial": 0.0, "apply": 0.0, "incremental": 0.0, "recompute": 0.0}
    batches: list[dict] = []
    checksum = 0
    try:
        maintained = PROGRAM_TABLE[program].maintain(engine, source)
        initial = maintained.result
        wall["initial"] = float(initial.wall_s["traversal"])
        for i, delta in enumerate(stream):
            started = now_s()
            applied = engine.apply_delta(delta)
            wall["apply"] += now_s() - started
            repairs, recomputes = maintained.stats.repairs, maintained.stats.recomputes
            started = now_s()
            result = maintained.update(applied)
            wall["incremental"] += now_s() - started
            path = "skip"
            if maintained.stats.repairs > repairs:
                path = "repair"
            elif maintained.stats.recomputes > recomputes:
                path = "recompute"
            entry = {
                "batch": i,
                "inserted": applied.num_inserts,
                "deleted": applied.num_deletes,
                "version": applied.version,
                "compacted": applied.compacted,
                "compact_reason": applied.compact_reason,
                "path": path,
                "iterations": int(result.iterations),
                "edges_examined": int(result.total_edges_examined),
                "modeled_ms": float(result.timing.elapsed_ms),
            }
            if verify:
                fresh = maintained.verify()
                wall["recompute"] += float(fresh.wall_s["traversal"])
                entry["verified"] = True
                entry["recompute_modeled_ms"] = float(fresh.timing.elapsed_ms)
                entry["recompute_edges_examined"] = int(fresh.total_edges_examined)
            checksum = fold_checksum(checksum, i, values_checksum(result))
            batches.append(entry)
    finally:
        engine.close()

    stats = maintained.stats.as_dict()
    initial_ms = float(initial.timing.elapsed_ms)
    recompute_ms = sum((b.get("recompute_modeled_ms", 0.0) for b in batches), 0.0)
    # The maintained path's modeled cost includes its recompute fallbacks
    # (deletions), but not the initial run both paths share.
    incremental_ms = stats["repair_modeled_ms"] + stats["recompute_modeled_ms"] - initial_ms
    wall["traversal"] = wall["initial"] + wall["recompute" if baseline else "incremental"]
    return Replayed(
        wall=wall,
        counters={
            "updates_applied": len(stream),
            "insert_edges": sum(b["inserted"] for b in batches),
            "delete_edges": sum(b["deleted"] for b in batches),
            "compactions": dynamic.compactions,
            "final_version": dynamic.version,
            "overlay_edges": dynamic.overlay.num_edges,
            "repairs": stats["repairs"],
            "maintenance_recomputes": stats["recomputes"] - 1,  # minus the initial run
            "skipped": stats["skipped"],
            "repair_edges": stats["repair_edges"],
            "repair_iterations": stats["repair_iterations"],
            "repair_modeled_ms": stats["repair_modeled_ms"],
            "recompute_edges": sum(b.get("recompute_edges_examined", 0) for b in batches),
            "recompute_modeled_ms": recompute_ms,
            "initial_edges": int(initial.total_edges_examined),
            "initial_modeled_ms": initial_ms,
            "answers_checksum": checksum,
        },
        modeled_ms={"elapsed_ms": recompute_ms if baseline else incremental_ms},
        section={
            "mode": "recompute" if baseline else "incremental",
            "updates": len(stream),
            "modeled_incremental_ms": incremental_ms,
            "modeled_recompute_ms": recompute_ms,
            "modeled_speedup": recompute_ms / incremental_ms if incremental_ms > 0 else 0.0,
        },
        detail={"batches": batches, "stats": stats, "graph": dynamic},
    )


def _from_each(engine, sources: list, factory: Callable) -> tuple[dict, TimingBreakdown, list]:
    """One run of ``factory(source)`` per source: the summed per-phase walls,
    the summed modeled time and the per-source counters."""
    wall = {"kernels": 0.0, "exchange": 0.0, "delegate_reduce": 0.0, "traversal": 0.0}
    modeled = TimingBreakdown()
    per_source = []
    for source in sources:
        result = engine.run(factory(source))
        for phase, seconds in result.wall_s.items():
            wall[phase] = wall.get(phase, 0.0) + seconds
        modeled = modeled + result.timing
        per_source.append(_result_counters(result))
    return wall, modeled, per_source


def traverse(
    prepared: Prepared,
    sources: list,
    factory: Callable,
    reference: str | None = None,
    baseline: bool = False,
) -> Replayed:
    """A traversal: ``factory(source)`` from each source over the shared engine.

    A ``reference`` program (the program row's ``baseline``: Bellman-Ford for
    sssp) runs from the same sources; its answers must match bit for bit, and
    its wall (the ``reference`` phase) and counters go to the section only.
    """
    engine = prepared.engine()
    wall, modeled, per_source = _from_each(engine, sources, factory)
    counters = _merge_counters(per_source)
    section = None
    if reference is not None:
        ref_wall, _, ref_per_source = _from_each(
            engine, sources, functools.partial(make_program, reference)
        )
        for source, ours, theirs in zip(sources, per_source, ref_per_source):
            if ours["values_checksum"] != theirs["values_checksum"]:
                raise BenchDeterminismError(
                    f"{reference} disagrees on the answers from source {source}"
                )
        ref = _merge_counters(ref_per_source)
        wall["reference"] = ref_wall["traversal"]
        delta_ms, bf_ms = counters["modeled_elapsed_ms"], ref["modeled_elapsed_ms"]
        section = {
            "modeled_delta_ms": delta_ms,
            "modeled_bellman_ford_ms": bf_ms,
            "modeled_speedup": bf_ms / delta_ms if delta_ms > 0 else 0.0,
            "edges_delta": counters["total_edges_examined"],
            "edges_bellman_ford": ref["total_edges_examined"],
        }
    return Replayed(wall, counters, modeled.as_dict(), section)


# ---------------------------------------------------------------------- #
# The table: what each replay is fed, its section, probes, the rows
# ---------------------------------------------------------------------- #
def _serve_feed(spec, prepared: Prepared) -> tuple[dict, dict]:
    workload = spec.workload()
    stream = workload.generate(prepared.edges.num_vertices, degrees=out_degrees(prepared.edges))
    feed = {"stream": stream, "batch_size": spec.batch_size, "cache_size": spec.cache_size}
    return feed, {"workload": workload.describe()}


def _cluster_feed(spec, prepared: Prepared) -> tuple[dict, dict]:
    workload = spec.workload()
    edges = prepared.edges
    stream = workload.generate(edges.num_vertices, degrees=out_degrees(edges), edges=edges)
    feed = {
        "stream": stream,
        "cluster_config": spec.cluster_config(),
        "replicas": spec.num_replicas,
        "batch_size": spec.batch_size,
        "cache_size": spec.cache_size,
    }
    return feed, {"workload": workload.describe()}


def _dynamic_feed(spec, prepared: Prepared) -> tuple[dict, dict]:
    takes_source = PROGRAM_TABLE[spec.maintained].takes_source
    source = spec.pick_sources(prepared.edges)[0] if takes_source else None
    stream = spec.update_stream(prepared.edges)
    return {"stream": stream, "program": spec.maintained, "source": source}, {}


def _build_feed(spec, prepared: Prepared) -> tuple[dict, dict]:
    degrees = prepared.graph.separation.degrees
    sources = [int(s) for s in resolve_sources(spec.sources, degrees, rng=spec.seed + 1)]
    feed = {"sources": sources, "factory": functools.partial(make_program, "levels")}
    # The build *is* the workload: the record names its wall as the one to read.
    return feed, {"gate_phase": "graph_build", "sources": sources}


def _traversal_feed(spec, prepared: Prepared) -> tuple[dict, dict]:
    sources = spec.pick_sources(prepared.edges)
    reference = PROGRAM_TABLE[spec.program].baseline
    feed = {"sources": sources, "factory": spec.make_program, "reference": reference}
    return feed, {"sources": sources}


def _throughput(spec, prepared: Prepared, section: dict, wall: dict) -> dict:
    seconds = wall["traversal"]
    return {**section, "queries_per_sec": section["queries"] / seconds if seconds > 0 else 0.0}


def _dynamic_section(spec, prepared: Prepared, section: dict, wall: dict) -> dict:
    # Wall entries come from the same per-phase minima as the record's
    # wall_s, so the two views of one artifact can never contradict.
    incremental, recompute = wall["incremental"], wall["recompute"]
    maintain_s = wall["apply"] + (recompute if section["mode"] == "recompute" else incremental)
    return {
        **section,
        "updates_per_sec": section["updates"] / maintain_s if maintain_s > 0 else 0.0,
        "wall_incremental_s": incremental,
        "wall_recompute_s": recompute,
        "wall_apply_s": wall["apply"],
        "wall_speedup": recompute / incremental if incremental > 0 else 0.0,
    }


def _build_section(spec, prepared: Prepared, section, wall: dict) -> dict:
    keys = ("num_chunks", "num_runs", "num_directed_edges", "num_delegates", "block_edges")
    return {key: int(prepared.report[key]) for key in keys}


def _sssp_section(spec, prepared: Prepared, section, wall: dict) -> dict | None:
    if section is None:
        return None
    # The reference phase is the section's, not the record's.
    ours, theirs = wall["traversal"], wall.pop("reference")
    return {
        "delta": spec.describe()["delta"],
        "wall_delta_s": ours,
        "wall_bellman_ford_s": theirs,
        "wall_speedup": theirs / ours if ours > 0 else 0.0,
        **section,
    }


def _check_serving(batch_size: int, cache_size: int, replicas: int) -> None:
    """What the replay's ``QueryService`` / ``ReplicaPool`` would reject,
    raised before a graph exists (scenarios and ``repro serve bench``)."""
    from repro.serve.cache import LRUCache

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    LRUCache(cache_size)
    if replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {replicas}")


def _probe_service(spec) -> None:
    spec.workload()
    _check_serving(spec.batch_size, spec.cache_size, 1)


def _probe_cluster(spec) -> None:
    spec.workload()
    spec.cluster_config()
    _check_serving(spec.batch_size, spec.cache_size, spec.num_replicas)


def _probe_dynamic(spec) -> None:
    from repro.dynamic.delta import check_update_stream

    row = PROGRAM_TABLE.get(spec.maintained)
    if row is None or row.maintained is None:
        raise ValueError(
            f"unknown maintained program {spec.maintained!r}; "
            f"dynamic scenarios maintain one of {names_where('maintained')}"
        )
    if spec.update_batches < 1:
        raise ValueError(f"update_batches must be >= 1, got {spec.update_batches}")
    check_update_stream(
        spec.update_batches, spec.update_edges, spec.update_style, spec.delete_fraction
    )


def _probe_build(spec) -> None:
    spec.edge_chunks()  # the chunked generators exist for some kinds only
    if spec.chunk_edges < 1 or spec.block_edges < 1:
        raise ValueError("chunk_edges and block_edges must be >= 1")


@dataclass(frozen=True)
class StreamKind:
    """One stream kind; see the module docstring for the columns."""

    name: str
    fields: tuple[str, ...]
    probe: Callable
    section: str
    replay: Callable
    feed: Callable
    baseline: str | None = None
    update_fields: tuple[str, ...] = ()
    mutates: Callable = lambda spec: False
    prepare: Callable = _prepare_graph
    finish: Callable = lambda spec, prepared, section, wall: section


_SERVE_FIELDS = ("batch_size", "zipf_skew", "num_queries", "pool", "cache_size")
_ROWS = (
    # Serving: a deterministic Zipf-skewed query stream replayed closed-loop
    # through a QueryService over the scenario's graph, swept across batch
    # sizes and skews.  Headline metric: queries/second (``throughput``).
    # The graph never mutates, so the storage axis applies to the served
    # adjacency exactly as it does to traversals.
    StreamKind(
        "serve", _SERVE_FIELDS, _probe_service, "throughput", serve_closed, _serve_feed,
        baseline="sequential", finish=_throughput,
    ),
    # Cluster serving (``serve-cluster-*``): a timed open-loop stream —
    # Poisson, bursty or diurnal arrivals over the same Zipf queries —
    # through N replicas on a deterministic virtual clock.  Headline metric:
    # tail latency (p50/p95/p99 and SLO violations in ``cluster``); the gated
    # arrival, admission, shed, cache and answer counters are driven by
    # modeled service times only, so they hold on every backend too.
    StreamKind(
        "serve_cluster",
        _SERVE_FIELDS + (
            "arrivals", "arrival_rate_qps", "num_replicas", "queue_limit", "hedge_quantile",
            "hedge_min_samples", "slo_ms", "router", "burst_period_ms", "burst_duty",
            "cluster_updates",
        ),
        _probe_cluster, "cluster", serve_open, _cluster_feed,
        baseline="unhedged",
        update_fields=("update_style", "update_edges"),
        mutates=lambda spec: spec.cluster_updates > 0,
    ),
    # Dynamic (``dyn-*``): a pinned update stream against a mutable graph
    # while a maintained answer (BFS levels, components or SSSP) is repaired
    # incrementally and verified bit-identical against a full recompute
    # after every batch.  Headline metric: modeled and wall time of repair
    # vs recompute (``dynamic``).
    StreamKind(
        "dynamic",
        ("maintained", "update_style", "update_batches", "update_edges", "delete_fraction"),
        _probe_dynamic, "dynamic", maintain, _dynamic_feed,
        baseline="recompute", mutates=lambda spec: True, finish=_dynamic_section,
    ),
    # Build: a chunked generator streams bounded edge chunks through the
    # external sort/merge into an on-disk store; the build wall is the measured
    # phase (``gate_phase``) and a levels traversal over the loaded store
    # verifies it.  ``chunk_edges`` is identity (a different chunking draws a
    # different graph); ``block_edges`` is not (the store is
    # block-size-invariant) and storage is a run-time axis.
    StreamKind(
        "build", ("chunk_edges",), _probe_build, "build", traverse, _build_feed,
        prepare=_prepare_store, finish=_build_section,
    ),
)

#: Every stream kind, by the name a scenario's ``program`` field uses.
STREAM_TABLE: MappingProxyType = MappingProxyType({row.name: row for row in _ROWS})

#: A traversal scenario — one program-table row from each source — as a row:
#: the same set-up, repeat loop and record as the stream kinds, no baseline
#: mode, and the program row's reference program recorded in ``sssp``.
TRAVERSAL = StreamKind(
    "traversal", (), lambda spec: None, "sssp", traverse, _traversal_feed, finish=_sssp_section
)
