"""The timed benchmark runner.

:func:`run_scenario` materialises one :class:`repro.bench.scenarios.Scenario`
— generate the graph, partition it, run the frontier program from each source
— and measures three independent things:

* **wall-clock seconds** of each pipeline phase (graph build, partitioning,
  traversal) plus the traversal-internal phases the engine accounts
  (kernels, nn exchange, delegate reductions).  Traversal phases take the
  *minimum* over ``repeats`` identical passes, the usual noise filter for
  micro-benchmarks;
* the **modeled milliseconds** of the simulated cluster (the paper's metric),
  summed over the scenario's sources; and
* the **workload counters** — iterations, edges examined per kernel class,
  communication volumes and a checksum of the answers — which are fully
  deterministic.

Determinism is asserted, not assumed: with ``check_determinism=True`` (the
default whenever ``repeats >= 2``) the counters of every repeat are compared
and any difference raises :class:`BenchDeterminismError`, because a
non-reproducible workload would make every other number in the artifact
meaningless.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.bench.artifact import new_artifact, save_artifact
from repro.bench.scenarios import Scenario
from repro.core.engine import TraversalEngine
from repro.core.programs.table import PROGRAM_TABLE, make_program
from repro.exec.config import ExecConfig
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.utils.rng import hash64
from repro.utils.rss import max_rss_mb
from repro.utils.timing import Timer, TimingBreakdown, now_s

__all__ = [
    "BenchDeterminismError",
    "values_checksum",
    "time_program",
    "run_scenario",
    "run_suite",
]


def _axes(config: ExecConfig) -> dict:
    """The record's ``backend`` / ``kernels`` / ``storage`` keys: what ran."""
    return {
        "backend": config.backend_name,
        "kernels": config.kernels_name,
        "storage": config.storage,
    }


def _engine(graph, spec: Scenario, config: ExecConfig) -> TraversalEngine:
    return TraversalEngine(
        graph, options=spec.options, backend=config.backend, kernels=config.kernels
    )


@dataclass
class _Prepared:
    """A scenario's graph: generated, partitioned and attached to its storage."""

    edges: object
    layout: ClusterLayout
    threshold: int
    graph: object
    #: Wall seconds of ``graph_build``, ``partition`` and, store-backed only,
    #: ``storage`` — in pipeline order, so ``sum`` of the completed dict is
    #: the record's ``total``.
    wall: dict
    #: Peak RSS (MiB) sampled after each of those phases.
    rss: dict
    _store_dir: tempfile.TemporaryDirectory | None = None

    def cleanup(self) -> None:
        """Drop the temporary store.  Unlinking open-mmapped segments is safe
        on POSIX; cached handles keep their (now anonymous) pages until
        process exit."""
        if self._store_dir is not None:
            self._store_dir.cleanup()


def _prepare_graph(spec: Scenario, config: ExecConfig) -> _Prepared:
    """The shared preamble of the traversal and serving runners: build edges
    -> threshold -> partition -> attach ``config.storage`` into a temporary
    store."""
    with Timer() as build_timer:
        edges = spec.build_edges()
    rss = {"graph_build": max_rss_mb()}
    layout = ClusterLayout.from_notation(spec.layout)
    threshold = (
        spec.threshold
        if spec.threshold is not None
        else suggest_threshold(edges, layout.num_gpus)
    )
    with Timer() as partition_timer:
        graph = build_partitions(edges, layout, threshold)
    rss["partition"] = max_rss_mb()
    wall = {"graph_build": build_timer.elapsed, "partition": partition_timer.elapsed}

    store_dir = None
    if config.storage != "memory":
        from repro.storage import apply_storage

        store_dir = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        with Timer() as storage_timer:
            graph = apply_storage(graph, config.storage, path=store_dir.name)
        wall["storage"] = storage_timer.elapsed
        rss["storage"] = max_rss_mb()
    return _Prepared(edges, layout, threshold, graph, wall, rss, store_dir)


class BenchDeterminismError(AssertionError):
    """Two passes over the same scenario produced different workload counters."""


def values_checksum(result) -> int:
    """Order-independent 64-bit checksum of a traversal result's answer.

    Covers the per-vertex array(s) the result class names as its answer
    (``answer_fields``) so the comparator can prove two artifacts describe
    the *same* traversal answers, not merely similar timings.
    """
    checksum = np.uint64(0)
    for attr in result.answer_fields:
        values = getattr(result, attr)
        values = np.asarray(values, dtype=np.int64)
        # Hash (index, value) pairs so permutations do not collide.
        mixed = hash64(
            values.view(np.uint64) ^ hash64(np.arange(values.size, dtype=np.uint64))
        )
        checksum ^= np.bitwise_xor.reduce(mixed) if mixed.size else np.uint64(0)
    return int(checksum)


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
        for kernel, edges in counters["edges_by_kernel"].items():
            merged["edges_by_kernel"][kernel] = (
                merged["edges_by_kernel"].get(kernel, 0) + edges
            )
        for key, value in counters["comm"].items():
            merged["comm"][key] = merged["comm"].get(key, 0) + value
        # Mix the run index into each checksum before folding: a bare XOR
        # would cancel identical per-source checksums (sources are drawn with
        # replacement, so collisions happen), silently blinding the
        # counter-drift gate to answer changes.
        merged["values_checksum"] ^= int(
            hash64(np.uint64(counters["values_checksum"]), seed=i + 1)
        )
    return merged


def time_program(
    engine: TraversalEngine,
    program_factory: Callable[[], object],
    repeats: int = 3,
    check_determinism: bool = True,
) -> dict:
    """Run one program ``repeats`` times; return wall phases + counters.

    The returned record holds the per-phase wall minima (seconds), the modeled
    time of one pass, and the deterministic counters — raising
    :class:`BenchDeterminismError` if any repeat disagrees on the counters
    (unless ``check_determinism`` is off).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    walls: list[dict] = []
    counters: dict | None = None
    timing: TimingBreakdown | None = None
    for _ in range(repeats):
        result = engine.run(program_factory())
        walls.append(dict(result.wall_s))
        current = _result_counters(result)
        if counters is None:
            counters, timing = current, result.timing
        elif check_determinism and current != counters:
            raise BenchDeterminismError(
                "workload counters differ between two identical passes: "
                f"{counters} vs {current}"
            )
    phases = sorted({phase for wall in walls for phase in wall})
    return {
        "wall_s": {phase: min(w.get(phase, 0.0) for w in walls) for phase in phases},
        "modeled_ms": timing.as_dict(),
        "counters": counters,
    }


def _time_sources(
    engine: TraversalEngine,
    sources: list[int],
    program_factory: Callable[[int], object],
    repeats: int,
    check_determinism: bool,
) -> tuple[dict, TimingBreakdown, list[dict]]:
    """:func:`time_program` once per source: the summed per-phase walls, the
    summed modeled time and the per-source counters."""
    wall = {"kernels": 0.0, "exchange": 0.0, "delegate_reduce": 0.0, "traversal": 0.0}
    modeled = TimingBreakdown()
    per_source_counters: list[dict] = []
    for source in sources:
        timed = time_program(
            engine,
            lambda: program_factory(source),
            repeats=repeats,
            check_determinism=check_determinism,
        )
        for phase, seconds in timed["wall_s"].items():
            wall[phase] = wall.get(phase, 0.0) + seconds
        modeled = modeled + TimingBreakdown(**timed["modeled_ms"])
        per_source_counters.append(timed["counters"])
    return wall, modeled, per_source_counters


def _run_serve(
    spec: Scenario,
    config: ExecConfig,
    repeats: int,
    check_determinism: bool,
    serve_batched: bool,
) -> dict:
    """Execute one serving scenario: replay its query stream, measure qps.

    Each repeat runs the full closed-loop stream through a *fresh*
    :class:`repro.serve.QueryService` (so cache state never leaks between
    passes); wall time keeps the fastest pass.  The counters — query,
    coalescing and cache statistics plus an order-mixed checksum of every
    answer — are deterministic and, by construction, identical whether the
    service batches or runs sequentially (``serve_batched=False``) and
    whichever execution backend runs the sweeps, which is what makes
    before/after artifact pairs cleanly comparable.  Registry serving
    scenarios never mutate their graph, so the storage axis applies to the
    served adjacency exactly as it does to plain traversals.
    """
    from repro.serve.service import QueryService

    prepared = _prepare_graph(spec, config)
    edges, rss = prepared.edges, prepared.rss
    engine = _engine(prepared.graph, spec, config)

    from repro.graph.degree import out_degrees

    workload = spec.workload()
    stream = workload.generate(edges.num_vertices, degrees=out_degrees(edges))

    walls: list[float] = []
    counters: dict | None = None
    modeled_ms = 0.0
    throughput: dict | None = None
    try:
        for _ in range(repeats):
            service = QueryService(
                engine,
                batch_size=spec.batch_size,
                cache_size=spec.cache_size,
                batched=serve_batched,
            )
            results = service.serve(stream)
            checksum = 0
            modeled = 0.0
            seen: set[int] = set()
            for i, result in enumerate(results):
                checksum ^= int(hash64(np.uint64(values_checksum(result)), seed=i + 1))
                if id(result) not in seen:
                    seen.add(id(result))
                    modeled += float(result.timing.elapsed_ms)
            current = {
                "queries": service.stats.queries,
                "flushes": service.stats.flushes,
                "coalesced": service.stats.coalesced,
                "cache_hits": service.cache.stats.hits,
                "cache_misses": service.cache.stats.misses,
                "cache_evictions": service.cache.stats.evictions,
                "answers_checksum": checksum,
            }
            if counters is None:
                counters = current
                modeled_ms = modeled
                throughput = {
                    "queries": service.stats.queries,
                    "batched": bool(serve_batched),
                    "batch_size": spec.batch_size,
                    "traversals": service.stats.traversals,
                    "batches": service.stats.batches,
                }
            elif check_determinism and current != counters:
                raise BenchDeterminismError(
                    "serving counters differ between two identical passes: "
                    f"{counters} vs {current}"
                )
            walls.append(service.stats.wall_s)
    finally:
        engine.close()
        prepared.cleanup()
    rss["traversal"] = max_rss_mb()

    serve_wall = min(walls)
    throughput["queries_per_sec"] = (
        throughput["queries"] / serve_wall if serve_wall > 0 else 0.0
    )
    wall = {**prepared.wall, "traversal": serve_wall}
    wall["total"] = sum(wall.values())
    return {
        "spec": spec.describe(),
        "repeats": repeats,
        **_axes(config),
        "threshold_used": int(prepared.threshold),
        "workload": workload.describe(),
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": {"elapsed_ms": modeled_ms},
        "counters": counters,
        "throughput": throughput,
        "max_rss_mb": {k: float(v) for k, v in sorted(rss.items())},
    }


def _run_serve_cluster(
    spec: Scenario,
    config: ExecConfig,
    repeats: int,
    check_determinism: bool,
    cluster_hedging: bool,
) -> dict:
    """Execute one cluster scenario: replay its open-loop stream, measure tails.

    Each repeat replays the full timed stream through a *fresh* replica pool
    and dispatcher on the virtual clock (caches and histograms never leak
    between passes); the real wall time keeps the fastest pass.  The entire
    snapshot — gated counters *and* the per-mode ``cluster`` section — must
    be identical across repeats (virtual time is deterministic); only the
    ``counters`` half is additionally identical across hedging modes and
    execution backends, which is what the artifact comparator gates.

    ``cluster_hedging=False`` (the ``--cluster-no-hedge`` flag) records the
    unhedged half of a before/after pair; scenarios with one replica never
    hedge regardless.  A scenario that replays updates mutates its graph
    and stores are immutable, so it runs (and records) memory storage.
    """
    from repro.graph.degree import out_degrees
    from repro.serve.cluster.dispatcher import ClusterDispatcher
    from repro.serve.cluster.replica import ReplicaPool

    workload = spec.workload()
    mutating = spec.cluster_updates > 0
    if mutating:
        config = replace(config, storage="memory")
    prepared = _prepare_graph(spec, config)
    edges, graph, rss = prepared.edges, prepared.graph, prepared.rss
    stream = workload.generate(
        edges.num_vertices,
        degrees=out_degrees(edges),
        edges=edges if mutating else None,
    )
    cluster_config = spec.cluster_config(hedge=cluster_hedging)

    walls: list[float] = []
    snapshot: dict | None = None
    for _ in range(repeats):
        if mutating:
            # Updates mutate the graph: every repeat serves its own mutable
            # view adopting the already-built (read-only) partitioning.
            from repro.dynamic import DynamicGraph

            served = DynamicGraph(
                edges, prepared.layout, prepared.threshold, partitioned=graph
            )
        else:
            served = graph
        pool = ReplicaPool(
            served,
            spec.num_replicas,
            options=spec.options,
            backend=config.backend,
            kernels=config.kernels,
            batch_size=spec.batch_size,
            cache_size=spec.cache_size,
        )
        try:
            dispatcher = ClusterDispatcher(pool, cluster_config)
            with Timer() as replay_timer:
                current = dispatcher.run(stream)
        finally:
            pool.close()
        if snapshot is None:
            snapshot = current
        elif check_determinism and current != snapshot:
            raise BenchDeterminismError(
                "cluster snapshot differs between two identical passes: "
                f"{snapshot} vs {current}"
            )
        walls.append(replay_timer.elapsed)
    prepared.cleanup()
    rss["traversal"] = max_rss_mb()

    wall = {**prepared.wall, "traversal": min(walls)}
    wall["total"] = sum(wall.values())
    return {
        "spec": spec.describe(),
        "repeats": repeats,
        **_axes(config),
        "threshold_used": int(prepared.threshold),
        "workload": workload.describe(),
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": {"elapsed_ms": snapshot["cluster"]["virtual_makespan_ms"]},
        "counters": snapshot["counters"],
        "cluster": snapshot["cluster"],
        "max_rss_mb": {k: float(v) for k, v in sorted(rss.items())},
    }


def _run_dynamic(
    spec: Scenario,
    config: ExecConfig,
    repeats: int,
    check_determinism: bool,
    dyn_incremental: bool,
) -> dict:
    """Execute one dynamic scenario: replay its update stream, measure repair.

    Each repeat builds a *fresh* :class:`repro.dynamic.DynamicGraph` (updates
    mutate it), runs the initial full traversal, then applies every pinned
    update batch twice over: the **incremental repair** through the
    maintained answer and the **full recompute** that doubles as the
    bit-identical verification.  Because both paths always run, the recorded
    counters — update totals, both paths' examined edges and modeled times,
    answer checksums — are independent of ``dyn_incremental``; the flag only
    decides which path's wall time lands in the gated ``traversal`` phase,
    so a ``--dyn-recompute`` artifact and a default artifact of the same
    scenario differ purely in maintenance strategy.  The graph mutates and
    stores are immutable, so the scenario runs (and records) memory storage.
    """
    from repro.dynamic.graph import DynamicEngine, DynamicGraph

    config = replace(config, storage="memory")

    with Timer() as build_timer:
        edges = spec.build_edges()
    layout = ClusterLayout.from_notation(spec.layout)
    threshold = (
        spec.threshold
        if spec.threshold is not None
        else suggest_threshold(edges, layout.num_gpus)
    )
    stream = spec.update_stream(edges)
    row = PROGRAM_TABLE[spec.maintained]
    source = spec.pick_sources(edges)[0] if row.takes_source else None

    walls: list[dict] = []
    counters: dict | None = None
    modeled_measured = 0.0
    partition_s = float("inf")
    for _ in range(repeats):
        with Timer() as partition_timer:
            dyn = DynamicGraph(edges, layout, threshold)
        partition_s = min(partition_s, partition_timer.elapsed)
        engine = DynamicEngine(
            dyn, options=spec.options, backend=config.backend, kernels=config.kernels
        )
        try:
            maintained = row.maintain(engine, source)
            initial = maintained.result
            initial_wall = float(initial.wall_s["traversal"])

            inserts = deletes = 0
            repair_wall = 0.0
            recompute_wall = 0.0
            recompute_edges = 0
            recompute_modeled = 0.0
            apply_wall = 0.0
            checksum = 0
            for i, delta in enumerate(stream):
                apply_started = now_s()
                applied = engine.apply_delta(delta)
                apply_wall += now_s() - apply_started
                inserts += applied.num_inserts
                deletes += applied.num_deletes
                update_started = now_s()
                repaired = maintained.update(applied)
                repair_wall += now_s() - update_started
                fresh = maintained.verify()  # raises on any divergence
                recompute_wall += float(fresh.wall_s["traversal"])
                recompute_edges += int(fresh.total_edges_examined)
                recompute_modeled += float(fresh.timing.elapsed_ms)
                checksum ^= int(
                    hash64(np.uint64(values_checksum(repaired)), seed=i + 1)
                )
            stats = maintained.stats.as_dict()
            current = {
                "updates_applied": len(stream),
                "insert_edges": inserts,
                "delete_edges": deletes,
                "compactions": dyn.compactions,
                "final_version": dyn.version,
                "overlay_edges": dyn.overlay.num_edges,
                "repairs": stats["repairs"],
                "maintenance_recomputes": stats["recomputes"] - 1,  # minus initial
                "skipped": stats["skipped"],
                "repair_edges": stats["repair_edges"],
                "repair_iterations": stats["repair_iterations"],
                "repair_modeled_ms": stats["repair_modeled_ms"],
                "recompute_edges": recompute_edges,
                "recompute_modeled_ms": recompute_modeled,
                "initial_edges": int(initial.total_edges_examined),
                "initial_modeled_ms": float(initial.timing.elapsed_ms),
                "answers_checksum": checksum,
            }
            if counters is None:
                counters = current
            elif check_determinism and current != counters:
                raise BenchDeterminismError(
                    "dynamic counters differ between two identical passes: "
                    f"{counters} vs {current}"
                )
            # The maintained path's modeled cost includes recompute fallbacks
            # (deletions); the measured mode decides the gated wall phase.
            modeled_incremental = (
                stats["repair_modeled_ms"]
                + stats["recompute_modeled_ms"]
                - float(initial.timing.elapsed_ms)
            )
            measured_wall = repair_wall if dyn_incremental else recompute_wall
            modeled_measured = modeled_incremental if dyn_incremental else recompute_modeled
            modeled_recompute = recompute_modeled
            walls.append(
                {
                    "initial": initial_wall,
                    "apply": apply_wall,
                    "traversal": initial_wall + measured_wall,
                    "incremental": repair_wall,
                    "recompute": recompute_wall,
                }
            )
        finally:
            engine.close()

    wall = {phase: min(w[phase] for w in walls) for phase in walls[0]}
    # The dynamic section derives its wall numbers from the same per-phase
    # minima as wall_s, so the two views of one artifact can never
    # contradict each other; the modeled values are deterministic (the
    # repeats guard above proves it), so the last repeat's suffice.
    maintain_total = wall["apply"] + (
        wall["incremental"] if dyn_incremental else wall["recompute"]
    )
    dynamic_section = {
        "mode": "incremental" if dyn_incremental else "recompute",
        "updates": len(stream),
        "updates_per_sec": len(stream) / maintain_total if maintain_total > 0 else 0.0,
        "wall_incremental_s": wall["incremental"],
        "wall_recompute_s": wall["recompute"],
        "wall_apply_s": wall["apply"],
        "wall_speedup": (
            wall["recompute"] / wall["incremental"] if wall["incremental"] > 0 else 0.0
        ),
        "modeled_incremental_ms": modeled_incremental,
        "modeled_recompute_ms": modeled_recompute,
        "modeled_speedup": (
            modeled_recompute / modeled_incremental if modeled_incremental > 0 else 0.0
        ),
    }
    wall["graph_build"] = build_timer.elapsed
    wall["partition"] = partition_s
    wall["total"] = build_timer.elapsed + partition_s + wall["traversal"] + wall["apply"]
    return {
        "spec": spec.describe(),
        "repeats": repeats,
        **_axes(config),
        "threshold_used": int(threshold),
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": {"elapsed_ms": modeled_measured},
        "counters": counters,
        "dynamic": dynamic_section,
        "max_rss_mb": {"traversal": max_rss_mb()},
    }


def run_scenario(
    spec: Scenario,
    repeats: int = 2,
    check_determinism: bool | None = None,
    serve_batched: bool = True,
    cluster_hedging: bool = True,
    dyn_incremental: bool = True,
    backend: str | None = None,
    kernels: str | None = None,
    storage: str | None = None,
) -> dict:
    """Execute one scenario end to end; return its artifact record.

    Parameters
    ----------
    spec:
        The scenario to run.
    repeats:
        Traversal passes per source; wall times keep the per-phase minimum.
    check_determinism:
        Assert counter equality across passes.  Defaults to ``repeats >= 2``
        (a single pass has nothing to compare).
    serve_batched:
        For serving scenarios only: route misses through the batched MS-BFS
        path (the default) or the sequential baseline.
    cluster_hedging:
        For cluster scenarios only: hedge stragglers to a second replica
        (the default) or serve without hedging — the before/after axis of
        the tail-latency pair.  Gated counters are identical either way.
    dyn_incremental:
        For dynamic scenarios only: attribute the gated traversal wall to
        incremental repair (the default) or to the full-recompute baseline.
        Counters are identical either way (both paths always run).
    backend, kernels, storage:
        The run-time axes, resolved once into a
        :class:`repro.exec.ExecConfig`: an explicit value here, else the
        scenario's pin (``spec.backend`` / ``spec.storage``), else
        ``$REPRO_BACKEND`` / ``$REPRO_KERNELS`` / ``$REPRO_STORAGE``, else
        inline / auto / memory.  What ran lands in the record's
        ``backend`` / ``kernels`` / ``storage`` keys — never in the spec,
        which identifies the workload.  Mutating scenarios (dynamic,
        serve/cluster with updates) run on memory storage and record that.
    """
    config = ExecConfig.resolve(backend=backend, kernels=kernels, storage=storage)
    return _run(
        spec, config, repeats, check_determinism, serve_batched, cluster_hedging, dyn_incremental
    )


def _run(
    spec: Scenario,
    config: ExecConfig,
    repeats: int = 2,
    check_determinism: bool | None = None,
    serve_batched: bool = True,
    cluster_hedging: bool = True,
    dyn_incremental: bool = True,
) -> dict:
    """:func:`run_scenario` below its entry: apply the scenario's pins to
    ``config`` and dispatch on the scenario's kind."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if check_determinism is None:
        check_determinism = repeats >= 2
    if check_determinism and repeats < 2:
        raise ValueError("determinism checking needs at least two repeats")
    config = config.pinned(**spec.pins)
    if spec.program == "serve":
        return _run_serve(spec, config, repeats, check_determinism, serve_batched)
    if spec.program == "serve_cluster":
        return _run_serve_cluster(spec, config, repeats, check_determinism, cluster_hedging)
    if spec.program == "dynamic":
        return _run_dynamic(spec, config, repeats, check_determinism, dyn_incremental)
    if spec.program == "build":
        return _run_build(spec, config, repeats, check_determinism)
    return _run_traversal(spec, config, repeats, check_determinism)


def _run_traversal(
    spec: Scenario, config: ExecConfig, repeats: int, check_determinism: bool
) -> dict:
    """Execute one traversal scenario: run its program from every source."""
    prepared = _prepare_graph(spec, config)
    rss = prepared.rss
    engine = _engine(prepared.graph, spec, config)

    sources = spec.pick_sources(prepared.edges)
    sssp_section: dict | None = None
    try:
        wall, modeled, per_source_counters = _time_sources(
            engine, sources, spec.make_program, repeats, check_determinism
        )
        counters = _merge_counters(per_source_counters)
        baseline = PROGRAM_TABLE[spec.program].baseline
        if baseline is not None:
            # Run the row's baseline (Bellman-Ford for sssp) from the same
            # sources: its wall and counters land in the record's "sssp"
            # section (never in the gated phases, which belong to the
            # delta-stepping path), and its answers must match
            # delta-stepping's bit for bit — asserted here, so every sssp
            # artifact proves schedule equivalence.
            bf_wall, _, bf_counters = _time_sources(
                engine,
                sources,
                lambda source: make_program(baseline, source),
                repeats,
                check_determinism,
            )
            for source, ours, theirs in zip(sources, per_source_counters, bf_counters):
                if ours["values_checksum"] != theirs["values_checksum"]:
                    raise BenchDeterminismError(
                        "delta-stepping and Bellman-Ford disagree on the "
                        f"distances from source {source} in {spec.name!r}"
                    )
            bf = _merge_counters(bf_counters)
            delta_wall, delta_modeled = wall["traversal"], counters["modeled_elapsed_ms"]
            sssp_section = {
                "delta": spec.describe()["delta"],
                "wall_delta_s": delta_wall,
                "wall_bellman_ford_s": bf_wall["traversal"],
                "wall_speedup": bf_wall["traversal"] / delta_wall if delta_wall > 0 else 0.0,
                "modeled_delta_ms": delta_modeled,
                "modeled_bellman_ford_ms": bf["modeled_elapsed_ms"],
                "modeled_speedup": (
                    bf["modeled_elapsed_ms"] / delta_modeled if delta_modeled > 0 else 0.0
                ),
                "edges_delta": counters["total_edges_examined"],
                "edges_bellman_ford": bf["total_edges_examined"],
            }
    finally:
        engine.close()
        prepared.cleanup()
    rss["traversal"] = max_rss_mb()

    wall.update(prepared.wall)
    wall["total"] = sum(prepared.wall.values()) + wall["traversal"]
    record = {
        "spec": spec.describe(),
        "repeats": repeats,
        **_axes(config),
        "sources": sources,
        "threshold_used": int(prepared.threshold),
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": modeled.as_dict(),
        "counters": counters,
        "max_rss_mb": {k: float(v) for k, v in sorted(rss.items())},
    }
    if sssp_section is not None:
        record["sssp"] = {
            k: (float(v) if isinstance(v, float) else v) for k, v in sssp_section.items()
        }
    return record


def _run_build(
    spec: Scenario, config: ExecConfig, repeats: int, check_determinism: bool
) -> dict:
    """Execute one out-of-core build scenario; gate on the build wall.

    The gated phase is ``graph_build`` — the streamed external-memory
    pipeline (ingest/merge/threshold/distribute/assemble), whose per-pass
    walls land as ``build_*`` sub-phases — declared to the comparator via
    the record's ``gate_phase`` key, because the build *is* this scenario's
    workload.  The build runs once: it is deterministic and IO-dominated,
    where repeat minima would reward page-cache warmth, not the pipeline.
    ``partition`` is the store attach (mmap open), and a short BFS from the
    scenario's sources then proves the store actually serves answers — its
    counters feed the cross-storage equivalence gate.  ``memory`` is not a
    store flavour, so a memory resolution coerces to ``mmap``.
    """
    from repro.graph.degree import resolve_sources
    from repro.storage import load_graph_store
    from repro.storage.extsort import external_build

    if config.storage == "memory":
        config = replace(config, storage="mmap")
    layout = ClusterLayout.from_notation(spec.layout)

    store_dir = tempfile.TemporaryDirectory(prefix="repro-bench-build-")
    rss: dict[str, float] = {}
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
        rss["graph_build"] = max_rss_mb()
        with Timer() as partition_timer:
            graph = load_graph_store(store_path)
        rss["partition"] = max_rss_mb()

        engine = _engine(graph, spec, config)
        sources = [
            int(s)
            for s in resolve_sources(
                spec.sources, graph.separation.degrees, rng=spec.seed + 1
            )
        ]
        try:
            wall, modeled, per_source_counters = _time_sources(
                engine,
                sources,
                lambda source: make_program("levels", source),
                repeats,
                check_determinism,
            )
        finally:
            engine.close()
        rss["traversal"] = max_rss_mb()
    finally:
        store_dir.cleanup()

    for pass_name, seconds in report["walls"].items():
        wall[f"build_{pass_name}"] = float(seconds)
    wall["graph_build"] = build_timer.elapsed
    wall["partition"] = partition_timer.elapsed
    wall["total"] = build_timer.elapsed + partition_timer.elapsed + wall["traversal"]
    return {
        "spec": spec.describe(),
        "repeats": repeats,
        **_axes(config),
        "gate_phase": "graph_build",
        "sources": sources,
        "threshold_used": int(report["threshold"]),
        "build": {
            "num_chunks": int(report["num_chunks"]),
            "num_runs": int(report["num_runs"]),
            "num_directed_edges": int(report["num_directed_edges"]),
            "num_delegates": int(report["num_delegates"]),
            "block_edges": int(report["block_edges"]),
        },
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": modeled.as_dict(),
        "counters": _merge_counters(per_source_counters),
        "max_rss_mb": {k: float(v) for k, v in sorted(rss.items())},
    }


def run_suite(
    specs: Iterable[Scenario] | Sequence[Scenario],
    label: str = "",
    quick: bool = False,
    repeats: int = 2,
    out_path=None,
    on_record: Callable[[str, dict], None] | None = None,
    serve_batched: bool = True,
    cluster_hedging: bool = True,
    dyn_incremental: bool = True,
    backend: str | None = None,
    kernels: str | None = None,
    storage: str | None = None,
) -> dict:
    """Run a set of scenarios and assemble (optionally write) one artifact.

    Parameters
    ----------
    specs:
        Scenarios to execute, in order.
    label:
        Free-form snapshot description stored in the artifact.
    quick:
        Recorded in the artifact (CI smoke vs full sweep).
    repeats:
        Traversal passes per source per scenario.
    out_path:
        When given, the artifact is validated and written there as JSON.
    on_record:
        Progress callback invoked with ``(name, record)`` after each scenario.
    serve_batched:
        Serving scenarios only: batched service (default) or the sequential
        baseline (the "before" half of a before/after artifact pair).
    cluster_hedging:
        Cluster scenarios only: hedged serving (default) or the unhedged
        baseline (the "before" half of a tail-latency pair).
    dyn_incremental:
        Dynamic scenarios only: time incremental repair (default) or the
        full-recompute baseline (the "before" half of a pair).
    backend, kernels, storage:
        The run-time axes applied to every scenario, resolved once, here,
        as :func:`run_scenario` resolves them (an explicit value beats each
        scenario's pin, a pin beats the environment); what ran is recorded
        per record, never in the spec.
    """
    return _run_suite(
        specs,
        ExecConfig.resolve(backend=backend, kernels=kernels, storage=storage),
        label=label,
        quick=quick,
        repeats=repeats,
        out_path=out_path,
        on_record=on_record,
        serve_batched=serve_batched,
        cluster_hedging=cluster_hedging,
        dyn_incremental=dyn_incremental,
    )


def _run_suite(
    specs: Iterable[Scenario] | Sequence[Scenario],
    config: ExecConfig,
    label: str = "",
    quick: bool = False,
    repeats: int = 2,
    out_path=None,
    on_record: Callable[[str, dict], None] | None = None,
    serve_batched: bool = True,
    cluster_hedging: bool = True,
    dyn_incremental: bool = True,
) -> dict:
    """:func:`run_suite` below its entry, on one resolved ``config``."""
    from repro.obs.summary import summarize_events
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    records: dict[str, dict] = {}
    for spec in specs:
        mark = len(tracer.events) if tracer.enabled else 0
        record = _run(
            spec,
            config,
            repeats=repeats,
            serve_batched=serve_batched,
            cluster_hedging=cluster_hedging,
            dyn_incremental=dyn_incremental,
        )
        if tracer.enabled:
            # The trace section is diagnostic, never gated: bench compare
            # ignores it, so traced and untraced artifacts stay comparable.
            record["trace"] = summarize_events(tracer.events[mark:])
        records[spec.name] = record
        if on_record is not None:
            on_record(spec.name, record)
    artifact = new_artifact(records, label=label, quick=quick)
    if out_path is not None:
        save_artifact(artifact, out_path)
    return artifact
