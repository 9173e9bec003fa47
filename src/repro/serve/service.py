"""The batched query service: admission queue + MS-BFS batches + result cache.

:class:`QueryService` turns the one-traversal-at-a-time engine into a
query-serving system:

1. **Admission queue** — incoming single-source queries are buffered and, at
   each :meth:`QueryService.flush`, coalesced: duplicates of the same pending
   query merge into one, cached answers are served from memory, and only the
   remaining unique misses reach the engine.
2. **Batched execution** — the misses are chunked into batches of up to
   ``batch_size`` lanes and run through the engine's MS-BFS path
   (:meth:`repro.core.engine.TraversalEngine.run_batch`), one fused frontier
   sweep per batch; per-lane answers are bit-identical to sequential runs,
   so callers cannot observe the batching (``batched=False`` falls back to
   per-source sequential runs — the before/after baseline of the serving
   benchmarks).
3. **Result cache** — answers land in an LRU keyed by
   ``(graph identity, graph version, options, program, source, params)``
   — where *params* is every program parameter (``max_hops``, ``delta``,
   ``damping``, ``iterations``) — with hit/miss/eviction counters; on
   skewed traffic the cache and the batching compound.  The graph identity token keeps two graphs with
   identical options and sources from ever colliding, and the version tag
   makes every entry stale the moment the graph mutates.
4. **Live mutation** — when the engine serves a
   :class:`repro.dynamic.DynamicGraph`, :meth:`QueryService.apply_delta`
   applies an update batch and *invalidates by epoch bump*: the graph
   version in the key advances, every resident entry is purged (counted in
   ``entries_invalidated`` / ``epoch_bumps``), and subsequent misses
   traverse the mutated graph.  :meth:`QueryService.run_mixed` replays a
   mixed read/update stream closed-loop.

The service is synchronous and deterministic: the measured wall-clock is the
saturated closed-loop throughput, and every counter depends only on the
(graph, options, query stream) triple — never on timing — so serving
scenarios can sit in the benchmark harness next to the traversal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import get_tracer
from repro.serve.cache import LRUCache, graph_token
from repro.serve.workload import Query
from repro.utils.timing import now_s

__all__ = ["ServiceStats", "QueryService"]


@dataclass
class ServiceStats:
    """Cumulative service-level counters (cache counters live on the cache)."""

    #: Queries answered (one per submitted query that completed a flush).
    queries: int = 0
    #: Flush rounds executed.
    flushes: int = 0
    #: Pending duplicates merged into an already-pending identical query.
    coalesced: int = 0
    #: Batched engine sweeps executed.
    batches: int = 0
    #: Sources answered by batched sweeps.
    batched_sources: int = 0
    #: Sources answered by sequential single-source runs.
    sequential_sources: int = 0
    #: Update batches applied through :meth:`QueryService.apply_delta`.
    updates: int = 0
    #: Cache epochs retired by graph mutations (one per applied delta).
    epoch_bumps: int = 0
    #: Cached entries invalidated by epoch bumps.
    entries_invalidated: int = 0
    #: Wall-clock seconds spent inside flushes (traversals + cache work).
    wall_s: float = 0.0
    #: Longest single flush observed (seconds) — the closed-loop tail proxy.
    flush_wall_max_s: float = 0.0
    #: Wall-clock seconds spent applying update deltas (mutation + repair).
    update_wall_s: float = 0.0

    @property
    def traversals(self) -> int:
        """Engine runs performed (one per batch, one per sequential source)."""
        return self.batches + self.sequential_sources

    @property
    def queries_per_sec(self) -> float:
        """Closed-loop throughput so far (0.0 before any timed work)."""
        return self.queries / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "flushes": self.flushes,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batched_sources": self.batched_sources,
            "sequential_sources": self.sequential_sources,
            "traversals": self.traversals,
            "updates": self.updates,
            "epoch_bumps": self.epoch_bumps,
            "entries_invalidated": self.entries_invalidated,
            "wall_s": self.wall_s,
            "flush_wall_max_s": self.flush_wall_max_s,
            "update_wall_s": self.update_wall_s,
            "queries_per_sec": self.queries_per_sec,
        }


class QueryService:
    """Serves single-source traversal queries over one built graph.

    Parameters
    ----------
    engine:
        A :class:`repro.core.engine.TraversalEngine` (or anything exposing
        ``run`` / ``run_batch`` and ``options``) bound to the graph being
        served.
    batch_size:
        Maximum lanes per fused sweep; 1 disables batching outright.
    cache_size:
        LRU capacity in results.
    batched:
        ``False`` answers every miss with a sequential single-source run —
        the baseline mode of the serving benchmarks.
    backend:
        Optional execution backend (a registry name such as ``"process"``
        or a live :class:`repro.exec.ExecutionBackend`) the service switches
        the engine to before serving, so batched sweeps run e.g. on the
        multiprocessing pool.  ``None`` keeps the engine's current backend.
        Note this reconfigures the *shared* engine, not a copy — callers
        holding the same engine see the switch.
    """

    def __init__(
        self,
        engine,
        batch_size: int = 32,
        cache_size: int = 1024,
        batched: bool = True,
        backend=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.engine = engine
        if backend is not None:
            engine.use_backend(backend)
        self.batch_size = int(batch_size)
        self.batched = bool(batched) and self.batch_size > 1
        self.cache = LRUCache(cache_size)
        self.stats = ServiceStats()
        self._pending: list[Query] = []
        self._options_label = engine.options.label()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def graph_identity(self) -> tuple:
        """The ``(graph token, graph version)`` pair stamped into every key.

        The token is process-unique per live graph object (two graphs with
        identical options/program/source can never collide); the version is
        the mutation counter of a dynamic graph (0 for frozen graphs), so a
        mutation makes every older entry unmatchable.
        """
        root = getattr(self.engine, "graph_root", None)
        if root is None:
            root = self.engine.graph
        return (graph_token(root), int(getattr(self.engine, "graph_version", 0)))

    def key_of(self, query: Query) -> tuple:
        """The cache key: graph identity/version + options + program + source
        + every program parameter (``max_hops``, ``delta``, ``damping``,
        ``iterations``).

        Parameters are part of the key because they are part of the answer:
        an ``sssp`` result computed with one bucket width must never be
        served to a query asking for another (the distances agree but the
        phase/workload counters do not), and a 5-iteration pagerank is a
        different fixpoint than a 50-iteration one.  ``pagerank`` ignores
        its source, which is normalised to 0 here so every equivalent
        ranking query coalesces onto one cache entry.
        """
        source = int(query.source) if query.row.takes_source else 0
        return (
            self.graph_identity(),
            self._options_label,
            query.program,
            source,
            *query.params,
        )

    @property
    def pending(self) -> int:
        """Queries admitted but not yet flushed."""
        return len(self._pending)

    def submit(self, query: Query) -> int:
        """Queue one query; returns its position in the next flush's results."""
        ticket = len(self._pending)
        self._pending.append(query)
        return ticket

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def flush(self) -> list:
        """Answer every pending query; results in submission order.

        Cache hits are served from memory; the remaining unique misses are
        coalesced and traversed — in fused batches of up to ``batch_size``
        when batching is on — and their results cached.
        """
        pending, self._pending = self._pending, []
        tracer = get_tracer()
        started = now_s()
        # Keys are computed at flush time, not admission time: a delta applied
        # between submit and flush bumps the graph version, and the flush must
        # answer against the mutated graph, not a retired epoch.
        pending = [(query, self.key_of(query)) for query in pending]
        answers: dict[tuple, object] = {}
        miss_queries: list[Query] = []
        hits = 0
        for query, key in pending:
            if key in answers:
                self.stats.coalesced += 1
                if tracer.enabled:
                    tracer.event("coalesce", cat="serve", source=int(query.source))
                continue
            cached = self.cache.get(key)
            if cached is not None:
                answers[key] = cached
                hits += 1
                if tracer.enabled:
                    tracer.event("cache-hit", cat="serve", source=int(query.source))
            else:
                answers[key] = None  # placeholder: traversal pending
                miss_queries.append(query)
                if tracer.enabled:
                    tracer.event("cache-miss", cat="serve", source=int(query.source))

        for queries in self._group_misses(miss_queries).values():
            for start in range(0, len(queries), self.batch_size):
                self._run_chunk(queries[start:start + self.batch_size], answers)

        results = [answers[key] for _, key in pending]
        self.stats.queries += len(pending)
        self.stats.flushes += 1
        elapsed = now_s() - started
        self.stats.wall_s += elapsed
        if elapsed > self.stats.flush_wall_max_s:
            self.stats.flush_wall_max_s = elapsed
        if tracer.enabled:
            tracer.record_span(
                "flush", cat="serve", start=started, dur=elapsed,
                args={
                    "queries": len(pending),
                    "hits": hits,
                    "misses": len(miss_queries),
                },
            )
        return results

    def serve(self, queries, wave_size: int | None = None) -> list:
        """Closed-loop replay: admit ``queries`` in waves and flush each wave.

        ``wave_size`` (default: ``batch_size``) models clients whose next
        request waits for the previous wave — the standard closed-loop
        harness.  Returns all results in stream order.  A read-only
        :meth:`run_mixed`.
        """
        return self.run_mixed(queries, wave_size)

    def query(self, query: Query):
        """Answer one query immediately (submit + flush).

        Anything else already pending is flushed along with it; the returned
        result is this query's own (by its admission ticket).
        """
        ticket = self.submit(query)
        return self.flush()[ticket]

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta, flush_pending: bool = True):
        """Apply one update batch to the served graph; invalidate by epoch.

        Requires the engine to serve a mutable graph (a
        :class:`repro.dynamic.DynamicEngine`).  Pending queries are flushed
        first by default — they were admitted against the pre-mutation graph
        and closed-loop replay answers in arrival order.  The graph version
        advances, so every resident cache entry becomes unmatchable; the
        entries are purged eagerly and counted (``entries_invalidated``,
        ``epoch_bumps``).

        Returns the :class:`repro.dynamic.AppliedDelta` of effective changes.
        """
        apply = getattr(self.engine, "apply_delta", None)
        if apply is None:
            raise TypeError(
                "this service serves a frozen graph; build it over a "
                "repro.dynamic.DynamicEngine to apply deltas"
            )
        if flush_pending and self._pending:
            self.flush()
        tracer = get_tracer()
        started = now_s()
        applied = apply(delta)
        self.stats.updates += 1
        self.stats.epoch_bumps += 1
        invalidated = self.cache.clear()
        self.stats.entries_invalidated += invalidated
        elapsed = now_s() - started
        self.stats.update_wall_s += elapsed
        if tracer.enabled:
            tracer.record_span(
                "epoch-bump", cat="serve", start=started, dur=elapsed,
                args={"invalidated": invalidated},
            )
        return applied

    def invalidate_epoch(self) -> int:
        """Retire the cache epoch without applying a delta locally.

        The cluster tier's update fanout path: one replica applies the delta
        to the *shared* dynamic graph (advancing the version every replica's
        keys embed), and every other replica calls this to purge its now
        unmatchable entries eagerly and keep its invalidation counters
        truthful.  Returns the number of entries purged.
        """
        self.stats.epoch_bumps += 1
        dropped = self.cache.clear()
        self.stats.entries_invalidated += dropped
        return dropped

    def run_mixed(self, operations, wave_size: int | None = None) -> list:
        """Closed-loop replay of a mixed read/update stream.

        ``operations`` interleaves :class:`repro.serve.workload.Query`
        requests with :class:`repro.dynamic.EdgeDelta` update batches (what
        :meth:`repro.serve.workload.MixedWorkload.generate` produces).
        Queries accumulate in waves of ``wave_size`` (default:
        ``batch_size``) and flush wave-by-wave; a delta flushes whatever is
        pending, then mutates the graph and bumps the cache epoch.  Returns
        the query results in stream order (deltas contribute no entry).
        """
        from repro.dynamic.delta import EdgeDelta

        if wave_size is None:
            wave_size = self.batch_size
        if wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        results: list = []
        for op in operations:
            if isinstance(op, EdgeDelta):
                if self.pending:
                    results.extend(self.flush())
                self.apply_delta(op, flush_pending=False)
                continue
            self.submit(op)
            if self.pending >= wave_size:
                results.extend(self.flush())
        if self.pending:
            results.extend(self.flush())
        return results

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_misses(misses: list[Query]) -> dict[tuple, list[Query]]:
        """Group uncached queries into batchable families.

        A family shares everything but the source, so a fused sweep (or a
        shared pagerank run) answers every member with one program config.
        """
        families: dict[tuple, list[Query]] = {}
        for query in misses:
            families.setdefault((query.program, *query.params), []).append(query)
        return families

    def _run_chunk(self, chunk: list[Query], answers: dict) -> None:
        """Traverse one chunk of a family and record/cache its results.

        The family's row of the program table decides the route: a
        source-free program (``pagerank``) collapses to a single engine run
        shared by every member; a row with a batched equivalent
        (``levels``/``khop``) goes through the fused MS-BFS path when
        batching is on; everything else (``sssp`` — per-vertex *values* the
        lane-bitset batching cannot fuse) runs sequentially.
        """
        row = chunk[0].row
        if not row.takes_source:
            produced = [self.engine.run(chunk[0].make_program())] * len(chunk)
            self.stats.sequential_sources += 1
        elif row.batched and self.batched and len(chunk) > 1:
            sources = [query.source for query in chunk]
            batch = self.engine.run_batch(
                row.make_batched(sources, **chunk[0].program_params())
            )
            produced = batch.per_source_results()
            self.stats.batches += 1
            self.stats.batched_sources += len(chunk)
        else:
            produced = [self.engine.run(query.make_program()) for query in chunk]
            self.stats.sequential_sources += len(chunk)
        for query, result in zip(chunk, produced):
            key = self.key_of(query)
            answers[key] = result
            self.cache.put(key, result)

    def stats_snapshot(self) -> dict:
        """Service and cache counters in one JSON-stable dictionary.

        Includes the invalidation counters (``entries_invalidated``,
        ``epoch_bumps`` under ``service``) and the served graph's current
        mutation version (0 for frozen graphs).
        """
        snapshot = {"service": self.stats.as_dict(), "cache": self.cache.stats.as_dict()}
        snapshot["cache_hit_rate"] = self.cache.stats.hit_rate
        snapshot["flush_wall"] = {
            "count": self.stats.flushes,
            "mean_s": (
                self.stats.wall_s / self.stats.flushes if self.stats.flushes else 0.0
            ),
            "max_s": self.stats.flush_wall_max_s,
        }
        backend = getattr(self.engine, "backend_name", None)
        if backend is not None:
            snapshot["backend"] = backend
        snapshot["graph_version"] = int(getattr(self.engine, "graph_version", 0))
        return snapshot
