"""Replicas: N query services over one shared graph, one engine each.

A serving cluster replicates the *compute* (engine + result cache per
replica) while sharing the *data* (one partitioned or dynamic graph).  That
split is what makes hedging meaningful — a straggling request can be
re-issued to a different replica and get the identical answer — and what
makes update fanout a real problem: a mutation must advance one shared graph
version and invalidate every replica's cache.

Backend rules
-------------
For a frozen :class:`~repro.partition.subgraphs.PartitionedGraph` the pool
resolves **one** execution backend instance and hands it to every engine:
backends are read-only executors over the CSR, and sharing avoids N
process-pool spawns (the expensive part of the ``process`` backend).  The
pool owns that instance (engines treat passed-in instances as caller-owned)
and closes it in :meth:`ReplicaPool.close`.

For a :class:`~repro.dynamic.DynamicGraph` the pool passes the backend
*name* to each :class:`~repro.dynamic.DynamicEngine` instead: a live backend
instance is pinned to the CSR it was built over, and a compaction would
silently leave it traversing the old graph — the dynamic engine rejects
instances for exactly this reason, and re-resolves per replica after every
compaction.

Timing model
------------
Replicas report a **modeled** service time per request: the traversal's
deterministic modeled milliseconds for a miss, a fixed small constant for a
cache hit.  The cluster simulation charges these against its virtual clock,
so latencies (and everything derived from them: hedge delays, shed counts,
SLO violations) are bit-identical across hosts and execution backends.
"""

from __future__ import annotations

from repro.core.engine import TraversalEngine
from repro.exec.config import ExecConfig
from repro.serve.service import QueryService
from repro.serve.workload import Query

__all__ = ["Replica", "ReplicaPool"]

#: Modeled service time of a cache hit, in milliseconds.  Small but nonzero:
#: a hit still costs a key build and a dictionary probe, and a zero would
#: let infinitely many hits complete per virtual instant.
DEFAULT_CACHE_HIT_MS = 0.05


class Replica:
    """One serving replica: a :class:`QueryService` plus modeled timing."""

    def __init__(self, rid: int, service: QueryService, cache_hit_ms: float) -> None:
        self.rid = int(rid)
        self.service = service
        self.cache_hit_ms = float(cache_hit_ms)

    def serve_primary(self, query: Query):
        """Answer ``query`` through the service (cache + stats), as a primary.

        Returns ``(result, service_ms, cache_hit)`` where ``service_ms`` is
        the modeled time the request occupied this replica.
        """
        hits_before = self.service.cache.stats.hits
        result = self.service.query(query)
        hit = self.service.cache.stats.hits > hits_before
        service_ms = self.cache_hit_ms if hit else float(result.timing.elapsed_ms)
        return result, service_ms, hit

    def probe_hedge(self, query: Query):
        """Answer ``query`` on the bare engine, bypassing the cache entirely.

        Hedges must leave no trace in replica state: a hedge that warmed the
        cache (or bumped service counters) would make every later primary's
        hit pattern depend on hedging decisions, breaking the invariant that
        the primary timeline — and with it every gated counter — is
        identical with hedging on or off.  Returns ``(result, service_ms)``.
        """
        result = self.service.engine.run(query.make_program())
        return result, float(result.timing.elapsed_ms)


class ReplicaPool:
    """Builds and owns N replicas over one shared graph.

    Parameters
    ----------
    graph:
        A frozen :class:`PartitionedGraph` or a live
        :class:`repro.dynamic.DynamicGraph` — shared by every replica.
    num_replicas:
        Cluster size (>= 1).
    options, hardware:
        Engine configuration, identical across replicas (answers must be
        replica-independent for first-response-wins to be sound).
    backend:
        Execution backend spec.  A name (``"inline"``/``"process"``) or
        ``None`` works for both graph kinds; a live instance is accepted only
        for frozen graphs (and is then shared, caller-owned).
    batch_size, cache_size, batched:
        Per-replica :class:`QueryService` knobs.
    cache_hit_ms:
        Modeled service time of a cache hit.
    """

    def __init__(
        self,
        graph,
        num_replicas: int,
        *,
        options=None,
        hardware=None,
        backend=None,
        batch_size: int = 32,
        cache_size: int = 1024,
        batched: bool = True,
        cache_hit_ms: float = DEFAULT_CACHE_HIT_MS,
    ) -> None:
        from repro.dynamic import DynamicEngine, DynamicGraph

        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if cache_hit_ms < 0:
            raise ValueError(f"cache_hit_ms must be non-negative, got {cache_hit_ms}")
        self.graph = graph
        self.is_dynamic = isinstance(graph, DynamicGraph)
        #: The resolved run configuration shared by every replica.
        self.config = ExecConfig.resolve(backend=backend)
        self._shared_backend = None
        self._owns_backend = False
        engines: list = []
        if self.is_dynamic:
            # Name specs only: DynamicEngine re-resolves after compactions.
            for _ in range(num_replicas):
                engines.append(
                    DynamicEngine(
                        graph, options=options, hardware=hardware, backend=self.config.backend
                    )
                )
        else:
            from repro.exec.backend import resolve_backend

            shared, owns = resolve_backend(self.config.backend, graph)
            self._shared_backend = shared
            self._owns_backend = owns
            for _ in range(num_replicas):
                engines.append(
                    TraversalEngine(graph, options=options, hardware=hardware, backend=shared)
                )
        self.replicas = [
            Replica(
                rid,
                QueryService(engine, batch_size=batch_size, cache_size=cache_size, batched=batched),
                cache_hit_ms,
            )
            for rid, engine in enumerate(engines)
        ]

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas)

    def __getitem__(self, rid: int) -> Replica:
        return self.replicas[rid]

    @property
    def backend_name(self) -> str:
        """Registry name of the execution backend every replica runs on."""
        return self.config.backend_name

    def apply_delta(self, delta):
        """Apply one update batch to the shared graph; fan out invalidation.

        Replica 0 applies the delta (mutating the shared graph and bumping
        the version every replica's cache keys embed); every other replica
        then retires its cache epoch eagerly via
        :meth:`QueryService.invalidate_epoch`, so all replicas converge on
        the new graph version with truthful invalidation counters.  Returns
        the :class:`repro.dynamic.AppliedDelta`.
        """
        if not self.is_dynamic:
            raise TypeError(
                "this pool serves a frozen graph; build it over a "
                "repro.dynamic.DynamicGraph to apply deltas"
            )
        applied = self.replicas[0].service.apply_delta(delta, flush_pending=False)
        for replica in self.replicas[1:]:
            replica.service.invalidate_epoch()
        return applied

    def graph_version(self) -> int:
        """Current mutation version of the shared graph (0 for frozen)."""
        return int(getattr(self.replicas[0].service.engine, "graph_version", 0))

    def close(self) -> None:
        """Release every engine and the pool-owned shared backend."""
        for replica in self.replicas:
            close = getattr(replica.service.engine, "close", None)
            if close is not None:
                close()
        if self._owns_backend and self._shared_backend is not None:
            self._shared_backend.close()
            self._shared_backend = None
            self._owns_backend = False

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
