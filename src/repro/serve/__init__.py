"""Query serving (``repro.serve``): batch, cache and schedule traversals.

The paper's system answers one BFS at a time; a service answering heavy
query traffic wants *throughput*.  This package supplies the serving layer
over a built graph:

* :mod:`repro.serve.service` — :class:`QueryService`: an admission queue
  that coalesces pending single-source queries, routes the unique cache
  misses through the engine's batched MS-BFS path in fused sweeps of up to
  B lanes, and memoizes answers in an LRU result cache;
* :mod:`repro.serve.cache` — the LRU cache with hit/miss/eviction counters;
* :mod:`repro.serve.workload` — deterministic Zipf-skewed query streams
  (:class:`ZipfWorkload`) for closed-loop load generation;
* :mod:`repro.serve.cluster` — the sharded serving tier: N replicas behind
  an asyncio front door replaying *open-loop* arrivals (Poisson / bursty /
  diurnal) on a deterministic virtual clock, with admission control,
  request hedging, and p50/p95/p99 tail-latency accounting.

Typical use::

    import repro
    service = repro.session().generate(scale=14).serve(batch_size=32)
    stream = repro.ZipfWorkload(num_queries=512, skew=1.0).generate(
        service.engine.graph.num_vertices
    )
    results = service.serve(stream)
    print(service.stats.queries_per_sec, service.cache.stats.hit_rate)

The headline metric of this subsystem is queries/second, not single-traversal
wall time; ``repro serve bench`` and the ``serve-*`` scenarios in
:mod:`repro.bench.scenarios` track it.
"""

from repro.serve.cache import CacheStats, LRUCache, graph_token
from repro.serve.service import QueryService, ServiceStats
from repro.serve.workload import MixedWorkload, Query, ZipfWorkload, zipf_ranks, zipf_weights

__all__ = [
    "CacheStats",
    "ClusterConfig",
    "ClusterDispatcher",
    "LRUCache",
    "MixedWorkload",
    "OpenLoopWorkload",
    "Query",
    "QueryService",
    "ReplicaPool",
    "ServiceStats",
    "ZipfWorkload",
    "graph_token",
    "make_arrivals",
    "zipf_ranks",
    "zipf_weights",
]

#: Names served from :mod:`repro.serve.cluster` on first use (PEP 562): the
#: cluster tier imports ``asyncio``, which ``import repro.serve`` should not.
_CLUSTER_NAMES = (
    "ClusterConfig",
    "ClusterDispatcher",
    "OpenLoopWorkload",
    "ReplicaPool",
    "make_arrivals",
)


def __getattr__(name: str):
    if name in _CLUSTER_NAMES:
        import repro.serve.cluster

        return getattr(repro.serve.cluster, name)
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
