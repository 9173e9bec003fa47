"""The process execution backend: whole runs in a persistent worker pool.

:class:`ProcessBackend` ships every run — a program, its optional pre-seeded
state and the overlay edges of a mutable graph — to one pool worker, which
executes it from its first super-step to its result on an inline engine of
its own.  The paper's protocol is a campaign of independent searches (140
roots, §VI-A3), so a campaign's runs spread over the pool and the
super-steps of each run stay in one process, where a step costs what it
costs inline.

Design notes:

* **The pool is persistent and process-global.**  Worker startup is paid
  once per interpreter, not per engine: every :class:`ProcessBackend`
  instance (there can be many — each engine owns one) submits into the
  same pool, keyed by worker count.  ``atexit`` tears the pools down.
* **Graph data crosses the process boundary through shared memory, not
  pickles.**  Each backend hands its graph to a
  :class:`~repro.exec.shm.SharedGraphStore`, which exports a memory graph's
  flat form once (a store-backed graph's stays in its ``graph.bin``) and
  pickles the graph's descriptor once into shared memory.  A run carries
  segment names, the program, its ``init`` and the overlay as ``(src, dst,
  weights)`` arrays; a worker rebuilds the graph through the store reader
  the first time it sees it, on its first run over it (never in the
  constructor), and keeps one engine per ``(graph, options, hardware)``
  beside it in its :class:`~repro.exec.shm.SegmentCache` for as long as
  the coordinator keeps the export open: a run also carries the names of
  the coordinator's open exports, and a worker first drops every graph
  whose segments are not among them.
* **Results come back in job order.**  :meth:`ProcessBackend.run` submits
  every job at once and yields each result as its turn comes, so a caller
  folds, validates and reports in source order.  With the coordinator's
  tracer on, a worker traces its run and returns the events, which the
  coordinator moves into the run's dispatch window: a process trace holds
  the inline trace's spans.
* **A worker that dies mid-run ends the call in an error, not a hang.**
  ``multiprocessing.Pool`` replaces a dead worker but loses its task, so
  waiting is a liveness poll: when a worker the call started with has
  exited, the pool is terminated and forgotten, the backend's segments are
  unlinked and one ``RuntimeError`` names the runs that never returned.
  There is no retry.
* **Workers return bit-identical results**: a run executes the same code
  on the same arrays wherever it runs, so results, workload counters and
  modeled times match the inline backend exactly; only wall-clock changes.

The default worker count is ``min(num_gpus, cpu_count, 8)``.  On a
single-core host the pool degenerates to one worker and the backend is
strictly slower than inline (every result still crosses the process
boundary); it exists there only to exercise the same code path CI and
multi-core hosts run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import weakref
from typing import Iterator

from repro.exec.backend import ExecutionBackend
from repro.exec.shm import SegmentCache, SharedGraphStore, graph_from_descriptor, open_segments
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.utils.timing import now_s

__all__ = ["ProcessBackend", "shutdown_pools"]

#: Hard cap on pool width; the paper's clusters have at most 8 GPUs per node
#: and a wider pool only shreds caches.
MAX_WORKERS = 8

#: Seconds between a waiting call's checks that its workers are alive.
LIVENESS_POLL_S = 0.1


#: How pool workers start: fork makes worker startup (and spawn-free numpy
#: import) essentially free on Linux; platforms without it can only spawn.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
_WORKER_CACHE: SegmentCache | None = None


def _disable_shm_tracking() -> None:
    """Stop this worker's resource tracker from adopting attached segments.

    On CPython < 3.13, merely *attaching* to a shared-memory segment
    registers it with the process's resource tracker, which unlinks the
    segment when the process exits — destroying buffers the coordinator
    still owns (bpo-39959).  The coordinator is the sole owner here and
    unlinks everything itself, so workers must not track attachments.
    (Python 3.13+ exposes ``track=False`` for exactly this reason.)
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister

    def register(name, rtype):  # pragma: no cover - runs in workers
        if rtype != "shared_memory":
            original_register(name, rtype)

    def unregister(name, rtype):  # pragma: no cover - runs in workers
        if rtype != "shared_memory":
            original_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister


def _init_worker() -> None:  # pragma: no cover - runs in workers
    global _WORKER_CACHE
    _disable_shm_tracking()
    _WORKER_CACHE = SegmentCache()


def _run_job(config: tuple, program, init) -> tuple:
    """Run one job inside a worker: ``(result, trace events or None, start)``.

    ``config`` is what every job of one call shares: the graph descriptor,
    the engine's options and hardware, the overlay's ``(src, dst, weights)``
    or ``None``, whether the coordinator traces, and the segment names of the
    coordinator's open exports (every other cached graph is dropped first).
    """
    from repro.core.engine import TraversalEngine

    descriptor, options, hardware, overlay_edges, tracing, open_names = config
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else SegmentCache()
    cache.retain(open_names)
    graph, engines = graph_from_descriptor(cache, descriptor)
    engine = engines.get((options, hardware))
    if engine is None:
        engine = engines[(options, hardware)] = TraversalEngine(
            graph, options=options, hardware=hardware, backend="inline"
        )
    overlay = None
    if overlay_edges is not None:
        from repro.dynamic.graph import OverlayBuffer

        overlay = OverlayBuffer(graph)
        overlay.add(*overlay_edges)
    if not tracing:
        return engine.execute(program, init, overlay), None, 0.0
    tracer = Tracer()
    previous = set_tracer(tracer)
    started = now_s()
    try:
        result = engine.execute(program, init, overlay)
    finally:
        set_tracer(previous)
    return result, tracer.events, started


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #
_POOLS: dict = {}


def _get_pool(workers: int):
    pool = _POOLS.get(workers)
    if pool is None:
        context = multiprocessing.get_context(START_METHOD)
        pool = context.Pool(processes=workers, initializer=_init_worker)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate every worker pool (called automatically at exit)."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


atexit.register(shutdown_pools)


class ProcessBackend(ExecutionBackend):
    """Execute whole runs in a persistent multiprocessing pool.

    Parameters
    ----------
    graph:
        The partitioned graph the workers traverse: a memory graph is
        exported to shared memory, a store-backed graph's store is mapped.
    workers:
        Pool width; defaults to ``min(num_gpus, cpu_count, 8)``.

    Workers start with :data:`START_METHOD`.
    """

    name = "process"

    def __init__(self, graph, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(graph)
        cpu = os.cpu_count() or 1
        self.workers = (
            int(workers)
            if workers is not None
            else max(1, min(graph.num_gpus or 1, cpu, MAX_WORKERS))
        )
        _get_pool(self.workers)
        self.store = SharedGraphStore(graph)
        self._closed = False
        # Safety net for engines that never call close(): unlink the shared
        # segments when the backend is garbage collected.
        self._finalizer = weakref.finalize(self, self.store.close)

    def run(self, engine, jobs: list, overlay=None) -> Iterator:
        if self._closed:
            raise RuntimeError("ProcessBackend is closed")
        tracer = get_tracer()
        edges = None if overlay is None or overlay.empty else overlay.edges()
        config = (
            self.store.graph_descriptor, engine.options, engine.hardware, edges, tracer.enabled,
            open_segments(),
        )
        pool = _get_pool(self.workers)
        # The pool's own process list: it replaces a dead worker there, so
        # the workers this call started with are kept to watch.
        workers = list(pool._pool)
        submitted = now_s()
        pending = [pool.apply_async(_run_job, (config, program, init)) for program, init in jobs]
        for pending_result in pending:
            while not pending_result.ready():
                pending_result.wait(LIVENESS_POLL_S)
                if not pending_result.ready() and any(w.exitcode is not None for w in workers):
                    # Each lost run is named by its program and its source(s).
                    lost = [
                        " from ".join([program.name] + [
                            f"{attr} {getattr(program, attr)}" for attr in ("source", "sources")
                            if getattr(program, attr, None) is not None
                        ])
                        for (program, _), r in zip(jobs, pending) if not r.ready()
                    ]
                    # The pool is broken: the next backend gets a new one.
                    _POOLS.pop(self.workers, None)
                    pool.terminate()
                    pool.join()
                    self.close()
                    raise RuntimeError(
                        "a worker process died during a run; the runs of "
                        f"{', '.join(lost)} never returned"
                    )
            result, events, started = pending_result.get()
            if events:
                # A forked worker reads the coordinator's clock; any other
                # clock is moved so the run starts when it was submitted.
                shift = 0.0 if submitted <= started <= now_s() else submitted - started
                for event in events:
                    event["ts"] += shift * 1e6
                tracer.events.extend(events)
            yield result

    def close(self) -> None:
        """Unlink this backend's shared memory (the pool is shared, kept)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"
