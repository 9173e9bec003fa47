"""The process execution backend: a persistent worker pool over shared memory.

:class:`ProcessBackend` runs the per-GPU kernel tasks of every super-step in
a pool of worker processes, so the kernel stage — the compute-bound part of
a traversal — actually runs in parallel on multi-core hosts instead of
iterating the virtual GPUs in one Python loop.

Design notes:

* **The pool is persistent and process-global.**  Worker startup is paid
  once per interpreter, not per engine: every :class:`ProcessBackend`
  instance (there can be many — each engine owns one) dispatches into the
  same pool, keyed by worker count.  ``atexit`` tears the
  pools down.
* **Graph data crosses the process boundary through shared memory, not
  pickles.**  Each backend hands its graph to a
  :class:`~repro.exec.shm.SharedGraphStore`, which exports a memory graph's
  CSR subgraphs once in the store layout (a store-backed graph's stay in
  its ``graph.bin``) and pickles the graph's descriptor table once into
  shared memory; the per-step dense frontier buffers (flags or lane words —
  the store does not care which) are rewritten in place before each
  dispatch.  Tasks carry only queues, candidate sets, segment names and the
  table's offset; a worker unpickles the table the first time it sees a
  graph and caches its views, so steady-state IPC is the frontier in and
  the discoveries out.
* **A worker that dies mid-step ends the run in an error, not a hang.**
  ``multiprocessing.Pool`` replaces a dead worker but loses its task, so a
  dispatch waits with a liveness poll: when a worker it started with has
  exited, the pool is terminated and forgotten, the backend's segments are
  unlinked and one ``RuntimeError`` names the GPUs whose results were lost.
  There is no retry.
* **Workers return bit-identical kernel outputs** (the kernels are pure
  functions), so results, workload counters and modeled times match the
  inline backend exactly; only wall-clock changes.  Outputs whose
  ``sources`` the fold never reads are stripped before the return trip.

The default worker count is ``min(num_gpus, cpu_count, 8)`` — more workers
than virtual GPUs can never help, and past the physical cores they only add
scheduler pressure.  On a single-core host the pool degenerates to one
worker and the backend is strictly slower than inline (every byte still
crosses the process boundary); it exists there only to exercise the same
code path CI and multi-core hosts run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import weakref
from typing import NamedTuple

from repro.exec.backend import ExecutionBackend
from repro.exec.plan import GPUPlan, SuperStepPlan, execute_gpu_plan
from repro.exec.shm import (
    SegmentCache,
    SharedGraphStore,
    csrs_from_descriptor,
    dense_views_from_descriptor,
)

__all__ = ["ProcessBackend", "shutdown_pools"]

#: Hard cap on pool width; the paper's clusters have at most 8 GPUs per node
#: and a wider pool only shreds caches.
MAX_WORKERS = 8

#: Seconds between a waiting dispatch's checks that its workers are alive.
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


class _Task(NamedTuple):
    """One GPU's share of a super-step, as shipped to a worker."""

    gpu: int
    visits: list
    graph: tuple  #: SharedGraphStore.graph_descriptor
    dense: tuple  #: SharedGraphStore.publish_dense(...) descriptor
    has_local: bool  #: whether this GPU's own dense buffer was published
    collect_spans: bool


def _run_task(task: _Task):
    """Execute one GPU's kernel tasks inside a worker; returns (gpu, outputs)."""
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else SegmentCache()
    csrs = csrs_from_descriptor(cache, task.graph)

    def resolve_csr(g: int, name: str):
        return csrs[(g, name)]

    dense_delegate, dense_local = dense_views_from_descriptor(
        cache, task.dense, task.gpu, task.has_local
    )
    return task.gpu, execute_gpu_plan(
        GPUPlan(task.gpu, task.visits, dense_local),
        resolve_csr,
        dense_delegate,
        strip_sources=True,
        collect_spans=task.collect_spans,
    )


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
    """Execute per-GPU kernel tasks in a persistent multiprocessing pool.

    Parameters
    ----------
    graph:
        The partitioned graph whose CSR subgraphs the workers read: a memory
        graph's are exported to shared memory, a store-backed graph's are
        mapped from its store.
    workers:
        Pool width; defaults to ``min(num_gpus, cpu_count, 8)``.

    Workers start with :data:`START_METHOD`.
    """

    name = "process"
    dispatches = True

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

    def run_kernels(self, plan: SuperStepPlan) -> list:
        if self._closed:
            raise RuntimeError("ProcessBackend is closed")
        return super().run_kernels(plan)

    def _dispatch(self, plan: SuperStepPlan, work: list) -> list:
        store = self.store
        dense_local: list = [None] * len(self.graph.gpus)
        for gp in work:
            dense_local[gp.gpu] = gp.dense_local
        dense = store.publish_dense(plan.dense_delegate, dense_local)
        tasks = [
            _Task(
                gpu=gp.gpu,
                visits=gp.visits,
                graph=store.graph_descriptor,
                dense=dense,
                has_local=gp.dense_local is not None,
                collect_spans=plan.collect_spans,
            )
            for gp in work
        ]
        # One task per GPU: per-GPU work is heterogeneous (delegate-heavy
        # GPUs do more), so let idle workers steal instead of pre-binning.
        # Each result names its GPU, so placement never relies on task order.
        pool = _get_pool(self.workers)
        # The pool's own process list: it replaces a dead worker there, so
        # the workers this dispatch started with are kept to watch.
        workers = list(pool._pool)
        pending = [pool.apply_async(_run_task, (task,)) for task in tasks]
        for result in pending:
            while not result.ready():
                result.wait(LIVENESS_POLL_S)
                if not result.ready() and any(w.exitcode is not None for w in workers):
                    lost = [task.gpu for task, r in zip(tasks, pending) if not r.ready()]
                    # The pool is broken: the next backend gets a new one.
                    _POOLS.pop(self.workers, None)
                    pool.terminate()
                    pool.join()
                    self.close()
                    raise RuntimeError(
                        f"a worker process died during a super-step; the kernels of "
                        f"GPU {', '.join(map(str, lost))} never returned"
                    )
        return [result.get() for result in pending]

    def close(self) -> None:
        """Unlink this backend's shared memory (the pool is shared, kept)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"
