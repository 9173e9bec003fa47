"""Thread-pool execution backend: shared memory for free, no IPC at all.

:class:`ThreadBackend` is the third execution backend: each GPU's kernel
tasks run as jobs on a process-global :class:`~concurrent.futures.
ThreadPoolExecutor`.  Threads share the coordinator's address space, so the
CSR subgraphs and dense frontier buffers (flags or lane words) are read in
place — zero pickling, zero shared-memory export, zero per-task IPC — which
makes this backend strictly cheaper to enter than the
:class:`~repro.exec.process.ProcessBackend` and its fork+shm machinery.

The visit kernels are vectorized NumPy, which holds the GIL for most of
its work, so the threads mostly serialize and this backend behaves like
:class:`~repro.exec.backend.InlineBackend` with a small scheduling
overhead; only the kernels' GIL-free stretches overlap.
Either way the outputs are bit-identical: results, counters and modeled
times do not depend on where the kernels ran.

Like the process pool, the executor is process-global and keyed by width, so
engine churn (serve replicas, dynamic-graph rebuilds) reuses threads instead
of respawning them; ``close()`` is therefore a no-op and the pool is torn
down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ThreadPoolExecutor

from repro.exec.backend import ExecutionBackend
from repro.exec.plan import SuperStepPlan, execute_gpu_plan

__all__ = ["ThreadBackend", "MAX_WORKERS", "shutdown_executors"]

#: Upper bound on pool width, mirroring :data:`repro.exec.process.MAX_WORKERS`.
MAX_WORKERS = 8

#: Process-global executors keyed by worker count (see module docstring).
_EXECUTORS: dict[int, ThreadPoolExecutor] = {}


def _get_executor(workers: int) -> ThreadPoolExecutor:
    executor = _EXECUTORS.get(workers)
    if executor is None:
        executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernels"
        )
        _EXECUTORS[workers] = executor
    return executor


def shutdown_executors() -> None:
    """Shut down every process-global kernel thread pool (atexit hook)."""
    for executor in _EXECUTORS.values():
        executor.shutdown(wait=False, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown_executors)


class ThreadBackend(ExecutionBackend):
    """Run per-GPU kernel tasks on a shared thread pool (see module docstring).

    Parameters
    ----------
    graph:
        The partitioned graph whose plans this backend executes.
    workers:
        Pool width; defaults to ``min(num_gpus, cpu_count, MAX_WORKERS)``.
    """

    name = "thread"
    dispatches = True

    def __init__(self, graph, workers: int | None = None) -> None:
        super().__init__(graph)
        if workers is None:
            cpu = os.cpu_count() or 1
            workers = max(1, min(graph.num_gpus or 1, cpu, MAX_WORKERS))
        self.workers = int(workers)
        self._executor = _get_executor(self.workers)

    def _dispatch(self, plan: SuperStepPlan, work: list) -> list:
        futures = [
            self._executor.submit(
                execute_gpu_plan,
                gp,
                self._resolve_csr,
                plan.dense_delegate,
                False,
                plan.collect_spans,
            )
            for gp in work
        ]
        return [(gp.gpu, future.result()) for gp, future in zip(work, futures)]

    def close(self) -> None:
        """No-op: the thread pool is process-global and shared (see module docstring)."""
