"""Pluggable execution backends for the traversal engine.

The engine (:mod:`repro.core.engine`) describes each level-synchronous
super-step as a declarative :class:`~repro.exec.plan.SuperStepPlan` — the
per-GPU visit-kernel tasks, then the (vertex, payload) exchange and the
delegate reduction folded behind the plan's ``finalize`` hook — and an
:class:`~repro.exec.backend.ExecutionBackend` decides *where* it runs:

* :class:`~repro.exec.backend.InlineBackend` executes every kernel task in
  the calling process, reproducing the classic single-process simulator
  bit for bit (same results, same workload counters, same modeled times);
* :class:`~repro.exec.process.ProcessBackend` executes the per-GPU kernel
  tasks in a persistent :mod:`multiprocessing` worker pool over
  shared-memory CSR and frontier-bitmask buffers;
* :class:`~repro.exec.thread.ThreadBackend` executes them on a shared
  thread pool over the coordinator's own arrays — zero IPC, zero pickling.

Every task runs the one set of visit kernels, :mod:`repro.core.kernels`,
through :func:`~repro.exec.plan.execute_gpu_plan`, which also decodes the
rows a visit reads from compressed storage.  Modeled times and workload
counters are backend- and storage-independent by construction (the kernels
are pure functions of their inputs and all folding happens on the
coordinating process); only the measured ``wall_s`` phases depend on
either.

Backends are selected by name — ``TraversalEngine(graph, backend="thread")``,
``Session.backend("process")``, the ``--backend`` CLI flag;
:class:`~repro.exec.config.ExecConfig` resolves the backend, the kernels
name, the storage mode and the trace path from arguments, ``REPRO_*``
environment variables and defaults, in one place.
"""

from repro.exec.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    InlineBackend,
    resolve_backend,
)
from repro.exec.config import PROVIDER_NAMES, ExecConfig
from repro.exec.plan import GPUPlan, SuperStepPlan, VisitSpec, execute_gpu_plan

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
    "resolve_backend",
    "ExecConfig",
    "PROVIDER_NAMES",
    "numba_available",
    "SuperStepPlan",
    "GPUPlan",
    "VisitSpec",
    "execute_gpu_plan",
]


def numba_available() -> bool:
    """Whether the JIT compiler package is importable: a host fact for
    benchmark records; no kernel uses it."""
    from importlib.util import find_spec

    return find_spec("numba") is not None


def __getattr__(name):
    # ProcessBackend pulls in multiprocessing + shared_memory machinery and
    # ThreadBackend a thread pool; import them lazily so inline-only users
    # never pay for either.
    if name == "ProcessBackend":
        from repro.exec.process import ProcessBackend

        return ProcessBackend
    if name == "ThreadBackend":
        from repro.exec.thread import ThreadBackend

        return ThreadBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
