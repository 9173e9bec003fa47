"""Pluggable execution backends and kernel providers for the traversal engine.

The engine (:mod:`repro.core.engine`) describes each level-synchronous
super-step as a declarative :class:`~repro.exec.plan.SuperStepPlan` — the
per-GPU visit-kernel tasks, then the (vertex, payload) exchange and the
delegate reduction folded behind the plan's ``finalize`` hook — and two
orthogonal axes decide how it runs:

**Where** — an :class:`~repro.exec.backend.ExecutionBackend`:

* :class:`~repro.exec.backend.InlineBackend` executes every kernel task in
  the calling process, reproducing the classic single-process simulator
  bit for bit (same results, same workload counters, same modeled times);
* :class:`~repro.exec.process.ProcessBackend` executes the per-GPU kernel
  tasks in a persistent :mod:`multiprocessing` worker pool over
  shared-memory CSR and frontier-bitmask buffers;
* :class:`~repro.exec.thread.ThreadBackend` executes them on a shared
  thread pool over the coordinator's own arrays — zero IPC, zero pickling;
  it scales on multi-core hosts when paired with a GIL-releasing provider.

**How** — a :class:`~repro.exec.providers.KernelProvider`:

* :class:`~repro.exec.providers.NumpyProvider` is the vectorized NumPy
  kernel suite (the historical code path, zero dependencies);
* :class:`~repro.exec.providers.NumbaProvider` is its Numba-compiled twin
  (``nopython, nogil, cache=True``), falling back to NumPy with a warning
  on hosts without Numba.

Modeled times and workload counters are backend- **and** provider-
independent by construction (the kernels are pure functions of their inputs
and all folding happens on the coordinating process); only the measured
``wall_s`` phases depend on either axis.

Backends are selected by name — ``TraversalEngine(graph, backend="thread")``,
``Session.backend("process")``, the ``--backend`` CLI flag — and providers
likewise via ``kernels="numba"`` / ``Session.kernels(...)`` / ``--kernels``;
:class:`~repro.exec.config.ExecConfig` resolves both (with the storage mode
and the trace path) from arguments, ``REPRO_*`` environment variables and
defaults, in one place.
"""

from repro.exec.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    InlineBackend,
    resolve_backend,
)
from repro.exec.config import ExecConfig
from repro.exec.plan import GPUPlan, SuperStepPlan, VisitSpec, execute_gpu_plan
from repro.exec.providers import (
    PROVIDER_NAMES,
    KernelProvider,
    NumbaProvider,
    NumpyProvider,
    get_provider,
    numba_available,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
    "resolve_backend",
    "ExecConfig",
    "PROVIDER_NAMES",
    "KernelProvider",
    "NumpyProvider",
    "NumbaProvider",
    "numba_available",
    "get_provider",
    "SuperStepPlan",
    "GPUPlan",
    "VisitSpec",
    "execute_gpu_plan",
]


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
