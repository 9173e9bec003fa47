"""Pluggable execution backends for the traversal engine.

An :class:`~repro.exec.backend.ExecutionBackend` decides one thing: where a
whole run executes.  The engine (:mod:`repro.core.engine`) hands it runs —
a program, its optional pre-seeded state, the overlay of a mutable graph —
and every run ends in :meth:`~repro.core.engine.TraversalEngine.execute` on
one inline engine in one process:

* :class:`~repro.exec.backend.InlineBackend` executes each run in the
  calling process, on the calling engine;
* :class:`~repro.exec.process.ProcessBackend` deals runs over a persistent
  :mod:`multiprocessing` worker pool; each worker rebuilds the graph from a
  shared-memory export (or the graph's store file) once and runs the
  program on an inline engine of its own.  Results come back in job order.

Inside a run nothing here takes part: each super-step's walk
(:mod:`repro.core.engine`) runs the one set of visit kernels,
:mod:`repro.core.kernels`, where it decides them, through
:func:`repro.core.frontier.run_visit`, which also decodes the rows a visit
reads from compressed storage.  Modeled times and workload counters are
backend- and storage-independent by construction (a run executes the same
code over the same arrays wherever it runs); only the measured ``wall_s``
phases depend on either.

Backends are selected by name — ``TraversalEngine(graph, backend="process")``,
``Session.backend("process")``, the ``--backend`` CLI flag;
:class:`~repro.exec.config.ExecConfig` resolves the backend, the storage
mode and the trace path from arguments, ``REPRO_*`` environment variables
and defaults, in one place.
"""

from repro.exec.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    InlineBackend,
    resolve_backend,
)
from repro.exec.config import ExecConfig

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "resolve_backend",
    "ExecConfig",
    "numba_available",
]


def numba_available() -> bool:
    """Whether the JIT compiler package is importable: a host fact for
    benchmark records; no kernel uses it."""
    from importlib.util import find_spec

    return find_spec("numba") is not None


def __getattr__(name):
    # ProcessBackend pulls in multiprocessing + shared-memory machinery;
    # import it lazily so inline-only users never pay for it.
    if name == "ProcessBackend":
        from repro.exec.process import ProcessBackend

        return ProcessBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
