"""The execution-backend protocol, the inline backend and the registry.

An :class:`ExecutionBackend` decides one thing for one partitioned graph:
where a whole run executes.  The contract is deliberately small:

``run(engine, jobs, overlay=None)``
    Run every job — a ``(program, init)`` pair: a sequential, batched or
    driver program and its optional pre-seeded state — over ``engine``'s
    graph, options and hardware, plus the ``overlay`` edges of a mutable
    graph, and yield the results in job order.
``close()``
    Release whatever the backend holds (shared memory); idempotent.
    Backends are context managers.

A run's super-steps, kernels included, always execute on one engine in one
process (:meth:`~repro.core.engine.TraversalEngine.execute`), so results,
counters and modeled times cannot depend on the backend.

Backends are addressed by name.  :data:`BACKEND_NAMES` lists the shipped
ones; :func:`resolve_backend` turns a name resolved by
:class:`~repro.exec.config.ExecConfig` (which also reads the
``REPRO_BACKEND`` default) or a live instance into a backend for a graph.
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.exec.config import BACKEND_NAMES

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "resolve_backend",
]


class ExecutionBackend(abc.ABC):
    """Decides where the runs over one graph execute; see the module docstring."""

    #: Registry name of this backend (recorded in results and artifacts).
    name: str = "?"

    def __init__(self, graph) -> None:
        self.graph = graph

    @abc.abstractmethod
    def run(self, engine, jobs: list, overlay=None) -> Iterator:
        """Yield the result of every ``(program, init)`` job, in job order."""

    def close(self) -> None:
        """Release backend resources (idempotent; default: nothing held)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Run every job in the calling process, one after another, on the
    calling engine: no setup cost, no IPC — the backend of choice for small
    graphs, tests and anything latency-sensitive."""

    name = "inline"

    def run(self, engine, jobs: list, overlay=None) -> Iterator:
        for program, init in jobs:
            yield engine.execute(program, init, overlay)


def resolve_backend(spec, graph) -> tuple:
    """Turn a backend request into ``(backend, engine_owns_it)``.

    Parameters
    ----------
    spec:
        A registry name of :data:`BACKEND_NAMES`, or a live
        :class:`ExecutionBackend` instance (shared — e.g. one process pool
        serving several engines over the same graph).
    graph:
        The partitioned graph the backend will run traversals of.

    Returns
    -------
    (ExecutionBackend, bool)
        The backend plus whether the caller created (and therefore owns and
        must eventually close) it; passed-in instances stay caller-owned.
    """
    if isinstance(spec, ExecutionBackend):
        return spec, False
    if spec == "inline":
        return InlineBackend(graph), True
    if spec == "process":
        from repro.exec.process import ProcessBackend

        return ProcessBackend(graph), True
    raise ValueError(
        f"unknown execution backend {spec!r}; expected one of {BACKEND_NAMES} "
        "or an ExecutionBackend instance"
    )
