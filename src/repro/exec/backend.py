"""The execution-backend protocol, the inline backend and the registry.

An :class:`ExecutionBackend` runs :class:`~repro.exec.plan.SuperStepPlan`s
for one partitioned graph.  The contract is deliberately small:

``run_super_step(plan)``
    Execute the plan's per-GPU kernel tasks *somehow* (that is the whole
    point of the abstraction), account the elapsed seconds under
    ``plan.wall["kernels"]`` and hand the outputs — one ``{kernel: output}``
    dictionary per GPU of the graph, in GPU order, holding only the kernels
    the plan listed (none for a GPU it did not mention) — to
    ``plan.finalize``, returning its
    :class:`~repro.core.results.IterationRecord`.
``close()``
    Release whatever the backend holds (worker pools, shared memory);
    idempotent.  Backends are context managers.

Backends are addressed by name.  :data:`BACKEND_NAMES` lists the shipped
ones; :func:`resolve_backend` turns a name resolved by
:class:`~repro.exec.config.ExecConfig` (which also reads the
``REPRO_BACKEND`` default) or a live instance into a backend for a graph.
"""

from __future__ import annotations

import abc

from repro.exec.config import BACKEND_NAMES
from repro.exec.plan import SuperStepPlan, execute_gpu_plan, worker_spans
from repro.obs.tracer import get_tracer
from repro.utils.timing import now_s

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "resolve_backend",
]

#: A plan with fewer queue + candidate rows than this runs in the coordinator
#: even under a backend that dispatches (thread, process).
#:
#: Shipping a step costs a fixed amount whatever it holds; running it in place
#: costs by the kernel and by the row.  Measured on the reference 2-vCPU host
#: (rmat14 ``2x1x2`` and rmat16 ``2x2x2``, every step of three roots timed all
#: three ways, two sessions; tables in ``benchmarks/results/pr19/README.md``):
#: in place a step of <= 5 rows takes 20-150 us, one of 235-299 rows
#: 410-660 us, and from a few thousand rows on 0.2-0.4 us per row; a dispatch
#: adds 30-350 us on the thread pool and, on the process pool, 0.4-0.8 ms
#: when one or two GPUs have work and 1.1-2.7 ms when four to eight do.  A
#: pool of ``W`` workers can win back at most ``1 - 1/W`` of the in-place
#: time: at 256 rows and ``W = 2`` that is 200-330 us, what a thread dispatch
#: costs — the thread pool's break-even; the process pool first tied the
#: in-place time near 90,000 rows.  The cutoff is the lower of the two: below
#: it no backend can win the step back, and a long-tail traversal (thousands
#: of steps of one or two rows) would spend its whole wall in dispatch.
#: Kernels are pure functions of their spec, so where a step runs changes no
#: output, counter or modeled time.
SMALL_PLAN_ROWS = 256


class ExecutionBackend(abc.ABC):
    """Runs the super-step plans of one graph; see the module docstring.

    The base class can run any plan where it stands (that is all
    :class:`InlineBackend` does); a backend with somewhere else to run
    kernels sets :attr:`dispatches` and implements :meth:`_dispatch`.
    """

    #: Registry name of this backend (recorded in results and artifacts).
    name: str = "?"
    #: Whether :meth:`_dispatch` ships GPU plans out of the calling thread.
    dispatches: bool = False

    def __init__(self, graph) -> None:
        self.graph = graph
        #: Super-steps whose kernels ran in the coordinator / were dispatched.
        self.local_steps = 0
        self.dispatched_steps = 0

    def run_super_step(self, plan: SuperStepPlan):
        """Execute one plan: kernels (timed), then the serial finalize.

        Only GPU plans that hold a visit are executed, and a plan too small
        to amortise a dispatch (:data:`SMALL_PLAN_ROWS`) runs right here
        whatever the backend.  With tracing enabled the kernel stage is
        wrapped in an ``exec`` span, the plan is asked to collect per-kernel
        worker timings, and those ride back under each GPU's reserved
        ``"_spans"`` output key — drained here (per-GPU tracks,
        ``tid = gpu + 1``) before the fold ever sees the outputs.  Wall
        accounting is identical either way.
        """
        tracer = get_tracer()
        plan.collect_spans = tracer.enabled
        work = [gp for gp in plan.gpu_plans if gp.visits]
        dispatched = self.dispatches and (
            sum(
                len(spec.candidates if spec.backward else spec.queue)
                for gp in work
                for spec in gp.visits
            )
            >= SMALL_PLAN_ROWS
        )
        started = now_s()
        outputs: list = [{} for _ in self.graph.gpus]
        for gpu, outs in self._dispatch(plan, work) if dispatched else self._run_here(plan, work):
            outputs[gpu] = outs
        ended = now_s()
        plan.wall["kernels"] += ended - started
        if dispatched:
            self.dispatched_steps += 1
        else:
            self.local_steps += 1
        if tracer.enabled:
            tracer.record_span(
                "kernels", cat="exec", start=started, dur=ended - started,
                args={
                    "level": plan.level, "backend": self.name,
                    "dispatched": dispatched, "gpus": len(work),
                },
            )
            self._drain_worker_spans(tracer, outputs, started, ended)
        return plan.finalize(outputs)

    def _drain_worker_spans(self, tracer, outputs: list, started: float, ended: float) -> None:
        """Replay each GPU's collected kernel timings into the tracer.

        Worker timestamps are relative to the worker's own clock ``base``.
        In-process executions (inline/thread) share the coordinator's clock,
        so ``base`` is used directly; a process-pool worker's clock may not
        be comparable (``perf_counter`` is only guaranteed per-process), so
        any ``base`` outside the kernel-stage window is rebased onto the
        stage start — spans then still nest under the ``kernels`` span even
        on platforms with per-process clocks.
        """
        append = tracer.events.append
        for gpu, outs in enumerate(outputs):
            collected = worker_spans(outs)
            if not collected:
                continue
            base = collected["base"]
            if not started <= base <= ended:
                base = started
            tid = gpu + 1
            # Hot path: wall-heavy traces replay hundreds of thousands of
            # worker tuples, so events are appended pre-normalized (the
            # documented ``Tracer.events`` shape) instead of going through
            # ``record_span``.  The GPU is encoded by the track (tid - 1).
            for cat, name, rel_start, dur in collected["spans"]:
                append({
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": (base + rel_start) * 1e6,
                    "dur": dur * 1e6 if dur > 0.0 else 0.0,
                    "pid": 0,
                    "tid": tid,
                })

    def _resolve_csr(self, gpu: int, name: str):
        return getattr(self.graph.gpus[gpu], name)

    def _run_here(self, plan: SuperStepPlan, work: list) -> list:
        """Run the GPU plans of ``work`` in the calling thread, one after
        another, over the in-process CSRs; ``(gpu, outputs)`` pairs."""
        return [
            (
                gp.gpu,
                execute_gpu_plan(
                    gp, self._resolve_csr, plan.dense_delegate,
                    collect_spans=plan.collect_spans,
                ),
            )
            for gp in work
        ]

    def _dispatch(self, plan: SuperStepPlan, work: list) -> list:
        """Run the GPU plans of ``work`` wherever this backend runs kernels;
        ``(gpu, outputs)`` pairs in any order."""
        raise NotImplementedError(f"{type(self).__name__} does not dispatch")

    def close(self) -> None:
        """Release backend resources (idempotent; default: nothing held)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class InlineBackend(ExecutionBackend):
    """Run every kernel task in the calling process, one GPU after another.

    This is the classic simulator behaviour: results, workload counters and
    modeled times are bit-identical to the historical in-engine loop, and
    there is no setup cost — the backend of choice for small graphs, tests
    and anything latency-sensitive enough that a process pool's IPC would
    dominate.
    """

    name = "inline"


def resolve_backend(spec, graph) -> tuple:
    """Turn a backend request into ``(backend, engine_owns_it)``.

    Parameters
    ----------
    spec:
        A registry name of :data:`BACKEND_NAMES`, or a live
        :class:`ExecutionBackend` instance (shared — e.g. one process pool
        serving several engines over the same graph).
    graph:
        The partitioned graph the backend will execute plans for.

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
    if spec == "thread":
        from repro.exec.thread import ThreadBackend

        return ThreadBackend(graph), True
    raise ValueError(
        f"unknown execution backend {spec!r}; expected one of {BACKEND_NAMES} "
        "or an ExecutionBackend instance"
    )
