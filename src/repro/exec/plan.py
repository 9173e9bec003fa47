"""Declarative super-step plans: the kernel stage of a step, as pure data.

One level-synchronous super-step of the engine decomposes into three stages
(paper §IV/§V): per-GPU visit kernels, the normal-vertex exchange and the
delegate reduction.  The kernel stage is described *declaratively* — a
:class:`GPUPlan` per GPU holding :class:`VisitSpec` tasks (which subgraph
CSR to traverse, in which direction, over which queue or candidate set) —
and :func:`execute_plan` runs it, in the engine's own process, whatever the
execution backend: a backend decides where a whole run executes, and a run
executes its kernels where it runs.

A plan lists work, not emptiness.  The engine emits a :class:`VisitSpec`
only for a kernel that pulls or whose frontier has an edge to push along, and a
:class:`GPUPlan` only for a GPU with such a kernel; a kernel the plan does
not list is an idle forward kernel, produces no output, and is charged its
launch overhead by the engine's fold.  Only the GPU plans that hold a visit
are executed.

There is one plan vocabulary for every frontier representation.  A frontier
is either one bit per vertex (sequential programs) or one lane word row per
vertex (batched MS-BFS programs); the difference shows up here only as data:
a :class:`VisitSpec` carrying ``words`` runs the lane-word kernels, and the
dense frontier buffers a backward pull tests parents against
(:attr:`SuperStepPlan.dense_delegate`, :attr:`GPUPlan.dense_local`) are
``bool`` flags in one case and ``uint64`` lane words in the other.
:func:`execute_gpu_plan` picks the kernel from the spec's own fields, so no
caller ever asks which kind of plan it holds.

A plan is the kernel half of a step only.  The exchange and the reduction
are global barriers over the kernel outputs and involve the program's fold
hooks (``visit_value`` / ``accept`` / ``merge_remote``), so the engine folds
the per-GPU outputs, routes the exchange through the :class:`Communicator`,
performs the delegate reduction and accounts the step's
:class:`~repro.core.results.IterationRecord`.

The visit kernels (:mod:`repro.core.kernels`) are pure functions of their
spec (and the dense frontier buffers).  :func:`execute_gpu_plan` is also the
one place a task's CSR is resolved, so it is where compressed storage
decodes the rows a visit reads: storage changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.utils.timing import now_s

__all__ = [
    "VisitSpec",
    "GPUPlan",
    "SuperStepPlan",
    "execute_plan",
    "execute_gpu_plan",
]


@dataclass
class VisitSpec:
    """One visit-kernel task (pure data).

    Attributes
    ----------
    kernel:
        Logical kernel this task implements: ``"nn"``, ``"nd"``, ``"dn"``
        or ``"dd"`` — the key its output is folded under.
    csr:
        Which of the GPU's four stored subgraphs to traverse.  This is not
        always :attr:`kernel`: a backward nd pull scans the reverse edges,
        which live in the ``dn`` CSR (and vice versa).
    backward:
        ``True`` = backward-pull, ``False`` = forward-push.
    queue:
        Forward tasks: the pre-filtered frontier rows to expand.  Built only
        for a kernel that pushes: the plan walk takes its direction decisions
        on degree sums, so a kernel that pulls (or idles) never has one.
    candidates:
        Backward tasks: the unvisited rows that pull.
    parents:
        Backward tasks: which dense frontier buffer the pull tests parents
        against — ``"normal"`` (this GPU's local-slot buffer,
        :attr:`GPUPlan.dense_local`) or ``"delegate"`` (the replicated
        delegate buffer shared by every GPU,
        :attr:`SuperStepPlan.dense_delegate`).
    words:
        Lane-word (batched) tasks: ``uint64`` lane words parallel to
        ``queue`` (forward: the lanes each frontier row carries) or to
        ``candidates`` (backward: the lanes each candidate still wants).
        When set, the task runs the batched kernels, whose pulls collect the
        full parent lists instead of exiting at the first hit.
    weighted:
        Forward tasks: gather the traversed edges' weights alongside the
        destinations (SSSP-style relaxation; requires the subgraph to carry
        ``edge_weights``).
    row_values:
        Contribution tasks (PageRank): one ``int64`` value per ``queue``
        entry to push along the row's out-edges.  When set, the task runs
        :func:`~repro.core.kernels.contrib_visit` instead of a plain forward
        visit.
    """

    kernel: str
    csr: str
    backward: bool
    queue: np.ndarray | None = None
    candidates: np.ndarray | None = None
    parents: str | None = None
    words: np.ndarray | None = None
    weighted: bool = False
    row_values: np.ndarray | None = None


@dataclass
class GPUPlan:
    """All visit-kernel tasks of one GPU for one super-step."""

    gpu: int
    visits: list = field(default_factory=list)
    #: Dense frontier over this GPU's local slots (``bool`` flags or
    #: ``(num_local, nwords)`` lane words); present exactly when some task
    #: pulls with ``parents="normal"``.
    dense_local: np.ndarray | None = None


@dataclass
class SuperStepPlan:
    """The kernel stage of one super-step, ready for :func:`execute_plan`.

    ``gpu_plans`` is pure data, one entry per GPU that has a kernel to run (a
    GPU may be missing or hold no visit); :func:`execute_plan` returns one
    output dictionary per GPU of the graph (kernel name → output for the
    kernels the plan listed, in GPU order).
    """

    level: int
    gpu_plans: list
    #: Replicated dense delegate frontier: ``bool`` flags of size ``d``, or
    #: ``(d, nwords)`` ``uint64`` lane words on lane-word plans.
    dense_delegate: np.ndarray


def execute_plan(plan: SuperStepPlan, gpus: list) -> list:
    """Run a plan's kernel stage in the calling process; one output dict per GPU.

    ``gpus`` are the graph's partitions, whose CSRs the tasks name.  The GPU
    plans that hold a visit run one after another, in plan order; a GPU the
    plan does not mention gets an empty dict.  With tracing enabled the
    stage records one ``exec/kernels`` span and every kernel its own span on
    its GPU's track (see :func:`execute_gpu_plan`).
    """
    outputs: list = [{} for _ in gpus]
    tracer = get_tracer()
    traced = tracer if tracer.enabled else None
    started = now_s() if traced is not None else 0.0
    ran = 0
    for gpu_plan in plan.gpu_plans:
        if gpu_plan.visits:
            outputs[gpu_plan.gpu] = execute_gpu_plan(gpu_plan, gpus, plan.dense_delegate, traced)
            ran += 1
    if traced is not None:
        tracer.record_span(
            "kernels", cat="exec", start=started, dur=now_s() - started,
            args={"level": plan.level, "gpus": ran},
        )
    return outputs


def execute_gpu_plan(
    gpu_plan: GPUPlan, gpus: list, dense_delegate: np.ndarray, tracer=None
) -> dict:
    """Run every visit task of one GPU; outputs keyed by kernel.

    A task names one of the GPU's subgraphs in ``gpus[gpu_plan.gpu]``.  A CSR
    that is not a raw :class:`~repro.graph.csr.CSRGraph` is a
    :class:`~repro.storage.codec.CompressedCSR`: exactly the rows the visit
    reads (its queue, or its candidates for a pull) are decoded into a
    masked raw CSR first.  *Which* kernel of :mod:`repro.core.kernels` runs
    follows from the spec's own fields (``backward``, ``words``,
    ``row_values``, ``weighted``).  Given an enabled ``tracer``, every kernel
    records a ``worker`` span and every decoded visit a
    ``storage/lazy-decode`` span, on track ``tid = gpu + 1``; without one —
    always when tracing is off — the loop reads no clock.
    """
    outputs: dict = {}
    part = gpus[gpu_plan.gpu]
    tid = gpu_plan.gpu + 1
    for spec in gpu_plan.visits:
        started = now_s() if tracer is not None else 0.0
        csr = getattr(part, spec.csr)
        if not isinstance(csr, CSRGraph):
            csr = csr.decode_rows(spec.candidates if spec.backward else spec.queue)
            if tracer is not None:
                tracer.record_span(
                    "lazy-decode", cat="storage", start=started, dur=now_s() - started, tid=tid
                )
        if spec.backward:
            dense = gpu_plan.dense_local if spec.parents == "normal" else dense_delegate
            if spec.words is not None:
                out = kernels.batched_backward_visit(csr, spec.candidates, dense, spec.words)
            else:
                out = kernels.backward_visit(csr, spec.candidates, dense)
        elif spec.words is not None:
            out = kernels.batched_forward_visit(csr, spec.queue, spec.words)
        elif spec.row_values is not None:
            out = kernels.contrib_visit(csr, spec.queue, spec.row_values)
        elif spec.weighted:
            out = kernels.weighted_forward_visit(csr, spec.queue)
        else:
            out = kernels.forward_visit(csr, spec.queue)
        outputs[spec.kernel] = out
        if tracer is not None:
            kind = "pull" if spec.backward else "push"
            tracer.record_span(
                f"{spec.kernel}:{kind}", cat="worker", start=started, dur=now_s() - started,
                tid=tid,
            )
    return outputs
