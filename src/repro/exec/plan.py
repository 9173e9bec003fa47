"""Declarative super-step plans: what a backend runs, as pure data.

One level-synchronous super-step of the engine decomposes into three stages
(paper §IV/§V): per-GPU visit kernels, the normal-vertex exchange and the
delegate reduction.  The kernel stage is embarrassingly parallel across the
virtual GPUs and is therefore described *declaratively* — a
:class:`GPUPlan` per GPU holding picklable :class:`VisitSpec` tasks (which
subgraph CSR to traverse, in which direction, over which queue or candidate
set) — so an execution backend can ship it anywhere: run it inline, fan it
out over a process pool, or (in principle) dispatch it to real devices.

A plan lists work, not emptiness.  The engine emits a :class:`VisitSpec`
only for a kernel that pulls or whose frontier has an edge to push along, and a
:class:`GPUPlan` only for a GPU with such a kernel; a kernel the plan does
not list is an idle forward kernel, produces no output, and is charged its
launch overhead by the engine's fold.  Backends execute only the GPU plans
that hold a visit.

There is one plan vocabulary for every frontier representation.  A frontier
is either one bit per vertex (sequential programs) or one lane word row per
vertex (batched MS-BFS programs); the difference shows up here only as data:
a :class:`VisitSpec` carrying ``words`` runs the lane-word kernels, and the
dense frontier buffers a backward pull tests parents against
(:attr:`SuperStepPlan.dense_delegate`, :attr:`GPUPlan.dense_local`) are
``bool`` flags in one case and ``uint64`` lane words in the other.
:func:`execute_gpu_plan` picks the kernel from the spec's own fields, so no
backend ever asks which kind of plan it holds.

A plan is the parallel half of a step only.  The exchange and the reduction
are global barriers over the kernel outputs and involve the program's fold
hooks (``visit_value`` / ``accept`` / ``merge_remote``), so they stay with
the engine: a backend returns the per-GPU outputs, and the engine folds them,
routes the exchange through the :class:`Communicator`, performs the delegate
reduction and accounts the step's
:class:`~repro.core.results.IterationRecord`.

Because the visit kernels (:mod:`repro.core.kernels`) are pure functions of
their spec (and the shared dense frontier buffers), every backend produces
bit-identical outputs; and since all folding runs on the coordinating
process, results, workload counters and modeled times are
backend-independent by construction.  :func:`execute_gpu_plan` is also the
one place a task's CSR is resolved, so it is where compressed storage
decodes the rows a visit reads: storage, too, changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import kernels
from repro.graph.csr import CSRGraph
from repro.utils.timing import now_s

__all__ = [
    "VisitSpec",
    "GPUPlan",
    "SuperStepPlan",
    "execute_gpu_plan",
    "worker_spans",
]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


@dataclass
class VisitSpec:
    """One visit-kernel task (picklable pure data).

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
    keep_sources:
        Whether the fold will read the kernel's ``sources`` array (only
        programs carrying per-discovery payloads do).  Remote backends may
        drop the sources of tasks that do not need them before shipping
        outputs back — the fold never reads what it did not ask for.
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
    keep_sources: bool = True
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
    """The kernel stage of one super-step, ready for an execution backend.

    ``gpu_plans`` is pure data, one entry per GPU that has a kernel to run (a
    GPU may be missing or hold no visit); a backend's
    :meth:`~repro.exec.backend.ExecutionBackend.run_kernels` returns one
    output dictionary per GPU of the graph (kernel name → output for the
    kernels the plan listed, in GPU order).
    """

    level: int
    gpu_plans: list
    #: Replicated dense delegate frontier: ``bool`` flags of size ``d``, or
    #: ``(d, nwords)`` ``uint64`` lane words on lane-word plans.
    dense_delegate: np.ndarray
    #: When ``True`` (set by the backend iff tracing is enabled) every
    #: per-GPU execution records its kernel timings under the reserved
    #: ``"_spans"`` output key, which the backend pops and replays into the
    #: tracer before it returns the outputs.  Folding code accesses outputs
    #: strictly by kernel key, so the extra entry is invisible to it.
    collect_spans: bool = False


def execute_gpu_plan(
    gpu_plan: GPUPlan,
    resolve_csr: Callable[[int, str], object],
    dense_delegate: np.ndarray,
    strip_sources: bool = False,
    collect_spans: bool = False,
) -> dict:
    """Run every visit task of one GPU; outputs keyed by kernel.

    ``resolve_csr(gpu, name)`` maps a task's subgraph reference to a CSR —
    the in-process partition for :class:`~repro.exec.backend.InlineBackend`,
    a shared-memory view inside a :class:`~repro.exec.process.ProcessBackend`
    worker.  A CSR that is not a raw :class:`~repro.graph.csr.CSRGraph` is a
    :class:`~repro.storage.codec.CompressedCSR`: exactly the rows the visit
    reads (its queue, or its candidates for a pull) are decoded into a
    masked raw CSR first.  *Which* kernel of :mod:`repro.core.kernels` runs
    follows from the spec's own fields (``backward``, ``words``,
    ``row_values``, ``weighted``).  With ``strip_sources`` the ``sources``
    arrays of tasks that declared ``keep_sources=False`` are dropped (they
    can be as large as the examined edge set, and the fold never reads
    them).  With ``collect_spans`` the per-kernel wall timings — and one
    ``lazy-decode`` timing per decoded visit — ride back under the reserved
    ``"_spans"`` output key (see :func:`worker_spans`); when ``False`` — the
    default, and always when tracing is off — the loop performs no timing
    work at all.
    """
    outputs: dict = {}
    spans = [] if collect_spans else None
    base = now_s() if collect_spans else 0.0
    for spec in gpu_plan.visits:
        started = now_s() if collect_spans else 0.0
        csr = resolve_csr(gpu_plan.gpu, spec.csr)
        if not isinstance(csr, CSRGraph):
            csr = csr.decode_rows(spec.candidates if spec.backward else spec.queue)
            if collect_spans:
                spans.append(("storage", "lazy-decode", started - base, now_s() - started))
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
        if strip_sources and not spec.keep_sources:
            out.sources = _EMPTY_I64
        outputs[spec.kernel] = out
        if collect_spans:
            ended = now_s()
            kind = "pull" if spec.backward else "push"
            spans.append(("worker", f"{spec.kernel}:{kind}", started - base, ended - started))
    if collect_spans:
        outputs["_spans"] = {"base": base, "spans": spans}
    return outputs


def worker_spans(outputs: dict) -> dict | None:
    """Pop the reserved ``"_spans"`` entry from one GPU's kernel outputs.

    Returns ``{"base": <worker clock at loop start>, "spans": [(cat, name,
    rel_start_s, dur_s), ...]}`` or ``None`` when the execution did not
    collect spans.  Backends call this before returning the outputs, so the
    fold never sees the reserved key.
    """
    return outputs.pop("_spans", None)
