"""The distributed traversal engine (paper §IV and §V, Figures 3 and 4).

:class:`TraversalEngine` executes level-synchronous super-steps of any
:class:`repro.core.programs.FrontierProgram` over a degree-separated
:class:`repro.partition.PartitionedGraph`:

1. **Local computation** on every virtual GPU (Fig. 3): the forward
   workloads are the input frontiers' degree sums; one visit kernel per
   subgraph then runs in the direction chosen by its own
   direction-optimization state (a previsit filter builds the queue of a
   kernel that pushes) —

   * nn (normal→normal): always forward; its discoveries are *remote* normal
     updates that enter the exchange stage,
   * nd (normal→delegate): forward pushes propose delegate updates, backward
     pulls let unvisited delegates search their local normal parents,
   * dn (delegate→normal): forward pushes mark local normal vertices,
     backward pulls let unvisited local normals search their delegate parents,
   * dd (delegate→delegate): both directions stay within the delegates.

2. **Communication** (Fig. 4): the nn outputs are binned, converted to 32-bit
   local ids and exchanged point-to-point (optionally with local-all2all and
   uniquify, and with an 8-byte value payload when the program needs one);
   delegate updates are reduced in two phases (NVLink within a rank,
   tree-like (I)AllReduce between ranks) whenever any GPU produced an update
   — as 1-bit visited masks for BFS-style programs, or as 64-bit values for
   programs whose vertex state carries a payload.

What a discovered vertex *means* — the value it stores, when an update is
accepted, how duplicate proposals merge — is the program's business; the
engine only moves frontiers, runs kernels and accounts modeled time in the
paper's four phases (computation/communication overlap is modeled with a
configurable efficiency as described in §VI-B).

*Where* the kernels run is a third concern, owned by neither engine nor
program: each super-step is described as a declarative
:class:`repro.exec.SuperStepPlan` (per-GPU kernel tasks as pure data; the
exchange, delegate reduction and program folds behind the plan's
``finalize``) and handed to an :class:`repro.exec.ExecutionBackend` —
``"inline"`` for the classic in-process simulator, ``"process"`` for a
persistent worker pool over shared-memory CSR buffers, ``"thread"`` for a
thread pool over the coordinator's own arrays.  Results, workload counters
and modeled times are backend-independent; only the measured ``wall_s``
phases change.

A super-step costs what its frontier costs.  The plan lists a kernel only
where it pulls or has an edge to push along — an absent output *means*
"idle forward kernel", which the serial half still charges its launch
overhead — directions are decided on counts (degree sums forward, counted
pull sets backward), queues and candidate sets are materialised only for the
kernel that then pushes or pulls, and fold, exchange and reduce touch only
the GPUs and delegates that saw a discovery.

That super-step is written once.  :meth:`TraversalEngine.step_loop` is the
only level loop, :meth:`~TraversalEngine._plan_super_step` the only plan walk
and :meth:`~TraversalEngine._finalize_super_step` the only serial half;
sequential programs, batched (MS-BFS) programs and frontier-scheduling
drivers such as delta-stepping SSSP all run through them.  What differs
between one source and a batch of them — how the frontier is stored, how a
discovery folds into state, which exchange and reduction carry it — sits
behind a frontier representation (:mod:`repro.core.frontier`) chosen from
the state the entry point built.

For mutable graphs (:mod:`repro.dynamic`) the loop accepts two extensions:
a pre-seeded ``init`` replacing the program's ``init_state`` (the
resumable-from-frontier entry point incremental repair starts from) and an
``overlay`` of not-yet-compacted edge insertions, relaxed from each
super-step's input frontier on the coordinator so results stay
backend-invariant.

:class:`DistributedBFS` remains as the seed's entry point: a thin wrapper
running :class:`repro.core.programs.BFSLevels` through the generic engine
with behaviour (answers, iteration counts, modeled timings) identical to the
original hardwired implementation.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.core.direction import DirectionState
from repro.core.frontier import NORMAL_SOURCED, BatchState, frontier_for, global_ids
from repro.core.options import BFSOptions
from repro.core.programs.base import FrontierProgram
from repro.core.programs.batched import BatchedFrontierProgram
from repro.core.programs.table import batched_factory, dedup_key, make_program
from repro.core.results import BatchResult, BFSResult, IterationRecord, TraversalResult
from repro.core.state import TraversalState
from repro.exec.backend import resolve_backend
from repro.exec.config import ExecConfig
from repro.exec.plan import GPUPlan, SuperStepPlan, VisitSpec
from repro.partition.subgraphs import PartitionedGraph
from repro.obs.tracer import get_tracer
from repro.utils.sorting import sorted_unique
from repro.utils.timing import TimingBreakdown, now_s

__all__ = ["TraversalEngine", "DistributedBFS"]

#: Default lane count per batched sweep when ``run_many`` routes through the
#: batched path; wider batches amortize better but grow the lane words.
DEFAULT_BATCH_SIZE = 32

#: The subgraph whose CSR holds each direction-optimised kernel's reverse
#: edges (what its backward pull scans); dd is locally symmetric.
_REVERSE = {"nd": "dn", "dn": "nd", "dd": "dd"}


def _plan_pulls(plan) -> int:
    """How many of a plan's visit tasks run backward (the direction decision).

    Recorded as a ``plan+direction`` span argument when tracing is on: 0
    means an all-forward-push step, higher counts mean direction
    optimization switched subgraph quadrants to backward-pull.
    """
    return sum(
        1 for gp in plan.gpu_plans for spec in gp.visits if spec.backward
    )


class TraversalEngine:
    """Algorithm-agnostic traversal over a degree-separated partitioning.

    Parameters
    ----------
    graph:
        The partitioned graph produced by
        :func:`repro.partition.build_partitions`.
    options:
        Runtime options (direction optimization, exchange optimizations,
        reduction flavour, switching factors).
    hardware:
        Machine parameters for the performance model; defaults to the paper's
        Ray system.
    backend:
        Where super-steps execute: an :class:`repro.exec.ExecutionBackend`
        instance, a registry name (``"inline"`` / ``"process"`` /
        ``"thread"``), or ``None`` to use the ``REPRO_BACKEND`` environment
        default (inline).  Named backends are created lazily on first use and
        owned (closed) by the engine; passed-in instances are shared and stay
        caller-owned.
    kernels:
        The kernels label: ``"numpy"``, ``"auto"`` (both name the one
        implementation, :mod:`repro.core.kernels`) or ``None`` for the
        ``REPRO_KERNELS`` environment default.

    Both are resolved once, here, into :attr:`config` (an
    :class:`repro.exec.ExecConfig`); a bad name raises :class:`ValueError`.

    Examples
    --------
    >>> from repro.core.programs import BFSLevels, ConnectedComponents
    >>> from repro.graph import generate_rmat
    >>> from repro.partition import ClusterLayout, build_partitions
    >>> edges = generate_rmat(10, rng=7)
    >>> layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
    >>> graph = build_partitions(edges, layout, threshold=32)
    >>> engine = TraversalEngine(graph)
    >>> int(engine.run(BFSLevels(source=0)).distances[0])
    0
    >>> engine.run(ConnectedComponents()).num_components >= 1
    True
    """

    def __init__(
        self,
        graph: PartitionedGraph,
        options: BFSOptions | None = None,
        hardware: HardwareSpec | None = None,
        backend=None,
        kernels=None,
    ) -> None:
        self.graph = graph
        self.options = options if options is not None else BFSOptions()
        self.hardware = hardware if hardware is not None else HardwareSpec()
        self.netmodel = NetworkModel(self.hardware)
        self.topology = ClusterTopology(graph.layout)
        #: The resolved run configuration (the backend is used here).
        self.config = ExecConfig.resolve(backend=backend, kernels=kernels)
        self._backend = None
        self._owns_backend = False
        # Which visit kernels run on each GPU, in fold order: without
        # delegates only nn exists, and a GPU owning no normal vertex has no
        # dn destinations.  Planning and folding both walk this list.
        self._kernels = [
            ("nn",)
            if not graph.num_delegates
            else ("nn", "nd", "dn", "dd") if gpu.num_local else ("nn", "nd", "dd")
            for gpu in graph.gpus
        ]
        # Cache per-GPU out-degree arrays of every subgraph; they are needed
        # for the forward workloads and the previsit filter of each
        # super-step and never change.
        self._degrees = [
            {
                "nn": gpu.nn.out_degrees(),
                "nd": gpu.nd.out_degrees(),
                "dn": gpu.dn.out_degrees(),
                "dd": gpu.dd.out_degrees(),
            }
            for gpu in graph.gpus
        ]
        # The degree of every delegate in every (GPU, delegate-sourced
        # kernel): row 2g is GPU g's dn subgraph, row 2g + 1 its dd subgraph.
        # One column gather per super-step sums the forward workload of the
        # replicated delegate frontier for all of them at once (32-bit
        # entries halve what the gather moves; the sums are 64-bit).
        self._delegate_degrees = None
        if graph.num_delegates:
            table = np.stack([deg[kernel] for deg in self._degrees for kernel in ("dn", "dd")])
            if table.max() <= np.iinfo(np.int32).max:
                table = table.astype(np.int32)
            self._delegate_degrees = table

    # ------------------------------------------------------------------ #
    # Execution backend
    # ------------------------------------------------------------------ #
    @property
    def backend(self):
        """The live execution backend (resolved lazily on first use)."""
        if self._backend is None:
            self._backend, self._owns_backend = resolve_backend(
                self.config.backend, self.graph
            )
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the backend in effect, without forcing creation."""
        return self.config.backend_name

    def use_backend(self, backend) -> "TraversalEngine":
        """Switch execution backends (name, instance or ``None`` for default).

        The previously resolved backend is closed if this engine created it;
        shared instances passed in by the caller are left running.  Asking
        for the name of the backend already running is a no-op — tearing a
        process backend down just to re-export the same graph into shared
        memory would be pure churn.
        """
        if backend is not None and backend is self._backend:
            return self
        config = self.config.override(backend=backend)
        if self._backend is None or config.backend != self._backend.name:
            self.close()
        self.config = config
        return self

    def close(self) -> None:
        """Release the engine-owned backend (idempotent; engine stays usable —
        the next run resolves a fresh backend from :attr:`config`)."""
        if self._backend is not None and self._owns_backend:
            self._backend.close()
        self._backend = None
        self._owns_backend = False

    def __enter__(self) -> "TraversalEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self, program: FrontierProgram, init=None, overlay=None
    ) -> TraversalResult:
        """Run ``program`` to completion and return its result.

        Parameters
        ----------
        program:
            The frontier program to execute.
        init:
            Optional pre-seeded :class:`repro.core.programs.ProgramInit`
            replacing ``program.init_state`` — the resumable-from-frontier
            entry point: incremental maintenance seeds the per-vertex values
            with an existing answer and the frontier with only the repair
            seeds, and the super-step loop runs from there instead of from
            scratch.
        overlay:
            Optional :class:`repro.dynamic.OverlayBuffer` of edges not yet
            compacted into the CSR; each super-step additionally relaxes the
            overlay edges leaving that step's input frontier, so traversals
            of a mutable graph see the union graph.
        """
        graph = self.graph

        # Driver programs (delta-stepping SSSP, PageRank, ...) own their outer
        # loop: they orchestrate engine phases themselves and return a
        # complete result.  Everything else runs the standard level loop.
        if hasattr(program, "drive"):
            return program.drive(self, init=init, overlay=overlay)

        if program.needs_weights and not graph.is_weighted:
            raise ValueError(
                f"program {program.name!r} needs edge weights but the graph has "
                "none; build it with weights (e.g. --weights on the generators)"
            )

        if init is None:
            init = program.init_state(graph)
        state = TraversalState.from_init(graph, init)
        base = self.step_loop(program, state, overlay=overlay)
        return program.make_result(state.gather_values(), base)

    def run_many(
        self, programs, batch_size: int | None = None, overlay=None
    ) -> "Campaign":
        """Run several programs and aggregate their results into a Campaign.

        Duplicate programs (same shipped type and parameters) are traversed
        once and fanned back out to every requesting position — the results
        are deterministic, so re-running them is pure waste; the campaign's
        ``saved_traversals`` counter records how many runs the dedup saved.

        With ``batch_size`` set (>= 2) and a homogeneous list of
        :class:`~repro.core.programs.BFSLevels` or
        :class:`~repro.core.programs.KHopReachability` programs, the unique
        sources are routed through the batched MS-BFS path
        (:meth:`run_batch`) in chunks of up to ``batch_size`` lanes.  Each
        position still receives a per-source result with bit-identical
        answers; counters and timing on those results describe the shared
        batched sweeps.

        A batch never has one lane: ``batch_size`` of ``None``/1, a
        single-program list, and the final chunk of an uneven split all run
        through the plain sequential path — a 1-lane sweep would pay the
        lane-word machinery (``BatchBitmask`` state, OR-dedup exchange) for
        zero amortization.  Serve hits this with cold caches.
        """
        from repro.core.campaign import Campaign

        programs = list(programs)
        if batch_size is not None and batch_size < 2:
            batch_size = None
        unique_programs: list = []
        fan: list[int] = []
        index_of: dict[tuple, int] = {}
        for program in programs:
            key = dedup_key(program)
            if key is not None and key in index_of:
                fan.append(index_of[key])
                continue
            idx = len(unique_programs)
            if key is not None:
                index_of[key] = idx
            unique_programs.append(program)
            fan.append(idx)
        saved = len(programs) - len(unique_programs)

        batch_factory = (
            batched_factory(unique_programs)
            if batch_size and len(unique_programs) > 1
            else None
        )
        if batch_factory is not None:
            unique_results: list = []
            sources = [p.source for p in unique_programs]
            for start in range(0, len(sources), batch_size):
                chunk = sources[start:start + batch_size]
                if len(chunk) == 1:
                    unique_results.append(self.run(unique_programs[start], overlay=overlay))
                    continue
                batch = self.run_batch(batch_factory(chunk), overlay=overlay)
                unique_results.extend(batch.per_source_results())
        else:
            unique_results = [self.run(prog, overlay=overlay) for prog in unique_programs]
        return Campaign.from_results(
            [unique_results[i] for i in fan], saved_traversals=saved
        )

    # ------------------------------------------------------------------ #
    # Batched (MS-BFS style) execution
    # ------------------------------------------------------------------ #
    def run_batch(self, program: BatchedFrontierProgram, overlay=None) -> BatchResult:
        """Run one batched program (B sources, one fused sweep) to completion.

        Every lane's answer is bit-identical to the corresponding sequential
        single-source run; the counters and modeled times describe the fused
        sweep.  Direction optimization applies per subgraph exactly as in the
        sequential path, but with the batched backward workload (full parent
        lists — a batched pull has no early exit).  ``overlay`` edges (a
        mutable graph's not-yet-compacted insertions) are relaxed per
        super-step with OR-propagated lane words, mirroring the sequential
        path, so the per-lane equivalence holds on dynamic graphs too.
        """
        graph = self.graph
        program.begin(graph)
        state = BatchState.initialize(graph, program.sources, program.width)
        return program.make_result(self.step_loop(program, state, overlay=overlay))

    # ------------------------------------------------------------------ #
    # The step loop (shared by run, run_batch and driver programs)
    # ------------------------------------------------------------------ #
    def step_loop(self, program, state, overlay=None, select=None, settle=None) -> dict:
        """Run super-steps over ``state`` until its frontier drains.

        The one level loop of the engine: it owns level counting, the
        ``max_levels`` / ``max_iterations`` guards, overlay capture and
        relaxation, backend dispatch, the ``plan+direction`` /
        ``overlay-relax`` / ``super-step`` / ``traversal`` spans, wall-clock
        accounting and the result ``base`` dictionary it returns.
        :meth:`run` and :meth:`run_batch` build a state and call it; driver
        programs that schedule their own frontiers (delta-stepping SSSP)
        call it with two hooks:

        ``select()``
            Called before every step in place of the frontier-empty test:
            install the step's input frontier into ``state`` (sorted and
            duplicate-free, as every frontier of the state is) and return
            ``True``, or return ``False`` to end the run.
        ``settle()``
            Called after every step, once ``state`` holds the step's output
            frontier.

        How frontiers are stored — id arrays over a :class:`TraversalState`
        or lane words over a batched state — is observed from ``state`` and
        handled by the matching :mod:`repro.core.frontier` representation.
        """
        opts = self.options
        graph = self.graph
        p = graph.num_gpus
        rep = frontier_for(graph, opts, program, state)
        communicator = Communicator(self.topology, self.netmodel)
        dir_states = {
            kernel: [DirectionState(factors, enabled=rep.pull_ok) for _ in range(p)]
            for kernel, factors in (
                ("nd", opts.nd_factors),
                ("dn", opts.dn_factors),
                ("dd", opts.dd_factors),
            )
        }

        records: list[IterationRecord] = []
        timing = TimingBreakdown()
        total_edges = 0
        level = 0
        # Wall-clock accounting of the simulation itself (not modeled time):
        # per-phase seconds the bench harness reads off the result.  The
        # backend adds its kernel stage to ``kernels``; ``plan``, ``fold`` and
        # ``overlay`` are the coordinator's own share of a step and are
        # folded into ``kernels`` once the loop ends.
        wall = {
            "kernels": 0.0, "plan": 0.0, "fold": 0.0, "overlay": 0.0,
            "exchange": 0.0, "delegate_reduce": 0.0,
        }
        backend = self.backend
        overlay_live = overlay is not None and not overlay.empty
        tracer = get_tracer()
        run_started = now_s()

        has_work = select if select is not None else (lambda: not rep.frontier_empty())
        while has_work():
            if program.max_levels is not None and level >= program.max_levels:
                break
            level += 1
            if level > opts.max_iterations:
                raise RuntimeError(
                    f"{program.name} exceeded max_iterations={opts.max_iterations}; "
                    "the graph or the engine state is inconsistent"
                )
            rep.level = level
            if overlay_live:
                pre_frontier = rep.capture()
            plan_started = now_s()
            plan = self._plan_super_step(rep, communicator, dir_states, level, wall)
            plan_done = now_s()
            wall["plan"] += plan_done - plan_started
            if tracer.enabled:
                tracer.record_span(
                    "plan+direction", cat="engine", start=plan_started,
                    dur=plan_done - plan_started,
                    args={"level": level, "pulls": _plan_pulls(plan)},
                )
            record = backend.run_super_step(plan)
            if overlay_live:
                relax_started = now_s()
                self._overlay_relax(rep, overlay, pre_frontier, record)
                relax_done = now_s()
                wall["overlay"] += relax_done - relax_started
                if tracer.enabled:
                    tracer.record_span(
                        "overlay-relax", cat="engine", start=relax_started,
                        dur=relax_done - relax_started, args={"level": level},
                    )
            if tracer.enabled:
                tracer.record_span(
                    "super-step", cat="engine", start=plan_started,
                    dur=now_s() - plan_started,
                    args={"level": level, "program": program.name, **rep.span_args},
                )
            if settle is not None:
                settle()
            records.append(record)
            total_edges += record.total_edges_examined()
            timing.add(record)

        wall["kernels"] += wall["plan"] + wall["fold"] + wall["overlay"]
        timing.iterations = len(records)
        wall["traversal"] = now_s() - run_started
        if tracer.enabled:
            tracer.record_span(
                "traversal", cat="engine", start=run_started, dur=wall["traversal"],
                args={"program": program.name, "iterations": len(records), **rep.span_args},
            )
        return {
            "iterations": len(records),
            "records": records,
            "timing": timing,
            "comm_stats": communicator.stats,
            "total_edges_examined": total_edges,
            "num_directed_edges": graph.num_directed_edges,
            "wall_s": wall,
        }

    # ------------------------------------------------------------------ #
    # Overlay relaxation (mutable graphs)
    # ------------------------------------------------------------------ #
    def _overlay_relax(self, rep, overlay, segments: list, record: IterationRecord) -> None:
        """Relax the overlay edges leaving this step's input frontier.

        Runs on the coordinator after the planned kernels finish (so it is
        backend-invariant): the captured frontier ``segments`` push their
        payload (program values, or lane words OR-propagated per lane)
        across the overlay, the representation turns that into one proposal
        per target exactly like a kernel discovery would, fresh vertices
        merge into the next frontier, and the examined overlay edges are
        charged to the step's counters and modeled computation (unoverlapped
        — the overlay is a serial side-structure).
        """
        graph = self.graph
        if not segments:
            return
        targets, proposals, edges = rep.overlay_propose(
            overlay,
            np.concatenate([global_ids(graph, g, rows) for g, rows, _ in segments]),
            np.concatenate([rep.overlay_payload(*segment) for segment in segments]),
        )
        if edges == 0:
            return
        record.edges_examined["overlay"] = record.edges_examined.get("overlay", 0) + edges
        extra = self.netmodel.traversal_time(edges, backward=False)
        record.computation_s += extra
        record.elapsed_s += extra

        delegate_ids = graph.delegate_id_of_vertex(targets)
        is_delegate = delegate_ids >= 0
        if is_delegate.any():
            record.discovered += rep.merge_proposals(
                None, delegate_ids[is_delegate], proposals[is_delegate]
            )
        n_targets, n_proposals = targets[~is_delegate], proposals[~is_delegate]
        if n_targets.size:
            owners = graph.layout.flat_gpu_of(n_targets)
            slots = graph.layout.local_index_of(n_targets)
            for g in sorted_unique(owners):
                mask = owners == g
                record.discovered += rep.merge_proposals(
                    int(g), slots[mask], n_proposals[mask]
                )

    # ------------------------------------------------------------------ #
    # One super-step
    # ------------------------------------------------------------------ #
    def _plan_super_step(
        self,
        rep,
        communicator: Communicator,
        dir_states: dict[str, list[DirectionState]],
        level: int,
        wall: dict,
    ) -> SuperStepPlan:
        """Describe one super-step as a backend-executable plan.

        The planning pass takes the seed engine's (stateful) per-subgraph
        direction decisions in the same order and on the same two workloads
        — the hysteresis depends on every one of them — but on counts: a
        kernel's forward workload is its input frontier's degree sum in the
        kernel's subgraph (for the delegate-sourced kernels, one gather over
        the per-engine degree table), which needs no queue, and its backward
        workload comes from the representation's counted pull sets.  A
        :class:`repro.exec.VisitSpec` is emitted only for a kernel that
        pulls or whose degree sum is positive, and a
        :class:`repro.exec.GPUPlan` only for a GPU with such a kernel: a
        kernel the plan does not list is an idle forward kernel, and
        :meth:`_finalize_super_step` charges it as one.  The walk is the
        same for every frontier representation; ``rep`` supplies the
        frontier rows, the dense buffers, the backward-workload estimate,
        and — only for the kernel that then pushes or pulls — the previsit-
        filtered queue or the rows still open to a pull, with the task's
        payload.  The plan's ``finalize`` closure is the post-kernel half,
        always run on the coordinating process, so results, counters and
        modeled times are identical under every backend.
        """
        p = self.graph.num_gpus
        netmodel = self.netmodel

        rep.begin_step()
        delegate_size = rep.delegate_size()
        # The forward workload of the replicated delegate frontier in every
        # (GPU, kernel) it feeds: one gather over the degree table.
        delegate_forward = (
            self._delegate_degrees.take(rep.delegate_rows(), axis=1).sum(axis=1).tolist()
            if delegate_size
            else [0] * (2 * p)
        )
        normal_frontier_total = 0
        directions = {"nd": 0, "dn": 0, "dd": 0}
        base_comp: list[float] = []
        gpu_plans: list[GPUPlan] = []

        for g in range(p):
            deg = self._degrees[g]
            normal_rows = rep.normal_rows(g)
            normal_size = int(normal_rows.size)
            normal_frontier_total += normal_size
            base_comp.append(
                netmodel.iteration_overhead()
                + netmodel.filter_time(2 * normal_size + 2 * delegate_size)
            )
            visits = []
            dense_local = None
            for kernel in self._kernels[g]:
                # The kernel's input frontier — this GPU's normal slots for
                # nn/nd, the delegates for dn/dd — and its forward workload:
                # the frontier's degree sum in the kernel's subgraph, the same
                # number with or without the zero-degree rows.
                if kernel in NORMAL_SOURCED:
                    frontier_size = normal_size
                    forward = int(deg[kernel].take(normal_rows).sum()) if normal_size else 0
                else:
                    frontier_size = delegate_size
                    forward = delegate_forward[2 * g + (kernel == "dd")]
                # nn is always forward; nd/dd/dn each follow their own
                # direction state (forward workload vs backward workload).
                if kernel != "nn":
                    # A pull scans the reverse edges: the dn CSR for nd and
                    # vice versa; dd is locally symmetric.
                    reverse = _REVERSE[kernel]
                    backward = rep.backward_workload(kernel, g, frontier_size, deg[reverse])
                    if dir_states[kernel][g].decide(forward, backward):
                        directions[kernel] += 1
                        if kernel == "nd":
                            # A backward nd pull tests parents against this
                            # GPU's dense normal frontier; dn/dd pulls test
                            # the replicated delegate buffer.
                            dense_local = rep.dense_local(g)
                        visits.append(
                            VisitSpec(
                                kernel,
                                reverse,
                                backward=True,
                                parents="normal" if kernel == "nd" else "delegate",
                                **rep.pull_payload(kernel, g),
                            )
                        )
                        continue
                # A forward task exists only if some frontier row has an edge
                # to push along, and only then is its queue built.
                if forward:
                    visits.append(
                        VisitSpec(
                            kernel, kernel, backward=False,
                            **rep.push_payload(kernel, g, deg[kernel]),
                        )
                    )
            if visits:
                gpu_plans.append(GPUPlan(gpu=g, visits=visits, dense_local=dense_local))

        def finalize(outputs: list) -> IterationRecord:
            return self._finalize_super_step(
                outputs,
                rep=rep,
                communicator=communicator,
                level=level,
                wall=wall,
                base_comp=base_comp,
                directions=directions,
                normal_frontier_total=normal_frontier_total,
                delegate_frontier_size=delegate_size,
            )

        return SuperStepPlan(
            level=level,
            gpu_plans=gpu_plans,
            finalize=finalize,
            wall=wall,
            dense_delegate=rep.dense_delegate,
        )

    def _finalize_super_step(
        self,
        outputs: list,
        rep,
        communicator: Communicator,
        level: int,
        wall: dict,
        base_comp: list,
        directions: dict,
        normal_frontier_total: int,
        delegate_frontier_size: int,
    ) -> IterationRecord:
        """Fold kernel outputs, exchange, reduce: the serial half of a step.

        ``outputs[g]`` holds the outputs of the kernels the plan listed for
        GPU ``g``.  A kernel without an output was an idle forward kernel:
        it still costs its launch overhead (``traversal_time(0)``), added in
        the same nn → nd → dn → dd order as a kernel that ran, and
        contributes nothing to fold.
        """
        opts = self.options
        p = self.graph.num_gpus
        traversal_time = self.netmodel.traversal_time
        idle_s = traversal_time(0)
        per_gpu_comp: list[float] = []
        edges_examined = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}
        tracer = get_tracer()
        fold_started = now_s()

        rep.begin_fold()
        for g in range(p):
            outs = outputs[g]
            comp = base_comp[g]
            for kernel in self._kernels[g]:
                out = outs.get(kernel)
                if out is None:
                    comp += idle_s
                    continue
                comp += traversal_time(out.edges_examined, backward=out.backward)
                edges_examined[kernel] += out.edges_examined
                rep.fold(g, kernel, out)
            per_gpu_comp.append(comp)

        # ------------------------------------------------------------------ #
        # Communication stage
        # ------------------------------------------------------------------ #
        exchange_started = now_s()
        wall["fold"] += exchange_started - fold_started
        if tracer.enabled:
            tracer.record_span(
                "fold", cat="engine", start=fold_started,
                dur=exchange_started - fold_started, args={"level": level},
            )
        exchange = rep.exchange(communicator)
        discovered = 0
        for g in range(p):
            discovered += rep.receive(g, exchange)

        reduce_started = now_s()
        wall["exchange"] += reduce_started - exchange_started
        if tracer.enabled:
            tracer.record_span(
                "nn-exchange", cat="engine", start=exchange_started,
                dur=reduce_started - exchange_started, args={"level": level},
            )
        reduce = rep.reduce_delegates(communicator)
        reduce_local_s = reduce.local_time_s if reduce is not None else 0.0
        reduce_global_s = reduce.global_time_s if reduce is not None else 0.0
        discovered += rep.delegate_size()
        reduce_done = now_s()
        wall["delegate_reduce"] += reduce_done - reduce_started
        if tracer.enabled:
            tracer.record_span(
                "delegate-reduce", cat="engine", start=reduce_started,
                dur=reduce_done - reduce_started, args={"level": level},
            )

        # ------------------------------------------------------------------ #
        # Modeled timing for this super-step
        # ------------------------------------------------------------------ #
        computation_s = float(max(per_gpu_comp)) if p else 0.0
        local_comm_s = exchange.local_time_s + reduce_local_s
        remote_normal_s = exchange.remote_time_s
        remote_delegate_s = reduce_global_s
        comm_total = local_comm_s + remote_normal_s + remote_delegate_s
        overlap = opts.overlap_efficiency * min(computation_s, comm_total)
        elapsed_s = computation_s + comm_total - overlap

        return IterationRecord(
            iteration=level,
            normal_frontier_size=normal_frontier_total,
            delegate_frontier_size=delegate_frontier_size,
            edges_examined=edges_examined,
            directions=directions,
            discovered=discovered,
            delegate_reduce=reduce is not None,
            computation_s=computation_s,
            local_communication_s=local_comm_s,
            remote_normal_exchange_s=remote_normal_s,
            remote_delegate_reduce_s=remote_delegate_s,
            elapsed_s=elapsed_s,
        )


class DistributedBFS:
    """Distributed breadth-first search over a degree-separated partitioning.

    The seed API, kept verbatim: a thin wrapper running
    :class:`repro.core.programs.BFSLevels` through the generic
    :class:`TraversalEngine` with identical answers and modeled timings.

    Parameters
    ----------
    graph:
        The partitioned graph produced by
        :func:`repro.partition.build_partitions`.
    options:
        Runtime options (direction optimization, exchange optimizations,
        reduction flavour, switching factors).
    hardware:
        Machine parameters for the performance model; defaults to the paper's
        Ray system.

    Examples
    --------
    >>> from repro.graph import generate_rmat
    >>> from repro.partition import ClusterLayout, build_partitions
    >>> edges = generate_rmat(10, rng=7)
    >>> layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
    >>> graph = build_partitions(edges, layout, threshold=32)
    >>> bfs = DistributedBFS(graph)
    >>> result = bfs.run(source=0)
    >>> int(result.distances[0])
    0
    """

    def __init__(
        self,
        graph: PartitionedGraph,
        options: BFSOptions | None = None,
        hardware: HardwareSpec | None = None,
        backend=None,
        kernels=None,
    ) -> None:
        self.engine = TraversalEngine(
            graph, options=options, hardware=hardware, backend=backend, kernels=kernels
        )

    @property
    def graph(self) -> PartitionedGraph:
        return self.engine.graph

    def close(self) -> None:
        """Release the engine's execution backend (idempotent)."""
        self.engine.close()

    @property
    def options(self) -> BFSOptions:
        return self.engine.options

    @property
    def hardware(self) -> HardwareSpec:
        return self.engine.hardware

    @property
    def netmodel(self) -> NetworkModel:
        return self.engine.netmodel

    @property
    def topology(self) -> ClusterTopology:
        return self.engine.topology

    def run(self, source: int) -> BFSResult:
        """Run one BFS from ``source`` and return distances plus metrics."""
        return self.engine.run(make_program("levels", int(source)))

    def run_many(
        self, sources: np.ndarray | list[int], batch_size: int | None = None
    ) -> "Campaign":
        """Run BFS from several sources (the paper reports 140 per data point).

        Returns a :class:`repro.core.campaign.Campaign`, an aggregating
        sequence of the per-source results (indexable and iterable like the
        plain list earlier versions returned).  Duplicate sources are
        traversed once and fanned back out (``campaign.saved_traversals``
        counts the skips); ``batch_size >= 2`` routes the unique sources
        through the batched MS-BFS path.
        """
        return self.engine.run_many(
            [
                make_program("levels", int(s))
                for s in np.asarray(sources, dtype=np.int64).ravel()
            ],
            batch_size=batch_size,
        )
