"""The distributed traversal engine (paper §IV and §V, Figures 3 and 4).

:class:`TraversalEngine` executes level-synchronous super-steps of any
:class:`repro.core.programs.FrontierProgram` over a degree-separated
:class:`repro.partition.PartitionedGraph`:

1. **Local computation** on every virtual GPU (Fig. 3): the forward
   workloads are the input frontiers' degree sums; one visit kernel per
   subgraph then runs, where the walk decides it, in the direction chosen
   by its own direction-optimization state (a previsit filter builds the
   queue of a kernel that pushes) —

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

*Where* a run executes is a third concern, owned by neither engine nor
program: :meth:`TraversalEngine.run`, :meth:`~TraversalEngine.run_batch`
and :meth:`~TraversalEngine.run_each` hand whole runs to an
:class:`repro.exec.ExecutionBackend` — ``"inline"`` runs them here,
``"process"`` on the inline engine of a persistent pool worker over a
shared-memory export of the graph — and every run ends in
:meth:`~TraversalEngine.execute`, which runs all of its super-steps in one
process: each step's walk runs its visit kernels in place as it decides
them, and the folds, the exchange and the delegate reduction follow.
Results, workload counters and modeled times are backend-independent; only
the measured ``wall_s`` phases change.

A super-step costs what its frontier costs.  The walk runs a kernel only
where it pulls or has an edge to push along — an absent output *means*
"idle forward kernel", which the serial half still charges its launch
overhead — directions are decided on counts (degree sums forward, counted
pull sets backward), queues and candidate sets are materialised only for the
kernel that then pushes or pulls, and fold, exchange and reduce touch only
the GPUs and delegates that saw a discovery.

That super-step is written once.  :meth:`TraversalEngine.step_loop` is the
only level loop, :meth:`~TraversalEngine._walk_super_step` the only walk
and :meth:`~TraversalEngine._finalize_super_step` the only serial half;
sequential programs, batched (MS-BFS) programs and frontier-scheduling
drivers such as delta-stepping SSSP all run through them.  A run's
accounting is written once too: every program's run — the level loop's and
each driver's (PageRank, hooking components, triangle counting) — keeps its
communicator, records, modeled-time totals, wall phases and spans in one
:class:`RunLedger`, and every super-step hands the ledger a bill of what it
moved (a :class:`~repro.cluster.StepBill`), which the ledger prices when it
books the step: no other code computes a modeled second.  What differs
between one source and a batch of them — how the frontier is stored, how a
discovery folds into state, which exchange and reduction carry it — sits
behind a frontier representation (:mod:`repro.core.frontier`) chosen from
the state the entry point built.

For mutable graphs (:mod:`repro.dynamic`) the loop accepts two extensions:
a pre-seeded ``init`` replacing the program's ``init_state`` (the
resumable-from-frontier entry point incremental repair starts from) and an
``overlay`` of not-yet-compacted edge insertions, relaxed from each
super-step's input frontier after its kernels.

:class:`DistributedBFS` remains as the seed's entry point: a thin wrapper
running :class:`repro.core.programs.BFSLevels` through the generic engine
with behaviour (answers, iteration counts, modeled timings) identical to the
original hardwired implementation.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import IDLE_KERNEL, NetworkModel, StepBill
from repro.cluster.topology import ClusterTopology
from repro.core.direction import DirectionState
from repro.core.frontier import NORMAL_SOURCED, REVERSE, BatchState, frontier_for, global_ids
from repro.core.options import BFSOptions
from repro.core.programs.base import FrontierProgram
from repro.core.programs.batched import BatchedFrontierProgram
from repro.core.programs.table import batched_factory, dedup_key, make_program
from repro.core.results import BatchResult, BFSResult, IterationRecord, TraversalResult
from repro.core.state import TraversalState
from repro.exec.backend import resolve_backend
from repro.exec.config import ExecConfig, check_kernels
from repro.partition.subgraphs import PartitionedGraph
from repro.obs.tracer import get_tracer
from repro.utils.sorting import sorted_unique
from repro.utils.timing import TimingBreakdown, now_s

__all__ = ["TraversalEngine", "DistributedBFS", "RunLedger"]

#: Default lane count per batched sweep when ``run_many`` routes through the
#: batched path; wider batches amortize better but grow the lane words.
DEFAULT_BATCH_SIZE = 32


class RunLedger:
    """One program run's accounting, shared by the level loop and the drivers.

    Holds the run's :class:`~repro.cluster.comm.Communicator`, its
    :class:`~repro.core.results.IterationRecord` list, the modeled
    :class:`~repro.utils.timing.TimingBreakdown`, the examined-edge total
    and the wall-clock phases of ``wall_s``.  :meth:`phase` charges one
    phase and records its span, :meth:`step` books a finished super-step
    (:meth:`add` books a record without a span), and :meth:`close` records
    the ``traversal`` span and returns the result ``base`` dictionary.
    Booking a record prices its step's bill with the engine's network model
    — the only place a run's modeled seconds are computed — so every
    booked record is complete and no bill outlives its step.  The delegate
    reduce's price, the same at every step of a run, is computed once.
    A step's ``plan`` (its walk, the visit kernels included), ``fold`` and
    ``overlay`` shares are what :meth:`close` folds into ``kernels``; only a
    coordinator-run driver (hooking, triangles) charges ``kernels`` itself.

    With tracing off nothing here allocates per step: span arguments are
    built only when the tracer is enabled.
    """

    __slots__ = (
        "program", "communicator", "records", "timing", "total_edges", "wall",
        "started", "_tracer", "_num_directed_edges", "_netmodel", "_topology", "_overlap",
        "_reduce_prices",
    )

    def __init__(self, engine: "TraversalEngine", program: str) -> None:
        self.program = program
        self.communicator = Communicator(engine.topology)
        self._netmodel = engine.netmodel
        self._topology = engine.topology
        self._overlap = engine.options.overlap_efficiency
        self._reduce_prices: dict = {}
        self.records: list[IterationRecord] = []
        self.timing = TimingBreakdown()
        self.total_edges = 0
        self.wall = {
            "kernels": 0.0, "plan": 0.0, "fold": 0.0, "overlay": 0.0,
            "exchange": 0.0, "delegate_reduce": 0.0,
        }
        self._tracer = get_tracer()
        self._num_directed_edges = engine.graph.num_directed_edges
        self.started = now_s()

    def phase(
        self, key: str, started: float, level: int = 0, span=None, directions=None
    ) -> float:
        """Charge the seconds since ``started`` to ``wall[key]``; returns now.

        With tracing on and a ``span`` name given, that span is recorded with
        the step's ``level`` and, given the step's ``directions`` tally, how
        many of its kernels pulled (0 is an all-forward-push step).
        """
        ended = now_s()
        self.wall[key] += ended - started
        if span is not None and self._tracer.enabled:
            args = {"level": level}
            if directions is not None:
                args["pulls"] = sum(directions.values())
            self._tracer.record_span(
                span, cat="engine", start=started, dur=ended - started, args=args
            )
        return ended

    def step(
        self, started: float, level: int, record: IterationRecord, bill: StepBill,
        span_args=None,
    ) -> None:
        """Book one finished super-step that began at ``started``."""
        if self._tracer.enabled:
            args = {"level": level, "program": self.program}
            if span_args:
                args.update(span_args)
            self._tracer.record_span(
                "super-step", cat="engine", start=started, dur=now_s() - started, args=args
            )
        self.add(record, bill)

    def add(self, record: IterationRecord, bill: StepBill) -> None:
        """Book one record (a driver's step that has no ``super-step`` span),
        its five modeled times priced from its step's ``bill``."""
        (
            record.computation_s,
            record.local_communication_s,
            record.remote_normal_exchange_s,
            record.remote_delegate_reduce_s,
            record.elapsed_s,
        ) = self._netmodel.price(bill, self._topology, self._overlap, self._reduce_prices)
        self.records.append(record)
        self.total_edges += record.total_edges_examined()
        self.timing.add(record)

    def close(self, span_args=None) -> dict:
        """End the run: the ``traversal`` span and the result ``base`` dict."""
        wall = self.wall
        records = self.records
        wall["kernels"] += wall["plan"] + wall["fold"] + wall["overlay"]
        self.timing.iterations = len(records)
        wall["traversal"] = now_s() - self.started
        if self._tracer.enabled:
            args = {"program": self.program, "iterations": len(records)}
            if span_args:
                args.update(span_args)
            self._tracer.record_span(
                "traversal", cat="engine", start=self.started, dur=wall["traversal"], args=args
            )
        return {
            "iterations": len(records),
            "records": records,
            "timing": self.timing,
            "comm_stats": self.communicator.stats,
            "total_edges_examined": self.total_edges,
            "num_directed_edges": self._num_directed_edges,
            "wall_s": wall,
        }


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
        instance, a registry name (``"inline"`` / ``"process"``), or ``None``
        to use the ``REPRO_BACKEND`` environment default (inline).  Named
        backends are created lazily on first use and owned (closed) by the
        engine; passed-in instances are shared and stay caller-owned.  It is
        resolved once, here, into :attr:`config` (an
        :class:`repro.exec.ExecConfig`); a bad name raises :class:`ValueError`.
    kernels:
        ``None`` or ``"numpy"``, the one implementation
        (:mod:`repro.core.kernels`); anything else raises :class:`ValueError`.

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
        check_kernels(kernels)
        self.graph = graph
        self.options = options if options is not None else BFSOptions()
        self.hardware = hardware if hardware is not None else HardwareSpec()
        self.netmodel = NetworkModel(self.hardware)
        self.topology = ClusterTopology(graph.layout)
        #: The resolved run configuration (the backend is used here).
        self.config = ExecConfig.resolve(backend=backend)
        self._backend = None
        self._owns_backend = False
        # Which visit kernels run on each GPU, in fold order: without
        # delegates only nn exists, and a GPU owning no normal vertex has no
        # dn destinations.  The walk and the fold both go over this list.
        self._kernels = [
            ("nn",)
            if not graph.num_delegates
            else ("nn", "nd", "dn", "dd") if gpu.num_local else ("nn", "nd", "dd")
            for gpu in graph.gpus
        ]
        # The bill terms of a GPU none of whose kernels ran: all idle.
        self._idle_terms = [(IDLE_KERNEL,) * len(kernels) for kernels in self._kernels]
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

        The run executes where the backend says (:meth:`execute` is what
        executes it); the result is the same wherever that is.

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
        (result,) = self.backend.run(self, [(program, init)], overlay)
        return result

    def run_each(self, programs, overlay=None):
        """Yield the result of every program (sequential, batched or driver),
        in order, each run to completion where the backend says — on a
        process backend, spread over its pool."""
        return self.backend.run(self, [(program, None) for program in programs], overlay)

    def execute(self, program, init=None, overlay=None):
        """Run one program to completion here, in the calling process.

        What every backend ends in, in whichever process the run was placed:
        a batched program sweeps its lanes (:meth:`run_batch`'s contract),
        a driver program (delta-stepping SSSP, PageRank, ...) owns its outer
        loop and orchestrates engine phases itself, and everything else runs
        the standard level loop from ``init`` or the program's own
        ``init_state``.
        """
        graph = self.graph
        if isinstance(program, BatchedFrontierProgram):
            program.begin(graph)
            state = BatchState.initialize(graph, program.sources, program.width)
            return program.make_result(self.step_loop(program, state, overlay=overlay))
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

        The deduplicated runs and batches go through :meth:`run_each`, so a
        process backend deals them over its pool.
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
        runs = unique_programs
        if batch_factory is not None:
            sources = [p.source for p in unique_programs]
            runs = []
            for start in range(0, len(sources), batch_size):
                chunk = sources[start:start + batch_size]
                runs.append(unique_programs[start] if len(chunk) == 1 else batch_factory(chunk))
        unique_results: list = []
        for run, result in zip(runs, self.run_each(runs, overlay=overlay)):
            if isinstance(run, BatchedFrontierProgram):
                unique_results.extend(result.per_source_results())
            else:
                unique_results.append(result)
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
        (result,) = self.backend.run(self, [(program, None)], overlay)
        return result

    # ------------------------------------------------------------------ #
    # The step loop (shared by every program execute runs, drivers included)
    # ------------------------------------------------------------------ #
    def step_loop(self, program, state, overlay=None, select=None, settle=None) -> dict:
        """Run super-steps over ``state`` until its frontier drains.

        The one level loop of the engine: it owns level counting, the
        ``max_levels`` / ``max_iterations`` guards, overlay capture and
        relaxation and the walk, and keeps the run's spans, wall
        clock and result ``base`` dictionary (which it returns) in a
        :class:`RunLedger`.
        :meth:`execute` builds a state and calls it; driver
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
        ledger = RunLedger(self, program.name)
        dir_states = {
            kernel: [DirectionState(factors, enabled=rep.pull_ok) for _ in range(p)]
            for kernel, factors in (
                ("nd", opts.nd_factors),
                ("dn", opts.dn_factors),
                ("dd", opts.dd_factors),
            )
        }
        level = 0
        overlay_live = overlay is not None and not overlay.empty

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
            step_started = now_s()
            outputs, record, bill = self._walk_super_step(rep, dir_states, level)
            fold_started = ledger.phase(
                "plan", step_started, level, "plan+direction", record.directions
            )
            self._finalize_super_step(outputs, rep, ledger, level, fold_started, record, bill)
            if overlay_live:
                relax_started = now_s()
                self._overlay_relax(rep, overlay, pre_frontier, record, bill)
                ledger.phase("overlay", relax_started, level, "overlay-relax")
            ledger.step(step_started, level, record, bill, rep.span_args)
            if settle is not None:
                settle()
        return ledger.close(rep.span_args)

    # ------------------------------------------------------------------ #
    # Overlay relaxation (mutable graphs)
    # ------------------------------------------------------------------ #
    def _overlay_relax(
        self, rep, overlay, segments: list, record: IterationRecord, bill: StepBill
    ) -> None:
        """Relax the overlay edges leaving this step's input frontier.

        Runs after the step's kernels finish: the captured frontier
        ``segments`` push their payload (program values, or lane words
        OR-propagated per lane) across the overlay, the representation turns
        that into one proposal per target exactly like a kernel discovery
        would, fresh vertices merge into the next frontier, and the examined
        overlay edges are added to the step's counters and its bill (which
        prices them into computation unoverlapped — the overlay is a serial
        side-structure).
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
        bill.overlay_edges += edges

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
    def _walk_super_step(
        self, rep, dir_states: dict[str, list[DirectionState]], level: int
    ) -> tuple[list, IterationRecord, StepBill]:
        """Decide one super-step's kernels and run each where it is decided.

        The walk takes the seed engine's (stateful) per-subgraph direction
        decisions in the same order and on the same two workloads — the
        hysteresis depends on every one of them — but on counts: a kernel's
        forward workload is its input frontier's degree sum in the kernel's
        subgraph (for the delegate-sourced kernels, one gather over the
        per-engine degree table), which needs no queue, and its backward
        workload comes from the representation's counted pull sets.  A
        kernel runs only if it pulls or its degree sum is positive; the
        representation (``rep``) then builds its previsit-filtered queue or
        its candidate rows and runs its visit kernel.  Kernels are pure and
        every fold happens after the walk, so running them here changes no
        decision.  Returns one output dict per GPU (kernel → output; an
        absent kernel was an idle forward kernel, which
        :meth:`_finalize_super_step` bills as one), and the step's record
        and bill as far as the walk knows them — the two frontier sizes, the
        direction counts and the per-GPU previsit filter sizes.
        """
        p = self.graph.num_gpus

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
        filters: list[int] = []
        outputs: list[dict] = []

        for g in range(p):
            deg = self._degrees[g]
            normal_rows = rep.normal_rows(g)
            normal_size = int(normal_rows.size)
            normal_frontier_total += normal_size
            filters.append(2 * normal_size + 2 * delegate_size)
            outs: dict = {}
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
                    backward = rep.backward_workload(
                        kernel, g, frontier_size, deg[REVERSE[kernel]]
                    )
                    if dir_states[kernel][g].decide(forward, backward):
                        directions[kernel] += 1
                        outs[kernel] = rep.pull(kernel, g)
                        continue
                # A forward kernel runs only if some frontier row has an edge
                # to push along, and only then is its queue built.
                if forward:
                    outs[kernel] = rep.push(kernel, g, deg[kernel])
            outputs.append(outs)

        edges = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}
        record = IterationRecord(level, normal_frontier_total, delegate_size, edges, directions)
        return outputs, record, StepBill([], filters)

    def _finalize_super_step(
        self,
        outputs: list,
        rep,
        ledger: RunLedger,
        level: int,
        fold_started: float,
        record: IterationRecord,
        bill: StepBill,
    ) -> None:
        """Fold kernel outputs, exchange, reduce: the serial half of a step.

        ``outputs[g]`` holds the outputs of the kernels the walk ran on GPU
        ``g``.  A kernel without an output was an idle forward kernel:
        it still pays its launch overhead, so it is billed as
        ``IDLE_KERNEL`` in the same nn → nd → dn → dd order as a kernel that
        ran, and contributes nothing to fold.  Completes the step's
        ``record`` (all but the modeled times, which booking prices) and its
        ``bill``.
        """
        p = self.graph.num_gpus
        kernels = bill.kernels
        edges_examined = record.edges_examined

        rep.begin_fold()
        for g in range(p):
            outs = outputs[g]
            if not outs:
                kernels.append(self._idle_terms[g])
                continue
            terms = []
            for kernel in self._kernels[g]:
                out = outs.get(kernel)
                if out is None:
                    terms.append(IDLE_KERNEL)
                    continue
                terms.append((out.edges_examined, out.backward))
                edges_examined[kernel] += out.edges_examined
                rep.fold(g, kernel, out)
            kernels.append(terms)

        # ------------------------------------------------------------------ #
        # Communication stage
        # ------------------------------------------------------------------ #
        exchange_started = ledger.phase("fold", fold_started, level, "fold")
        exchange = rep.exchange(ledger.communicator)
        discovered = 0
        for g in range(p):
            discovered += rep.receive(g, exchange)

        reduce_started = ledger.phase("exchange", exchange_started, level, "nn-exchange")
        reduce = rep.reduce_delegates(ledger.communicator)
        discovered += rep.delegate_size()
        ledger.phase("delegate_reduce", reduce_started, level, "delegate-reduce")

        record.discovered = discovered
        record.delegate_reduce = reduce is not None
        bill.exchange = exchange.bill
        bill.reduce = None if reduce is None else reduce.bill


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
    ) -> None:
        self.engine = TraversalEngine(graph, options=options, hardware=hardware, backend=backend)

    def close(self) -> None:
        """Release the engine's execution backend (idempotent)."""
        self.engine.close()

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
