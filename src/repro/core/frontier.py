"""Frontier representations: the half of a super-step that depends on how
"which vertices are hot, and for whom" is stored.

The engine (:mod:`repro.core.engine`) writes the level-synchronous
super-step once — the step loop, the per-GPU walk with its direction
decisions, the fold → nn-exchange → delegate-reduce serial half with its
modeled-time arithmetic, and the overlay relaxation — and asks a *frontier
representation* for everything that differs between a one-source traversal
and a batch of them:

=========================  ==============================  ==============================
the skeleton asks for      :class:`FlagFrontier`           :class:`LaneFrontier`
=========================  ==============================  ==============================
state                      ``TraversalState``: int64       ``BatchState``: per-vertex
                           value per vertex + id-array     lane-word rows (``BatchBitmask``)
                           frontiers                       + (rows, words) frontiers
dense frontier buffers     ``bool`` flags                  ``uint64`` lane words
previsit filter of a push  zero-degree drop (frontiers     zero-degree drop; lane words
(built for a kernel that   are installed sorted-unique)    parallel to the queue
pushes)
visit kernels              ``forward_visit``,              ``batched_forward_visit``,
                           ``weighted_forward_visit``,     ``batched_backward_visit``
                           ``backward_visit``
open (pull-capable) rows   value still ``UNVISITED``:      some lane still unvisited:
                           counted per GPU, listed only    listed when a workload is
                           for a kernel that pulls         asked for
backward workload          expected first hit              exact parent-degree sum (a
                           ``|U|(q+s)/q`` (paper §IV)      batched pull has no early exit)
folding a discovery        program ``visit_value`` /       ``& wanted`` lanes, ``record``
                           ``accept`` / ``merge_remote``
                           / ``combine``
nn exchange                ``exchange``: int64 payload     ``exchange``: lane-word payload
                           for payload programs, L / U     rows, never L / U
delegate reduce            1-bit masks or 64-bit values,   one ``d x B``-bit reduction,
                           proposed as delegate ids or     proposed as (rows, words)
                           (id, value) pairs               pairs
overlay proposals          program values                  OR-propagated lane words
=========================  ==============================  ==============================

A representation never decides control flow and never touches modeled time:
those belong to the skeleton, which is why they exist exactly once.  When the
walk decides that a kernel pushes or pulls, the representation builds that
kernel's queue or candidate rows and runs its visit kernel through
:func:`run_visit`, the one place a visit's CSR is resolved (and, on
compressed storage, decoded) and its spans are recorded.  The representation
is chosen by :func:`frontier_for` from the type of state the entry point
built.

Adding a third representation (say, a sparse/dense hybrid) means
implementing the method set below over a new state class and extending
:func:`frontier_for`; neither the skeleton nor the backends change.
"""

from __future__ import annotations

import numpy as np

from repro.core.direction import estimate_backward_workload
from repro.core.kernels import (
    backward_visit,
    batched_backward_visit,
    batched_filter_frontier,
    batched_forward_visit,
    forward_visit,
    weighted_forward_visit,
)
from repro.core.programs.base import VisitContext
from repro.core.state import UNVISITED, TraversalState
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.bitmask import BatchBitmask
from repro.utils.sorting import sorted_unique
from repro.utils.timing import now_s

__all__ = [
    "NORMAL_SOURCED",
    "REVERSE",
    "BatchState",
    "FlagFrontier",
    "LaneFrontier",
    "frontier_for",
    "global_ids",
    "run_visit",
]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: Kernels whose frontier rows (forward sources) are local normal slots; the
#: other two (dn, dd) expand the replicated delegate frontier.
NORMAL_SOURCED = ("nn", "nd")

#: The subgraph whose CSR holds each direction-optimised kernel's reverse
#: edges (what its backward pull scans); dd is locally symmetric.
REVERSE = {"nd": "dn", "dn": "nd", "dd": "dd"}


def run_visit(graph: PartitionedGraph, g: int, kernel: str, csr: str, visit, rows, *args):
    """Run one visit kernel on GPU ``g``: ``visit(subgraph, rows, *args)``.

    ``csr`` names the GPU's subgraph the kernel scans — not always
    ``kernel``: a backward nd pull scans the reverse edges, which live in the
    dn CSR (and vice versa).  This is the one place a visit's CSR is
    resolved, so it is where compressed storage decodes: a CSR that is not a
    raw :class:`~repro.graph.csr.CSRGraph` is a
    :class:`~repro.storage.codec.CompressedCSR`, and exactly ``rows`` (the
    queue of a push, the candidates of a pull) are decoded into a masked raw
    CSR before the unmodified kernel runs, so storage changes no output.
    With tracing on, the visit records a ``worker/<kernel>:<push|pull>``
    span, and a decoded visit a ``storage/lazy-decode`` span, on GPU ``g``'s
    track ``g + 1``; with tracing off no clock is read.
    """
    tracer = get_tracer()
    traced = tracer.enabled
    started = now_s() if traced else 0.0
    subgraph = getattr(graph.gpus[g], csr)
    if not isinstance(subgraph, CSRGraph):
        subgraph = subgraph.decode_rows(rows)
        if traced:
            tracer.record_span(
                "lazy-decode", cat="storage", start=started, dur=now_s() - started, tid=g + 1
            )
    out = visit(subgraph, rows, *args)
    if traced:
        tracer.record_span(
            f"{kernel}:{'pull' if out.backward else 'push'}", cat="worker",
            start=started, dur=now_s() - started, tid=g + 1,
        )
    return out


def _joined(held, proposal):
    """A GPU's delegate proposal (``None``, ids, or an ``(ids, values)`` /
    ``(rows, words)`` pair) with one more of its kind appended."""
    if held is None:
        return proposal
    if isinstance(held, tuple):
        return tuple(map(np.concatenate, zip(held, proposal)))
    return np.concatenate([held, proposal])


def global_ids(graph: PartitionedGraph, g: int | None, rows: np.ndarray) -> np.ndarray:
    """Global vertex ids of ``rows``: local slots of GPU ``g``, or delegate
    ids when ``g`` is ``None`` (the replicated delegates belong to no GPU)."""
    if g is None:
        return graph.delegate_vertices[rows]
    return graph.gpus[g].global_ids_of_locals(rows)


class FlagFrontier:
    """One bit per vertex: id-array frontiers over a :class:`TraversalState`.

    What a discovery *means* is the :class:`FrontierProgram`'s business —
    every fold goes through its ``visit_value`` / ``accept`` /
    ``merge_remote`` / ``combine`` hooks, in the same order the seed engine
    called them.

    The frontiers of the state are sorted and duplicate-free: the engine's
    own installs are by construction, :meth:`TraversalState.from_init`
    normalises a seeded one, and a driver's ``select`` hook must install
    them so.  Previsit filtering is therefore only the zero-degree drop.
    """

    def __init__(self, graph, options, program, state: TraversalState) -> None:
        self.graph = graph
        self.options = options
        self.program = program
        self.state = state
        self.level = 0
        #: Extra arguments for the run's ``super-step`` / ``traversal`` spans.
        self.span_args: dict = {}
        # Backward pulls only exist for visit-once programs, and only when
        # the options leave direction optimization on.
        self.pull_ok = options.direction_optimized and program.direction_optimized_ok
        self._mask_channel = program.delegate_channel == "mask"
        # Whether the dn fold reads its kernel's ``sources`` (payload programs).
        self._dn_sources = program.payload_exchange or program.delegate_channel == "values"
        # The dense delegate frontier a pull reads, kept for the whole run:
        # each step clears only the ids the previous one set.
        d = graph.num_delegates
        self.dense_delegate = np.zeros(d, dtype=bool)
        self._dense_rows = _EMPTY_I64
        # The rows still open to a pull, as running counts: the direction
        # decision needs only the sizes |U| and s of the paper's estimate, so
        # the id arrays are built only for a kernel that pulls.  An open
        # delegate is one the state has not visited.  Row 2g of the source
        # table marks the delegates with an edge in GPU g's dn subgraph (the
        # candidates of an nd pull, while open), row 2g + 1 the same for dd;
        # the slot flags of GPU g are "open and a source of its nd subgraph"
        # (the candidates of a dn pull).  Counted from the state — a seeded
        # run starts with vertices already closed.
        self._open_slots = None
        if self.pull_ok and d:
            self._delegate_sources = np.stack(
                [mask for gpu in graph.gpus for mask in (gpu.dn_source_mask, gpu.dd_source_mask)]
            )
            self._open_delegate_counts = (
                (self._delegate_sources > state.delegate_visited).sum(axis=1).tolist()
            )
            self._open_slots = []
            for gpu, values in zip(graph.gpus, state.normal_values):
                flags = np.zeros(gpu.num_local, dtype=bool)
                flags[gpu.nd_source_list] = True
                flags &= values == UNVISITED
                self._open_slots.append(flags)
            self._open_slot_counts = [int(flags.sum()) for flags in self._open_slots]

    # ------------------------------------------------------------------ #
    # Loop
    # ------------------------------------------------------------------ #
    def frontier_empty(self) -> bool:
        return self.state.frontier_empty()

    def normal_rows(self, g: int) -> np.ndarray:
        """GPU ``g``'s local slots of the step's input frontier."""
        return self.state.normal_frontiers[g]

    def delegate_size(self) -> int:
        return int(self.state.delegate_frontier.size)

    def delegate_rows(self) -> np.ndarray:
        """The delegate ids of the step's input frontier."""
        return self.state.delegate_frontier

    # ------------------------------------------------------------------ #
    # State updates (every write to the values goes through these two)
    # ------------------------------------------------------------------ #
    def _update_normals(self, g: int, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Apply accepted proposals to GPU ``g``'s slots; returns the fresh
        ones and closes them to future pulls."""
        fresh = self.state.update_normals(g, slots, values, self.program.accept)
        if fresh.size and self._open_slots is not None:
            flags = self._open_slots[g]
            closed = int(np.count_nonzero(flags[fresh]))
            if closed:
                flags[fresh] = False
                self._open_slot_counts[g] -= closed
        return fresh

    def _update_delegates(self, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Apply accepted proposals to the replicated delegates; returns the
        fresh ones, which the state marks visited, and closes them to future
        pulls on every GPU.  Pulls run only for visit-once programs, so every
        fresh delegate was open until now."""
        fresh = self.state.update_delegates(ids, values, self.program.accept)
        if fresh.size and self._open_slots is not None:
            counts = self._open_delegate_counts
            closed = self._delegate_sources.take(fresh, axis=1).sum(axis=1).tolist()
            for row, count in enumerate(closed):
                counts[row] -= count
        return fresh

    # ------------------------------------------------------------------ #
    # Walk: queues, candidates and the visit kernels
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        """Install the step's shared input: the dense delegate frontier."""
        flags = self.dense_delegate
        if self._dense_rows.size:
            flags[self._dense_rows] = False
        self._dense_rows = rows = self.state.delegate_frontier
        if rows.size:
            flags[rows] = True

    def dense_local(self, g: int) -> np.ndarray:
        """GPU ``g``'s dense normal frontier (what a backward nd pull scans)."""
        flags = np.zeros(self.graph.gpus[g].num_local, dtype=bool)
        frontier = self.state.normal_frontiers[g]
        if frontier.size:
            flags[frontier] = True
        return flags

    def push_queue(self, kernel: str, g: int, out_degrees: np.ndarray) -> np.ndarray:
        """Previsit-filter the kernel's input frontier into its queue.  Built
        only for a kernel that pushes: the walk decides directions on degree
        sums, which need no queue."""
        frontier = self.normal_rows(g) if kernel in NORMAL_SOURCED else self.delegate_rows()
        return frontier[out_degrees[frontier] > 0]

    def push(self, kernel: str, g: int, out_degrees: np.ndarray):
        """Run the kernel forward over its queue.  Weighted programs gather
        edge weights on every forward visit (they never pull: needs_weights
        implies no direction switch)."""
        visit = weighted_forward_visit if self.program.needs_weights else forward_visit
        queue = self.push_queue(kernel, g, out_degrees)
        return run_visit(self.graph, g, kernel, kernel, visit, queue)

    def pull_rows(self, kernel: str, g: int) -> np.ndarray:
        """The rows that pull — the still-open sources of the kernel's
        reverse subgraph on GPU ``g`` — built here, for a kernel that pulls."""
        if kernel == "dn":
            return np.flatnonzero(self._open_slots[g])
        # A source of the reverse subgraph that is not visited yet.
        sources = self._delegate_sources[2 * g + (kernel == "dd")]
        return np.flatnonzero(sources > self.state.delegate_visited)

    def pull(self, kernel: str, g: int):
        """Run the kernel backward: its open rows search their parents in
        GPU ``g``'s dense normal frontier (nd) or the replicated delegate
        frontier (dn, dd)."""
        dense = self.dense_local(g) if kernel == "nd" else self.dense_delegate
        rows = self.pull_rows(kernel, g)
        return run_visit(self.graph, g, kernel, REVERSE[kernel], backward_visit, rows, dense)

    def backward_workload(
        self, kernel: str, g: int, frontier_size: int, reverse_degrees: np.ndarray
    ) -> float:
        """The paper's expected-first-hit estimate ``|U| (q + s) / q`` from
        the counted open rows: ``U`` pulls, ``s`` are the unvisited forward
        sources (for dd the two coincide)."""
        if self._open_slots is None:
            return estimate_backward_workload(0, q=frontier_size, s=0)
        delegates = self._open_delegate_counts[2 * g + (kernel == "dd")]
        if kernel == "dd":
            pulling = sources = delegates
        elif kernel == "nd":
            pulling, sources = delegates, self._open_slot_counts[g]
        else:
            pulling, sources = self._open_slot_counts[g], delegates
        return estimate_backward_workload(pulling, q=frontier_size, s=sources)

    # ------------------------------------------------------------------ #
    # Fold → exchange → delegate reduce
    # ------------------------------------------------------------------ #
    def begin_fold(self) -> None:
        p = self.graph.num_gpus
        self._outboxes: list[np.ndarray] = [_EMPTY_I64] * p
        self._payloads: list[np.ndarray] = [_EMPTY_I64] * p
        self._fresh_dn: list[np.ndarray] = [_EMPTY_I64] * p
        # Per GPU, the delegate update it proposes, keyed by delegate id:
        # the ids (mask channel) or ``(ids, values)`` (values channel);
        # ``None`` while it has proposed nothing.
        self._proposals: list = [None] * p

    def _kernel_values(self, g: int, kernel: str, out, discovered, with_sources: bool):
        """The program's proposed values for one kernel's discoveries."""
        src_ids = src_vals = None
        if with_sources:
            src = out.sources
            if kernel in NORMAL_SOURCED:
                # nn/nd edges originate at local normal vertices; forward rows
                # and backward-pull hit parents are both local slots.
                ids = self.graph.gpus[g].global_ids_of_locals(src)
                vals = self.state.normal_values[g][src]
            else:
                # dn/dd edges originate at delegates in both directions.
                ids = self.graph.delegate_vertices[src]
                vals = self.state.delegate_values[src]
            src_ids = np.asarray(ids, dtype=np.int64)
            src_vals = np.asarray(vals, dtype=np.int64)
        return self.program.visit_value(
            VisitContext(
                kernel=kernel,
                gpu=g,
                level=self.level,
                backward=out.backward,
                discovered=discovered,
                source_ids=src_ids,
                source_values=src_vals,
                edge_weights=out.weights,
            )
        )

    def fold(self, g: int, kernel: str, out) -> None:
        """Fold one kernel's discoveries: nn into the exchange outbox, dn
        into GPU ``g``'s local values, nd/dd into its delegate update."""
        program = self.program
        state = self.state
        found = out.discovered
        if kernel == "nn":
            self._outboxes[g] = found
            if program.payload_exchange:
                self._payloads[g] = self._kernel_values(g, "nn", out, found, True)
        elif found.size == 0:
            return
        elif kernel == "dn":
            values = self._kernel_values(g, "dn", out, found, self._dn_sources)
            slots, values = program.merge_remote(found, values)
            self._fresh_dn[g] = self._update_normals(g, slots, values)
        elif self._mask_channel:
            # Already visited delegates are dropped locally: their status is
            # replicated, so the filter needs no communication and spares
            # pointless reductions.
            ids = found[~state.delegate_visited[found]]
            if ids.size:
                self._proposals[g] = _joined(self._proposals[g], ids)
        else:
            # Values channel: propose program values, keeping only proposals
            # the (replicated) current values would accept.
            ids = np.asarray(found, dtype=np.int64)
            vals = self._kernel_values(g, kernel, out, ids, True)
            keep = program.accept(state.delegate_values[ids], vals)
            if keep.any():
                self._proposals[g] = _joined(self._proposals[g], (ids[keep], vals[keep]))

    def exchange(self, communicator):
        program = self.program
        opts = self.options
        return communicator.exchange(
            self._outboxes,
            local_all2all=opts.local_all2all,
            uniquify=opts.uniquify,
            payloads=self._payloads if program.payload_exchange else None,
            payload_combine=program.combine,
            payload_identity=program.combine_identity,
        )

    def receive(self, g: int, exchange) -> int:
        """Fold GPU ``g``'s inbox; install and size its next normal frontier."""
        program = self.program
        inbox = exchange.inboxes[g]
        frontier = self._fresh_dn[g]
        if inbox.size:
            if program.payload_exchange:
                values = exchange.payload_inboxes[g]
            else:
                values = program.visit_value(
                    VisitContext(
                        kernel="recv", gpu=g, level=self.level, backward=False, discovered=inbox
                    )
                )
            fresh_recv = self._update_normals(g, *program.merge_remote(inbox, values))
            if fresh_recv.size:
                frontier = (
                    sorted_unique(np.concatenate([frontier, fresh_recv]))
                    if frontier.size
                    else fresh_recv
                )
        self.state.normal_frontiers[g] = frontier
        return int(frontier.size)

    def reduce_delegates(self, communicator):
        """All-reduce the per-GPU delegate proposals if any GPU made one;
        installs the next delegate frontier.  Returns the reduce result, or
        ``None`` when no reduction was needed.

        The proposals were filtered against the replicated delegate state
        when they were folded, and that state does not change between fold
        and reduce: every merged id is a proposal the state would accept, so
        the merge is read as it stands, without dropping visited delegates.
        """
        program = self.program
        state = self.state
        state.delegate_frontier = _EMPTY_I64
        if all(proposal is None for proposal in self._proposals):
            return None
        reduce = communicator.allreduce(
            self._proposals,
            self.graph.num_delegates,
            blocking=self.options.blocking_reduce,
            combine=program.combine,
            identity=program.combine_identity,
        )
        ids, values = reduce.ids, reduce.values
        if values is None:
            values = np.full(ids.size, program.level_value(self.level), dtype=np.int64)
        state.delegate_frontier = self._update_delegates(ids, values)
        return reduce

    # ------------------------------------------------------------------ #
    # Overlay relaxation (mutable graphs)
    # ------------------------------------------------------------------ #
    def capture(self) -> list:
        """Snapshot the step's input frontier as ``(g, rows, carried)``
        segments (the fold replaces the arrays); ``g`` is ``None`` for the
        delegate segment."""
        state = self.state
        segments = [
            (g, slots, None) for g, slots in enumerate(state.normal_frontiers) if slots.size
        ]
        if state.delegate_frontier.size:
            segments.append((None, state.delegate_frontier, None))
        return segments

    def overlay_payload(self, g: int | None, rows: np.ndarray, carried) -> np.ndarray:
        """What a captured segment pushes along overlay edges: the sources'
        values as they stand *after* the step (a relaxing program may have
        improved them since capture)."""
        if g is None:
            return self.state.delegate_values[rows]
        return self.state.normal_values[g][rows]

    def overlay_propose(self, overlay, src_ids: np.ndarray, src_values: np.ndarray):
        """Push the frontier across the overlay: ``(targets, proposals,
        edges_examined)`` with one deduplicated proposal per target."""
        program = self.program
        weights = None
        if program.needs_weights:
            dst, ids, values, weights, edges = overlay.propagate_weighted(src_ids, src_values)
        else:
            dst, ids, values, edges = overlay.propagate(src_ids, src_values)
        if edges == 0:
            return dst, None, 0
        proposed = program.visit_value(
            VisitContext(
                kernel="overlay",
                gpu=-1,
                level=self.level,
                backward=False,
                discovered=dst,
                source_ids=ids,
                source_values=values,
                edge_weights=weights,
            )
        )
        return (*program.merge_remote(dst, proposed), edges)

    def merge_proposals(self, g: int | None, rows: np.ndarray, values: np.ndarray) -> int:
        """Apply accepted overlay proposals to GPU ``g``'s slots (or the
        delegates) and merge them into the next frontier; returns how many."""
        state = self.state
        if g is None:
            fresh = self._update_delegates(rows, values)
            if fresh.size:
                state.delegate_frontier = sorted_unique(
                    np.concatenate([state.delegate_frontier, fresh])
                )
        else:
            fresh = self._update_normals(g, rows, values)
            if fresh.size:
                state.normal_frontiers[g] = sorted_unique(
                    np.concatenate([state.normal_frontiers[g], fresh])
                )
        return int(fresh.size)


class BatchState:
    """Mutable per-run state of one batched traversal.

    Per GPU, a :class:`BatchBitmask` over the local normal slots plus the
    (rows, words) frontier of the last super-step's discoveries; replicated,
    the delegate batch mask and frontier — the 2-D analogue of
    :class:`repro.core.state.TraversalState` for lane-bitset programs.
    """

    __slots__ = (
        "width",
        "visited_n",
        "visited_d",
        "frontier_n_rows",
        "frontier_n_words",
        "frontier_d_rows",
        "frontier_d_words",
    )

    def __init__(self, width: int) -> None:
        self.width = width

    @classmethod
    def initialize(cls, graph: PartitionedGraph, sources, width: int) -> "BatchState":
        state = cls(width)
        nwords = (width + 63) // 64
        d = graph.num_delegates
        state.visited_n = [BatchBitmask(gpu.num_local, width) for gpu in graph.gpus]
        state.visited_d = BatchBitmask(d, width)
        d_rows: list[int] = []
        d_lanes: list[int] = []
        n_rows: dict[int, list[int]] = {}
        n_lanes: dict[int, list[int]] = {}
        for lane, source in enumerate(sources):
            delegate_id = int(graph.separation.delegate_id_of[source])
            if delegate_id >= 0:
                d_rows.append(delegate_id)
                d_lanes.append(lane)
            else:
                owner = int(graph.layout.flat_gpu_of(source))
                n_rows.setdefault(owner, []).append(
                    int(graph.layout.local_index_of(source))
                )
                n_lanes.setdefault(owner, []).append(lane)
        if d_rows:
            state.visited_d.set_lanes(
                np.asarray(d_rows, dtype=np.int64), np.asarray(d_lanes, dtype=np.int64)
            )
        for owner, rows in n_rows.items():
            state.visited_n[owner].set_lanes(
                np.asarray(rows, dtype=np.int64),
                np.asarray(n_lanes[owner], dtype=np.int64),
            )
        # The initial frontiers are exactly the seeds (nothing else is set).
        state.frontier_n_rows = []
        state.frontier_n_words = []
        for mask in state.visited_n:
            rows = mask.nonzero_rows()
            state.frontier_n_rows.append(rows)
            state.frontier_n_words.append(mask.get_rows(rows))
        rows = state.visited_d.nonzero_rows()
        state.frontier_d_rows = rows
        state.frontier_d_words = (
            state.visited_d.get_rows(rows)
            if rows.size
            else np.zeros((0, nwords), dtype=np.uint64)
        )
        return state

    def frontier(self, g: int | None) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, words) frontier of GPU ``g``, or of the delegates (``None``)."""
        if g is None:
            return self.frontier_d_rows, self.frontier_d_words
        return self.frontier_n_rows[g], self.frontier_n_words[g]

    def set_frontier(self, g: int | None, rows: np.ndarray, words: np.ndarray) -> None:
        if g is None:
            self.frontier_d_rows, self.frontier_d_words = rows, words
        else:
            self.frontier_n_rows[g], self.frontier_n_words[g] = rows, words

    def frontier_empty(self) -> bool:
        """Whether both the normal and delegate frontiers are empty everywhere."""
        if self.frontier_d_rows.size:
            return False
        return all(rows.size == 0 for rows in self.frontier_n_rows)


def _or_rows(rows: np.ndarray, words: np.ndarray, nwords: int):
    """Deduplicate ``rows``, OR-combining the lane words of duplicates."""
    if rows.size == 0:
        return rows, np.zeros((0, nwords), dtype=np.uint64)
    unique, inverse = np.unique(rows, return_inverse=True)
    merged = np.zeros((unique.size, nwords), dtype=np.uint64)
    np.bitwise_or.at(merged, inverse, words)
    return unique, merged


class LaneFrontier:
    """One lane word row per vertex: (rows, words) frontiers over a
    :class:`BatchState`, one lane per source of a batched program.

    Batched programs are visit-once, mask-channel and level-valued by
    construction, so every fold is "keep the lanes the vertex still wants,
    set them, tell the program" (:meth:`_visit`).
    """

    def __init__(self, graph, options, program, state: BatchState) -> None:
        self.graph = graph
        self.options = options
        self.program = program
        self.state = state
        self.level = 0
        self.span_args: dict = {"width": state.width}
        self.pull_ok = options.direction_optimized
        self.nwords = nwords = (state.width + 63) // 64
        # Lane-word mask of the valid lanes in the last word (the padding
        # lanes beyond B must never go hot).
        self._full = np.full(nwords, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        tail = state.width & 63
        if tail:
            self._full[-1] = np.uint64((1 << tail) - 1)
        self._no_words = np.zeros((0, nwords), dtype=np.uint64)
        # The dense delegate frontier a pull reads, kept for the whole run:
        # each step clears only the rows the previous one set.
        self.dense_delegate = np.zeros((graph.num_delegates, nwords), dtype=np.uint64)
        self._dense_rows = _EMPTY_I64

    def _wanted(self, visited: BatchBitmask, rows) -> np.ndarray:
        """The valid lanes each of ``rows`` has not been visited by yet."""
        return np.bitwise_not(visited.words[rows]) & self._full

    def _visit(self, g: int | None, rows: np.ndarray, proposed: np.ndarray):
        """First-visit ``rows`` (GPU ``g``'s slots, or delegates) by the
        proposed lanes they still want: mark, record, return what was new."""
        visited = self.state.visited_d if g is None else self.state.visited_n[g]
        new = proposed & self._wanted(visited, rows)
        keep = new.any(axis=1)
        rows, new = rows[keep], new[keep]
        if rows.size:
            visited.or_rows(rows, new)
            self.program.record(global_ids(self.graph, g, rows), new, self.level)
        return rows, new

    # ------------------------------------------------------------------ #
    # Loop
    # ------------------------------------------------------------------ #
    def frontier_empty(self) -> bool:
        return self.state.frontier_empty()

    def normal_rows(self, g: int) -> np.ndarray:
        """GPU ``g``'s local slots of the step's input frontier."""
        return self.state.frontier_n_rows[g]

    def delegate_size(self) -> int:
        return int(self.state.frontier_d_rows.size)

    def delegate_rows(self) -> np.ndarray:
        """The delegate ids of the step's input frontier."""
        return self.state.frontier_d_rows

    # ------------------------------------------------------------------ #
    # Walk: queues, candidates and the visit kernels
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        dense = self.dense_delegate
        if self._dense_rows.size:
            dense[self._dense_rows] = 0
        rows, words = self.state.frontier(None)
        self._dense_rows = rows
        if rows.size:
            dense[rows] = words
        # Per (kernel, GPU), the rows still open to a pull this step.  Built
        # when the walk asks for a backward workload — which, unlike the
        # one-bit estimate, is a sum over the rows themselves — and reused
        # if that kernel then pulls.
        self._candidates: dict = {}
        self._open_delegates = None

    def dense_local(self, g: int) -> np.ndarray:
        """GPU ``g``'s dense normal frontier (what a backward nd pull scans)."""
        dense = np.zeros((self.graph.gpus[g].num_local, self.nwords), dtype=np.uint64)
        rows, words = self.state.frontier(g)
        if rows.size:
            dense[rows] = words
        return dense

    def push_queue(self, kernel: str, g: int, out_degrees: np.ndarray) -> tuple:
        """The kernel's previsit-filtered ``(rows, words)`` queue."""
        return batched_filter_frontier(
            *self.state.frontier(g if kernel in NORMAL_SOURCED else None), out_degrees
        )

    def push(self, kernel: str, g: int, out_degrees: np.ndarray):
        rows, words = self.push_queue(kernel, g, out_degrees)
        return run_visit(self.graph, g, kernel, kernel, batched_forward_visit, rows, words)

    def pull_rows(self, kernel: str, g: int) -> np.ndarray:
        """The still-open sources of the kernel's reverse subgraph on GPU
        ``g``: local slots for dn, delegates for nd/dd."""
        rows = self._candidates.get((kernel, g))
        if rows is None:
            part = self.graph.gpus[g]
            if not self.pull_ok:
                rows = _EMPTY_I64
            elif kernel == "dn":
                slots = part.nd_source_list
                rows = slots[self._wanted(self.state.visited_n[g], slots).any(axis=1)]
            else:
                if self._open_delegates is None:
                    wanted = self._wanted(self.state.visited_d, slice(None))
                    self._open_delegates = np.flatnonzero(wanted.any(axis=1)).astype(np.int64)
                is_source = part.dn_source_mask if kernel == "nd" else part.dd_source_mask
                rows = self._open_delegates[is_source[self._open_delegates]]
            self._candidates[kernel, g] = rows
        return rows

    def pull(self, kernel: str, g: int):
        """Run the kernel backward: its open rows collect, for every lane
        each of them still wants, their parents in the dense frontier."""
        rows = self.pull_rows(kernel, g)
        visited = self.state.visited_n[g] if kernel == "dn" else self.state.visited_d
        dense = self.dense_local(g) if kernel == "nd" else self.dense_delegate
        return run_visit(
            self.graph, g, kernel, REVERSE[kernel], batched_backward_visit,
            rows, dense, self._wanted(visited, rows),
        )

    def backward_workload(
        self, kernel: str, g: int, frontier_size: int, reverse_degrees: np.ndarray
    ) -> int:
        """A batched pull has no early exit, so its workload is not the
        paper's expected-first-hit estimate but the exact full parent lists
        of the rows that would pull — computable from the reverse CSR."""
        rows = self.pull_rows(kernel, g)
        return int(reverse_degrees[rows].sum()) if rows.size else 0

    # ------------------------------------------------------------------ #
    # Fold → exchange → delegate reduce
    # ------------------------------------------------------------------ #
    def begin_fold(self) -> None:
        p = self.graph.num_gpus
        self._outboxes: list[np.ndarray] = [_EMPTY_I64] * p
        self._outbox_words: list[np.ndarray] = [self._no_words] * p
        self._fresh_dn = [(_EMPTY_I64, self._no_words)] * p
        # Per GPU, the ``(rows, words)`` of the delegates it proposes
        # (``None`` while it has proposed none).
        self._proposals: list = [None] * p

    def fold(self, g: int, kernel: str, out) -> None:
        found = out.discovered
        if kernel == "nn":
            self._outboxes[g] = found
            self._outbox_words[g] = out.words
        elif found.size == 0:
            return
        elif kernel == "dn":
            self._fresh_dn[g] = self._visit(g, found, out.words)
        else:
            # Delegate proposals: drop lanes already visited (the free
            # replicated-status filter, as the one-bit mask channel does).
            words = out.words & self._wanted(self.state.visited_d, found)
            keep = words.any(axis=1)
            if keep.any():
                self._proposals[g] = _joined(self._proposals[g], (found[keep], words[keep]))

    def exchange(self, communicator):
        # The lane words ride as the payload.  Rows are unique per sender (the
        # batched nn kernel emits one per destination), and batched traffic
        # has always gone without the L / U steps.
        return communicator.exchange(self._outboxes, payloads=self._outbox_words)

    def receive(self, g: int, exchange) -> int:
        rows, words = self._fresh_dn[g]
        inbox = exchange.inboxes[g]
        if inbox.size:
            nwords = self.nwords
            received = self._visit(g, *_or_rows(inbox, exchange.payload_inboxes[g], nwords))
            rows, words = _or_rows(
                np.concatenate([rows, received[0]]),
                np.concatenate([words, received[1]]),
                nwords,
            )
        self.state.set_frontier(g, rows, words)
        return int(rows.size)

    def reduce_delegates(self, communicator):
        """One ``d x B``-bit reduction if any GPU proposed a delegate.  The
        proposals were filtered against the replicated visited lanes when
        they were folded (and those do not change between fold and reduce),
        so the merged rows hold only new lanes and are read as they stand."""
        state = self.state
        if all(proposal is None for proposal in self._proposals):
            state.set_frontier(None, _EMPTY_I64, self._no_words)
            return None
        reduce = communicator.allreduce(
            self._proposals,
            self.graph.num_delegates,
            blocking=self.options.blocking_reduce,
            width=state.width,
        )
        rows, words = reduce.ids, reduce.values
        state.visited_d.words[rows] |= words
        state.set_frontier(None, rows, words)
        self.program.record(self.graph.delegate_vertices[rows], words, self.level)
        return reduce

    # ------------------------------------------------------------------ #
    # Overlay relaxation (mutable graphs)
    # ------------------------------------------------------------------ #
    def capture(self) -> list:
        segments = [
            (g, *self.state.frontier(g)) for g in (*range(self.graph.num_gpus), None)
        ]
        return [segment for segment in segments if segment[1].size]

    def overlay_payload(self, g: int | None, rows: np.ndarray, carried) -> np.ndarray:
        return carried

    def overlay_propose(self, overlay, src_ids: np.ndarray, src_words: np.ndarray):
        return overlay.propagate_batch(src_ids, src_words, self.nwords)

    def merge_proposals(self, g: int | None, rows: np.ndarray, words: np.ndarray) -> int:
        rows, new = self._visit(g, rows, words)
        if rows.size:
            old_rows, old_words = self.state.frontier(g)
            self.state.set_frontier(
                g,
                *_or_rows(
                    np.concatenate([old_rows, rows]),
                    np.concatenate([old_words, new]),
                    self.nwords,
                ),
            )
        return int(rows.size)


def frontier_for(graph, options, program, state):
    """The representation matching the state an entry point built."""
    kind = LaneFrontier if isinstance(state, BatchState) else FlagFrontier
    return kind(graph, options, program, state)
