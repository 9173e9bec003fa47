"""Frontier representations: the half of a super-step that depends on how
"which vertices are hot, and for whom" is stored.

The engine (:mod:`repro.core.engine`) writes the level-synchronous
super-step once — the step loop, the per-GPU plan walk with its direction
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
previsit filter / payload  zero-degree drop (frontiers     zero-degree drop; lane words
of a forward task (built   are installed sorted-unique);   parallel to the queue
for a kernel that pushes)  ``keep_sources`` / ``weighted``
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
                           built only on GPUs that         built only on GPUs that
                           proposed an update              proposed an update
overlay proposals          program values                  OR-propagated lane words
=========================  ==============================  ==============================

A representation never decides control flow, never touches modeled time and
never records a span: those belong to the skeleton, which is why they exist
exactly once.  The representation is chosen by :func:`frontier_for` from the
type of state the entry point built.

Adding a third representation (say, a sparse/dense hybrid) means
implementing the method set below over a new state class and extending
:func:`frontier_for`; neither the skeleton, the backends nor the plan
vocabulary (:mod:`repro.exec.plan`) change.
"""

from __future__ import annotations

import numpy as np

from repro.core.direction import estimate_backward_workload
from repro.core.kernels import batched_filter_frontier
from repro.core.programs.base import VisitContext
from repro.core.state import UNVISITED, TraversalState
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.bitmask import BatchBitmask, Bitmask
from repro.utils.sorting import sorted_unique

__all__ = [
    "NORMAL_SOURCED",
    "BatchState",
    "FlagFrontier",
    "LaneFrontier",
    "frontier_for",
    "global_ids",
]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: Kernels whose frontier rows (forward sources) are local normal slots; the
#: other two (dn, dd) expand the replicated delegate frontier.
NORMAL_SOURCED = ("nn", "nd")


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
        # Which kernels' ``sources`` the fold reads (payload programs only).
        self._keep_sources = {
            "nn": program.payload_exchange,
            "nd": not self._mask_channel,
            "dn": program.payload_exchange or program.delegate_channel == "values",
            "dd": not self._mask_channel,
        }
        # What a GPU that proposed no delegate update contributes to a
        # reduction: one shared, read-only all-zero mask / all-identity array.
        d = graph.num_delegates
        if self._mask_channel:
            self._no_update = Bitmask(d)
            self._no_update.buffer.setflags(write=False)
        else:
            self._no_update = np.full(d, program.combine_identity, dtype=np.int64)
            self._no_update.setflags(write=False)
        # The rows still open to a pull, as flags and as running counts: the
        # direction decision needs only the sizes |U| and s of the paper's
        # estimate, so the id arrays are built only for a kernel that pulls.
        # Row 2g of the source table marks the delegates with an edge in GPU
        # g's dn subgraph (the candidates of an nd pull, while open), row
        # 2g + 1 the same for dd; the slot flags of GPU g are "open and a
        # source of its nd subgraph" (the candidates of a dn pull).  Counted
        # from the state — a seeded run starts with vertices already closed.
        self._open_delegates = self._open_slots = None
        if self.pull_ok and d:
            self._delegate_sources = np.stack(
                [mask for gpu in graph.gpus for mask in (gpu.dn_source_mask, gpu.dd_source_mask)]
            )
            self._open_delegates = state.delegate_values == UNVISITED
            self._open_delegate_counts = (
                (self._delegate_sources & self._open_delegates).sum(axis=1).tolist()
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
        fresh ones and closes them to future pulls on every GPU."""
        fresh = self.state.update_delegates(ids, values, self.program.accept)
        if fresh.size and self._open_delegates is not None:
            closing = fresh[self._open_delegates[fresh]]
            if closing.size:
                self._open_delegates[closing] = False
                counts = self._open_delegate_counts
                closed = self._delegate_sources[:, closing].sum(axis=1).tolist()
                for row, count in enumerate(closed):
                    counts[row] -= count
        return fresh

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        """Build the step's shared input: the dense delegate frontier."""
        flags = np.zeros(self.graph.num_delegates, dtype=bool)
        frontier_d = self.state.delegate_frontier
        if frontier_d.size:
            flags[frontier_d] = True
        self.dense_delegate = flags

    def dense_local(self, g: int) -> np.ndarray:
        """GPU ``g``'s dense normal frontier (what a backward nd pull scans)."""
        flags = np.zeros(self.graph.gpus[g].num_local, dtype=bool)
        frontier = self.state.normal_frontiers[g]
        if frontier.size:
            flags[frontier] = True
        return flags

    def push_payload(self, kernel: str, g: int, out_degrees: np.ndarray) -> dict:
        """Previsit-filter the kernel's input frontier into forward-task
        fields.  Built only for a kernel that pushes: the walk decides
        directions on degree sums, which need no queue."""
        frontier = self.normal_rows(g) if kernel in NORMAL_SOURCED else self.delegate_rows()
        return {
            "queue": frontier[out_degrees[frontier] > 0],
            "keep_sources": self._keep_sources[kernel],
            # Weighted programs gather edge weights on every forward visit
            # (they never pull: needs_weights implies no direction switch).
            "weighted": self.program.needs_weights,
        }

    def pull_payload(self, kernel: str, g: int) -> dict:
        """The rows that pull — the still-open sources of the kernel's
        reverse subgraph on GPU ``g`` — built here, for a kernel that pulls."""
        open_rows = (
            self._open_slots[g]
            if kernel == "dn"
            else self._delegate_sources[2 * g + (kernel == "dd")] & self._open_delegates
        )
        return {
            "candidates": np.flatnonzero(open_rows),
            "keep_sources": self._keep_sources[kernel],
        }

    def backward_workload(
        self, kernel: str, g: int, frontier_size: int, reverse_degrees: np.ndarray
    ) -> float:
        """The paper's expected-first-hit estimate ``|U| (q + s) / q`` from
        the counted open rows: ``U`` pulls, ``s`` are the unvisited forward
        sources (for dd the two coincide)."""
        if self._open_delegates is None:
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
        # Per GPU, the delegate update it proposes — a visited mask or a
        # dense value array — built on its first proposal (``None`` until
        # then: a GPU that found nothing owns no O(d) buffer).
        self._updates: list = [None] * p

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
            values = self._kernel_values(g, "dn", out, found, self._keep_sources["dn"])
            slots, values = program.merge_remote(found, values)
            self._fresh_dn[g] = self._update_normals(g, slots, values)
        elif self._mask_channel:
            found = sorted_unique(found)
            # Drop delegates that are already visited (their status is
            # replicated, so this local filter needs no communication and
            # avoids pointless mask reductions).
            found = found[~state.delegate_visited.test_many(found)]
            if found.size:
                if self._updates[g] is None:
                    self._updates[g] = Bitmask(self.graph.num_delegates)
                self._updates[g].set_many(found)
        else:
            # Values channel: propose program values, keep only proposals the
            # (replicated) current values would accept, and combine them into
            # the dense per-GPU proposal array.
            ids = np.asarray(found, dtype=np.int64)
            vals = self._kernel_values(g, kernel, out, ids, True)
            keep = program.accept(state.delegate_values[ids], vals)
            ids, vals = ids[keep], vals[keep]
            if ids.size:
                if self._updates[g] is None:
                    self._updates[g] = self._no_update.copy()
                program.combine.at(self._updates[g], ids, vals)

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
        """All-reduce the per-GPU delegate updates if any GPU produced one;
        installs the next delegate frontier.  Returns the reduce result, or
        ``None`` when no reduction was needed.

        The updates were filtered against the replicated delegate state when
        they were folded, and that state does not change between fold and
        reduce: every set bit (non-identity entry) of the merged result is a
        proposal for a delegate the state would accept, so the merged result
        is read as it stands, without masking out the visited delegates.
        """
        program = self.program
        state = self.state
        state.delegate_frontier = _EMPTY_I64
        if all(update is None for update in self._updates):
            return None
        blocking = self.options.blocking_reduce
        updates = [self._no_update if update is None else update for update in self._updates]
        reduce = communicator.allreduce(updates, blocking=blocking, combine=program.combine)
        if self._mask_channel:
            ids = reduce.merged.to_indices()
            values = np.full(ids.size, program.level_value(self.level), dtype=np.int64)
        else:
            ids = np.flatnonzero(reduce.merged != program.combine_identity)
            values = reduce.merged[ids]
        state.delegate_frontier = self._update_delegates(ids, values)
        return reduce

    # ------------------------------------------------------------------ #
    # Overlay relaxation (mutable graphs)
    # ------------------------------------------------------------------ #
    def capture(self) -> list:
        """Snapshot the step's input frontier as ``(g, rows, carried)``
        segments (finalize replaces the arrays); ``g`` is ``None`` for the
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
        # What a GPU that proposed no delegate contributes to a reduction:
        # one shared, read-only all-zero update mask.
        self._no_update = BatchBitmask(graph.num_delegates, state.width)
        self._no_update.words.setflags(write=False)

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
    # Plan
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        self.dense_delegate = self._dense(None, self.graph.num_delegates)
        # Per (kernel, GPU), the rows still open to a pull this step.  Built
        # when the walk asks for a backward workload — which, unlike the
        # one-bit estimate, is a sum over the rows themselves — and reused
        # if that kernel then pulls.
        self._candidates: dict = {}
        self._open_delegates = None

    def _dense(self, g: int | None, num_rows: int) -> np.ndarray:
        dense = np.zeros((num_rows, self.nwords), dtype=np.uint64)
        rows, words = self.state.frontier(g)
        if rows.size:
            dense[rows] = words
        return dense

    def dense_local(self, g: int) -> np.ndarray:
        return self._dense(g, self.graph.gpus[g].num_local)

    def push_payload(self, kernel: str, g: int, out_degrees: np.ndarray) -> dict:
        rows, words = batched_filter_frontier(
            *self.state.frontier(g if kernel in NORMAL_SOURCED else None), out_degrees
        )
        return {"queue": rows, "words": words}

    def _pull_rows(self, kernel: str, g: int) -> np.ndarray:
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

    def pull_payload(self, kernel: str, g: int) -> dict:
        """The rows that pull and the lanes each of them still wants."""
        rows = self._pull_rows(kernel, g)
        visited = self.state.visited_n[g] if kernel == "dn" else self.state.visited_d
        return {"candidates": rows, "words": self._wanted(visited, rows)}

    def backward_workload(
        self, kernel: str, g: int, frontier_size: int, reverse_degrees: np.ndarray
    ) -> int:
        """A batched pull has no early exit, so its workload is not the
        paper's expected-first-hit estimate but the exact full parent lists
        of the rows that would pull — computable from the reverse CSR."""
        rows = self._pull_rows(kernel, g)
        return int(reverse_degrees[rows].sum()) if rows.size else 0

    # ------------------------------------------------------------------ #
    # Fold → exchange → delegate reduce
    # ------------------------------------------------------------------ #
    def begin_fold(self) -> None:
        p = self.graph.num_gpus
        self._outboxes: list[np.ndarray] = [_EMPTY_I64] * p
        self._outbox_words: list[np.ndarray] = [self._no_words] * p
        self._fresh_dn = [(_EMPTY_I64, self._no_words)] * p
        # Per GPU, its delegate update mask, built on the first delegate it
        # proposes (``None`` until then).
        self._updates: list = [None] * p

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
                if self._updates[g] is None:
                    self._updates[g] = BatchBitmask(self.graph.num_delegates, self.state.width)
                self._updates[g].or_rows(found[keep], words[keep])

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
        updates were filtered against the replicated visited lanes when they
        were folded (and those do not change between fold and reduce), so
        the merged mask holds only new lanes and is read as it stands."""
        state = self.state
        if all(mask is None for mask in self._updates):
            state.set_frontier(None, _EMPTY_I64, self._no_words)
            return None
        reduce = communicator.allreduce(
            [self._no_update if mask is None else mask for mask in self._updates],
            blocking=self.options.blocking_reduce,
        )
        rows = reduce.merged.nonzero_rows()
        words = reduce.merged.words[rows]
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
