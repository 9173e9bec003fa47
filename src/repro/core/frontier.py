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
previsit filter / payload  dedup + zero-degree drop;       zero-degree drop; lane words
of a forward task          ``keep_sources`` / ``weighted`` parallel to the queue
open (pull-capable) rows   value still ``UNVISITED``       some lane still unvisited
backward workload          expected first hit              exact parent-degree sum (a
                           ``|U|(q+s)/q`` (paper §IV)      batched pull has no early exit)
folding a discovery        program ``visit_value`` /       ``& wanted`` lanes, ``record``
                           ``accept`` / ``merge_remote``
                           / ``combine``
nn exchange                ``exchange_normals`` (+payload) ``exchange_batch``
delegate reduce            1-bit masks or 64-bit values    one ``d x B``-bit reduction
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
from repro.core.programs.base import VisitContext
from repro.core.state import UNVISITED, TraversalState
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.bitmask import BatchBitmask, Bitmask
from repro.utils.sorting import sorted_unique

__all__ = ["BatchState", "FlagFrontier", "LaneFrontier", "frontier_for", "global_ids"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: Kernels whose frontier rows (forward sources) are local normal slots; the
#: other two (dn, dd) expand the replicated delegate frontier.
_NORMAL_SOURCED = ("nn", "nd")


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
    """

    def __init__(self, graph, options, provider, program, state: TraversalState) -> None:
        self.graph = graph
        self.options = options
        self.provider = provider
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

    # ------------------------------------------------------------------ #
    # Loop
    # ------------------------------------------------------------------ #
    def frontier_empty(self) -> bool:
        return self.state.frontier_empty()

    def normal_size(self, g: int) -> int:
        return int(self.state.normal_frontiers[g].size)

    def delegate_size(self) -> int:
        return int(self.state.delegate_frontier.size)

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        """Build the step's shared inputs: the dense delegate frontier and
        the delegates still open to a pull."""
        d = self.graph.num_delegates
        frontier_d = self.state.delegate_frontier
        flags = np.zeros(d, dtype=bool)
        if frontier_d.size:
            flags[frontier_d] = True
        self.dense_delegate = flags
        self.open_delegates = (
            self.state.unvisited_delegates() if self.pull_ok and d else _EMPTY_I64
        )

    def dense_local(self, g: int) -> np.ndarray:
        """GPU ``g``'s dense normal frontier (what a backward nd pull scans)."""
        flags = np.zeros(self.graph.gpus[g].num_local, dtype=bool)
        frontier = self.state.normal_frontiers[g]
        if frontier.size:
            flags[frontier] = True
        return flags

    def open_locals(self, g: int, slots: np.ndarray) -> np.ndarray:
        """Mask of ``slots`` on GPU ``g`` that could still gain from a pull."""
        return self.state.normal_values[g][slots] == UNVISITED

    def push_payload(self, kernel: str, g: int, out_degrees: np.ndarray) -> dict:
        """Previsit-filter the kernel's input frontier into forward-task fields."""
        state = self.state
        frontier = (
            state.normal_frontiers[g] if kernel in _NORMAL_SOURCED else state.delegate_frontier
        )
        return {
            "queue": self.provider.filter_frontier(frontier, out_degrees),
            "keep_sources": self._keep_sources[kernel],
            # Weighted programs gather edge weights on every forward visit
            # (they never pull: needs_weights implies no direction switch).
            "weighted": self.program.needs_weights,
        }

    def pull_payload(self, kernel: str, g: int, candidates: np.ndarray) -> dict:
        return {"keep_sources": self._keep_sources[kernel]}

    def backward_workload(
        self, candidates, frontier_size: int, unvisited_sources, reverse_degrees
    ) -> float:
        """The paper's expected-first-hit estimate ``|U| (q + s) / q``."""
        return estimate_backward_workload(
            candidates.size, q=frontier_size, s=int(unvisited_sources.size)
        )

    # ------------------------------------------------------------------ #
    # Fold → exchange → delegate reduce
    # ------------------------------------------------------------------ #
    def begin_fold(self) -> None:
        p = self.graph.num_gpus
        d = self.graph.num_delegates
        self._outboxes: list[np.ndarray] = []
        self._payloads: list[np.ndarray] = []
        self._fresh_dn: list[np.ndarray] = [_EMPTY_I64] * p
        if self._mask_channel:
            self._out_masks = [Bitmask(d) for _ in range(p)]
        else:
            self._proposals = [
                np.full(d, self.program.combine_identity, dtype=np.int64) for _ in range(p)
            ]
            self._proposals_any = False

    def _kernel_values(self, g: int, kernel: str, out, discovered, with_sources: bool):
        """The program's proposed values for one kernel's discoveries."""
        src_ids = src_vals = None
        if with_sources:
            src = out.sources
            if kernel in _NORMAL_SOURCED:
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
            self._outboxes.append(found)
            if program.payload_exchange:
                self._payloads.append(self._kernel_values(g, "nn", out, found, True))
        elif found.size == 0:
            return
        elif kernel == "dn":
            values = self._kernel_values(g, "dn", out, found, self._keep_sources["dn"])
            slots, values = program.merge_remote(found, values)
            self._fresh_dn[g] = state.update_normals(g, slots, values, program.accept)
        elif self._mask_channel:
            found = sorted_unique(found)
            # Drop delegates that are already visited (their status is
            # replicated, so this local filter needs no communication and
            # avoids pointless mask reductions).
            found = found[~self.provider.bitmask_test_many(state.delegate_visited, found)]
            if found.size:
                self.provider.bitmask_set_many(self._out_masks[g], found)
        else:
            # Values channel: propose program values, keep only proposals the
            # (replicated) current values would accept, and combine them into
            # the dense per-GPU proposal array.
            ids = np.asarray(found, dtype=np.int64)
            vals = self._kernel_values(g, kernel, out, ids, True)
            keep = program.accept(state.delegate_values[ids], vals)
            ids, vals = ids[keep], vals[keep]
            if ids.size:
                program.combine.at(self._proposals[g], ids, vals)
                self._proposals_any = True

    def exchange(self, communicator):
        program = self.program
        opts = self.options
        return communicator.exchange_normals(
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
        if program.payload_exchange:
            values = exchange.payload_inboxes[g]
        else:
            values = program.visit_value(
                VisitContext(
                    kernel="recv", gpu=g, level=self.level, backward=False, discovered=inbox
                )
            )
        slots, values = program.merge_remote(inbox, values)
        fresh_recv = self.state.update_normals(g, slots, values, program.accept)
        fresh_dn = self._fresh_dn[g]
        if fresh_dn.size or fresh_recv.size:
            frontier = np.union1d(fresh_dn, fresh_recv)
        else:
            frontier = np.zeros(0, dtype=np.int64)
        self.state.normal_frontiers[g] = frontier
        return int(frontier.size)

    def reduce_delegates(self, communicator):
        """All-reduce the per-GPU delegate updates if any GPU produced one;
        installs the next delegate frontier.  Returns the reduce result, or
        ``None`` when no reduction was needed."""
        program = self.program
        state = self.state
        blocking = self.options.blocking_reduce
        state.delegate_frontier = np.zeros(0, dtype=np.int64)
        if self._mask_channel:
            if not any(mask.any() for mask in self._out_masks):
                return None
            reduce = communicator.allreduce_delegate_masks(self._out_masks, blocking=blocking)
            ids = reduce.merged.and_not(state.delegate_visited).to_indices()
            values = np.full(ids.size, program.level_value(self.level), dtype=np.int64)
        else:
            if not self._proposals_any:
                return None
            reduce = communicator.allreduce_delegate_values(
                self._proposals, combine=program.combine, blocking=blocking
            )
            ids = np.flatnonzero(reduce.merged != program.combine_identity)
            values = reduce.merged[ids]
        state.delegate_frontier = state.update_delegates(ids, values, program.accept)
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
            fresh = state.update_delegates(rows, values, self.program.accept)
            if fresh.size:
                state.delegate_frontier = np.union1d(state.delegate_frontier, fresh)
        else:
            fresh = state.update_normals(g, rows, values, self.program.accept)
            if fresh.size:
                state.normal_frontiers[g] = np.union1d(state.normal_frontiers[g], fresh)
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

    def __init__(self, graph, options, provider, program, state: BatchState) -> None:
        self.graph = graph
        self.options = options
        self.provider = provider
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

    def normal_size(self, g: int) -> int:
        return int(self.state.frontier_n_rows[g].size)

    def delegate_size(self) -> int:
        return int(self.state.frontier_d_rows.size)

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def begin_step(self) -> None:
        state = self.state
        d = self.graph.num_delegates
        self.dense_delegate = self._dense(None, d)
        self._wanted_d = self._wanted(state.visited_d, slice(None))
        self.open_delegates = (
            np.flatnonzero(self._wanted_d.any(axis=1)).astype(np.int64)
            if self.pull_ok and d
            else _EMPTY_I64
        )

    def _dense(self, g: int | None, num_rows: int) -> np.ndarray:
        dense = np.zeros((num_rows, self.nwords), dtype=np.uint64)
        rows, words = self.state.frontier(g)
        if rows.size:
            dense[rows] = words
        return dense

    def dense_local(self, g: int) -> np.ndarray:
        return self._dense(g, self.graph.gpus[g].num_local)

    def open_locals(self, g: int, slots: np.ndarray) -> np.ndarray:
        return self._wanted(self.state.visited_n[g], slots).any(axis=1)

    def push_payload(self, kernel: str, g: int, out_degrees: np.ndarray) -> dict:
        rows, words = self.provider.batched_filter_frontier(
            *self.state.frontier(g if kernel in _NORMAL_SOURCED else None), out_degrees
        )
        return {"queue": rows, "words": words}

    def pull_payload(self, kernel: str, g: int, candidates: np.ndarray) -> dict:
        """The lanes each pulling candidate still wants (dn candidates are
        GPU ``g``'s local slots, nd/dd candidates are delegates)."""
        if kernel == "dn":
            return {"words": self._wanted(self.state.visited_n[g], candidates)}
        return {"words": self._wanted_d[candidates]}

    def backward_workload(
        self, candidates, frontier_size: int, unvisited_sources, reverse_degrees
    ) -> int:
        """A batched pull has no early exit, so its workload is not the
        paper's expected-first-hit estimate but the exact full parent lists
        of the candidates — computable from the reverse CSR."""
        return int(reverse_degrees[candidates].sum()) if candidates.size else 0

    # ------------------------------------------------------------------ #
    # Fold → exchange → delegate reduce
    # ------------------------------------------------------------------ #
    def begin_fold(self) -> None:
        p = self.graph.num_gpus
        d = self.graph.num_delegates
        self._outboxes: list[np.ndarray] = []
        self._outbox_words: list[np.ndarray] = []
        self._fresh_dn = [(_EMPTY_I64, np.zeros((0, self.nwords), dtype=np.uint64))] * p
        self._updates = [BatchBitmask(d, self.state.width) for _ in range(p)]

    def fold(self, g: int, kernel: str, out) -> None:
        found = out.discovered
        if kernel == "nn":
            self._outboxes.append(found)
            self._outbox_words.append(out.words)
        elif found.size == 0:
            return
        elif kernel == "dn":
            self._fresh_dn[g] = self._visit(g, found, out.words)
        else:
            # Delegate proposals: drop lanes already visited (the free
            # replicated-status filter, as the one-bit mask channel does).
            words = out.words & self._wanted_d[found]
            keep = words.any(axis=1)
            if keep.any():
                self._updates[g].or_rows(found[keep], words[keep])

    def exchange(self, communicator):
        return communicator.exchange_batch(self._outboxes, self._outbox_words)

    def receive(self, g: int, exchange) -> int:
        nwords = self.nwords
        received = self._visit(
            g, *_or_rows(exchange.inboxes[g], exchange.word_inboxes[g], nwords)
        )
        fresh = self._fresh_dn[g]
        rows, words = _or_rows(
            np.concatenate([fresh[0], received[0]]),
            np.concatenate([fresh[1], received[1]]),
            nwords,
        )
        self.state.set_frontier(g, rows, words)
        return int(rows.size)

    def reduce_delegates(self, communicator):
        state = self.state
        if not any(mask.any() for mask in self._updates):
            state.set_frontier(
                None, np.zeros(0, dtype=np.int64), np.zeros((0, self.nwords), dtype=np.uint64)
            )
            return None
        reduce = communicator.allreduce_delegate_batch(
            self._updates, blocking=self.options.blocking_reduce
        )
        new_bits = reduce.merged.and_not(state.visited_d)
        rows = new_bits.nonzero_rows()
        words = new_bits.words[rows]
        state.visited_d.or_with(new_bits)
        state.set_frontier(None, rows, words)
        if rows.size:
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


def frontier_for(graph, options, provider, program, state):
    """The representation matching the state an entry point built."""
    kind = LaneFrontier if isinstance(state, BatchState) else FlagFrontier
    return kind(graph, options, provider, program, state)
