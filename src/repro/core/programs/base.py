"""The frontier-program protocol: what a traversal *means*.

The degree-separated engine (:class:`repro.core.engine.TraversalEngine`) owns
the mechanics every algorithm shares — per-subgraph direction optimization,
the nn point-to-point exchange, the delegate reductions, the performance
model.  What a discovered vertex *means* is delegated to a
:class:`FrontierProgram` through five hooks, in the spirit of Gunrock's
advance/filter operator decomposition:

``init_state``
    Seed the per-vertex values and the initial frontiers.
``visit_value``
    The value a kernel's discoveries propose for their destinations (the hop
    level, the discovering parent, a component label, …).
``accept``
    Which proposed values beat the destination's current value (visit-once
    for BFS-style programs, monotone improvement for label propagation).
``merge_remote``
    Combine duplicate proposals for the same vertex arriving from several
    sources or GPUs.
``make_result``
    Wrap the final gathered values into the algorithm's result type.

Class-level attributes describe what the program needs from the engine: a
per-discovery payload on the nn exchange (``payload_exchange``), a value
reduction instead of the 1-bit visited masks on the delegate channel
(``delegate_channel``) and whether backward-pull direction optimization is
meaningful (``direction_optimized_ok``).  Whether already-valued vertices
may be updated again is entirely the ``accept`` hook's decision — the
default is visit-once; label-propagation programs accept any improvement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.state import UNVISITED
from repro.partition.subgraphs import PartitionedGraph

__all__ = ["ProgramInit", "VisitContext", "FrontierProgram", "single_source_init"]

#: Sentinel for "no proposal" in delegate value reductions (larger than any
#: vertex id or level, so ``np.minimum`` treats it as the identity).
COMBINE_IDENTITY = np.int64(np.iinfo(np.int64).max)


@dataclass
class ProgramInit:
    """Initial traversal state produced by :meth:`FrontierProgram.init_state`."""

    #: Per GPU, the int64 value of every local normal slot (-1 = unset).
    normal_values: list[np.ndarray]
    #: Replicated int64 value per delegate (-1 = unset).
    delegate_values: np.ndarray
    #: Per GPU, local slots forming the initial normal frontier.
    normal_frontiers: list[np.ndarray]
    #: Delegate ids forming the initial (shared) delegate frontier.
    delegate_frontier: np.ndarray


def single_source_init(graph: PartitionedGraph, source: int, value: int) -> ProgramInit:
    """Seed a single-source traversal: every vertex unset except ``source``.

    The source receives ``value`` and forms the initial frontier on whichever
    side (delegate or local normal slot) the degree separation placed it —
    the shared starting point of the BFS-style programs.
    """
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range [0, {graph.num_vertices})")
    d = graph.num_delegates
    init = ProgramInit(
        normal_values=[
            np.full(gpu.num_local, UNVISITED, dtype=np.int64) for gpu in graph.gpus
        ],
        delegate_values=np.full(d, UNVISITED, dtype=np.int64),
        normal_frontiers=[np.zeros(0, dtype=np.int64) for _ in graph.gpus],
        delegate_frontier=np.zeros(0, dtype=np.int64),
    )
    delegate_id = int(graph.separation.delegate_id_of[source])
    if delegate_id >= 0:
        init.delegate_values[delegate_id] = value
        init.delegate_frontier = np.asarray([delegate_id], dtype=np.int64)
    else:
        owner = int(graph.layout.flat_gpu_of(source))
        slot = int(graph.layout.local_index_of(source))
        init.normal_values[owner][slot] = value
        init.normal_frontiers[owner] = np.asarray([slot], dtype=np.int64)
    return init


@dataclass
class VisitContext:
    """What one visit kernel discovered, handed to :meth:`visit_value`.

    ``discovered`` ids live in the kernel's destination space (global vertex
    ids for nn, delegate ids for nd/dd, local slots for dn and for received
    exchange traffic); the engine handles the space conversions.  The parallel
    ``source_ids`` / ``source_values`` arrays are only populated for programs
    that declare they need them (``payload_exchange`` or a ``values`` delegate
    channel); level-style programs ignore them.
    """

    #: Which kernel produced the discoveries: "nn", "nd", "dn", "dd", or
    #: "recv" for updates arriving through the normal-vertex exchange.
    kernel: str
    #: Flat GPU index that ran the kernel; for "recv" contexts, the
    #: destination GPU whose inbox is being applied.
    gpu: int
    #: Super-step number (1-based; the source sits at level 0).
    level: int
    #: Whether the kernel ran backward-pull.
    backward: bool
    #: Destination ids discovered (kernel destination id space).
    discovered: np.ndarray
    #: Global vertex id of the discovering source, per entry of ``discovered``.
    source_ids: np.ndarray | None = None
    #: Current program value of the discovering source, per entry.
    source_values: np.ndarray | None = None
    #: Weight of the traversed edge, per entry — populated only for programs
    #: declaring :attr:`FrontierProgram.needs_weights` on forward kernels
    #: ("recv" contexts never carry weights: weighted programs exchange
    #: payloads, so received values are already folded).
    edge_weights: np.ndarray | None = None


class FrontierProgram(ABC):
    """One traversal algorithm expressed over the degree-separated engine.

    Subclasses override the hooks and tune the class attributes; see the
    module docstring for the contract and
    :mod:`repro.core.programs.bfs_levels` for the canonical example.
    """

    #: Short name used in result summaries and CLI output.
    name: str = "traversal"
    #: Whether the nn exchange must carry a per-discovery value payload.
    payload_exchange: bool = False
    #: "mask": delegate updates are 1-bit visited flags OR-reduced as in the
    #: paper; "values": delegate updates carry int64 values combined with
    #: :attr:`combine` (64x the mask volume — the engine charges it).
    delegate_channel: str = "mask"
    #: Whether backward-pull direction optimization is sound for this program
    #: (requires visit-once semantics: any frontier parent is as good as any
    #: other).
    direction_optimized_ok: bool = True
    #: Stop after this many super-steps even if the frontier is non-empty
    #: (``None`` = run to fixpoint).
    max_levels: int | None = None
    #: Whether forward visits must gather the traversed edges' weights into
    #: :attr:`VisitContext.edge_weights` (SSSP-style relaxations).  Requires
    #: the partitioned graph to carry ``edge_weights`` and implies
    #: forward-only traversal (``direction_optimized_ok = False``) — a
    #: backward pull's early exit cannot pick the lightest parent edge.
    needs_weights: bool = False
    #: Binary ufunc merging duplicate proposals for one vertex.
    combine = np.minimum
    #: Neutral element of :attr:`combine` for dense proposal arrays.
    combine_identity: np.int64 = COMBINE_IDENTITY

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def init_state(self, graph: PartitionedGraph) -> ProgramInit:
        """Seed per-vertex values and the initial frontiers."""

    @abstractmethod
    def visit_value(self, ctx: VisitContext) -> np.ndarray:
        """Value proposed for each entry of ``ctx.discovered`` (int64)."""

    def accept(self, current: np.ndarray, proposed: np.ndarray) -> np.ndarray:
        """Boolean mask of proposals that beat the current values.

        The default is visit-once: only vertices with no value yet accept.
        """
        return current == UNVISITED

    def merge_remote(
        self, ids: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Combine duplicate proposals for the same vertex id.

        Returns deduplicated ids (sorted) with one combined value each; the
        default keeps the :attr:`combine` of all proposals (e.g. the smallest
        parent id), which is also what a real GPU's atomicMin performs.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.int64).ravel()
        # Strictly increasing ids (a backward pull's discoveries, a uniquified
        # inbox, a single proposal, none at all) are their own answer: one
        # compare pass instead of a sort, an inverse and an argsort.
        if (ids[1:] > ids[:-1]).all():
            return ids, values
        unique, inverse = np.unique(ids, return_inverse=True)
        if unique.size == ids.size:
            return unique, values[np.argsort(ids, kind="stable")]
        merged = np.full(unique.size, self.combine_identity, dtype=np.int64)
        self.combine.at(merged, inverse, values)
        return unique, merged

    @abstractmethod
    def make_result(self, values: np.ndarray, base: dict):
        """Wrap the final global value array into the result type.

        ``base`` holds the engine-supplied constructor kwargs every
        :class:`repro.core.results.TraversalResult` shares (iterations,
        records, timing, comm_stats, total_edges_examined,
        num_directed_edges).
        """

    # ------------------------------------------------------------------ #
    # Mask-channel support
    # ------------------------------------------------------------------ #
    def level_value(self, level: int) -> int:
        """Value assigned to delegates discovered through the mask channel.

        Mask-channel programs carry no payload, so a fresh delegate's value
        must be computable from the super-step number alone; the default (the
        level itself) suits level-style programs.
        """
        return level

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        attrs = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{type(self).__name__}({attrs})"
