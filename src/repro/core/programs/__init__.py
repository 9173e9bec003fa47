"""Frontier programs: traversal algorithms over the degree-separated engine.

A :class:`FrontierProgram` captures what a traversal *means* — the value a
discovered vertex stores, when a proposal beats the current value, how
duplicate proposals merge — while :class:`repro.core.engine.TraversalEngine`
owns the mechanics every algorithm shares (four-subgraph kernels, direction
optimization, the exchange and reduction channels, the performance model).

Shipped programs
----------------
:class:`BFSLevels`
    The paper's algorithm: hop distances from one source (visit-once, 1-bit
    delegate masks, full direction optimization).
:class:`BFSParents`
    Graph500-style parent tree; parent payloads ride the normal-vertex
    exchange and a 64-bit min-reduction replaces the delegate masks.
:class:`ConnectedComponents`
    Min-label propagation to a fixpoint over the (symmetric) edges.
:class:`KHopReachability`
    BFS truncated after ``max_hops`` super-steps.
:class:`BatchedBFSLevels` / :class:`BatchedReachability`
    MS-BFS style batches: B sources share one frontier sweep through
    :meth:`repro.core.engine.TraversalEngine.run_batch`, with per-lane
    answers bit-identical to the sequential programs (the serving path's
    workhorse; see :mod:`repro.core.programs.batched`).

What every *layer* knows about a shipped program — its name, parameters,
batched and maintained forms, serial oracle — is one row of
:data:`repro.core.programs.table.PROGRAM_TABLE`; :func:`make_program` is the
only name -> instance path.

Writing your own program means subclassing :class:`FrontierProgram` and
implementing ``init_state`` / ``visit_value`` / ``make_result`` (plus
``accept`` / ``merge_remote`` when the defaults don't fit); see
:mod:`repro.core.programs.base` for the full contract.
"""

from repro.core.programs.base import FrontierProgram, ProgramInit, VisitContext
from repro.core.programs.batched import (
    BatchedBFSLevels,
    BatchedFrontierProgram,
    BatchedReachability,
)
from repro.core.programs.bfs_levels import BFSLevels
from repro.core.programs.bfs_parents import BFSParents
from repro.core.programs.components import ConnectedComponents
from repro.core.programs.khop import KHopReachability
from repro.core.programs.table import PROGRAM_TABLE, make_program

__all__ = [
    "FrontierProgram",
    "ProgramInit",
    "VisitContext",
    "BFSLevels",
    "BFSParents",
    "ConnectedComponents",
    "KHopReachability",
    "BatchedFrontierProgram",
    "BatchedBFSLevels",
    "BatchedReachability",
    "PROGRAM_TABLE",
    "make_program",
]
