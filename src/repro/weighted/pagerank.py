"""Deterministic fixed-point PageRank over the partitioned engine.

Rank mass travels as ``int64`` fixed-point integers (one rank unit =
``SCALE``), and every fold along the way — the per-edge contribution
scatter, the exchange payload combine, the delegate all-reduce — is an
integer add.  Integer addition is associative and commutative, so the
answer is bit-identical regardless of which backend or storage tier
ran the sweep, and regardless of arrival order.  The
damping multiply is exact too: :func:`damped` splits the operand with a
``divmod`` so no intermediate exceeds ``2**54``.

Two modes share the machinery:

* ``"fixed"`` — the textbook power sweep, run for exactly
  ``iterations`` rounds.  Every vertex with out-edges contributes
  ``damped(rank) // outdeg`` along each edge; dangling mass is spread
  uniformly.
* ``"push"`` — residual push: vertices accumulate rank monotonically
  and only push when their un-propagated residual crosses ``eps``;
  the sweep stops when no vertex is active.  Work scales with how much
  mass still moves instead of with the vertex count.

PageRank runs on weighted and unweighted graphs alike — the paper's
contribution model is degree-based, so edge weights are ignored.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.netmodel import StepBill
from repro.core.engine import RunLedger
from repro.core.frontier import NORMAL_SOURCED, run_visit
from repro.core.kernels import contrib_visit
from repro.core.results import IterationRecord
from repro.utils.timing import now_s
from repro.weighted.results import PageRankResult

__all__ = ["PageRank", "SCALE", "DAMP_DEN", "damped"]

#: Fixed-point scale of one rank unit (a probability of 1.0).
SCALE = 1 << 34
#: Denominator of the damping fraction (damping is rounded to 1/2^20).
DAMP_DEN = 1 << 20
#: The order a sweep bills a GPU's kernels in (the float sum keeps it).
_BILL_ORDER = ("nn", "dn", "nd", "dd")


def damped(x, damp_num: int):
    """``x * damping`` exactly, in integers, overflow-free.

    ``x`` is at most ``SCALE`` (2^34) and ``damp_num`` at most ``DAMP_DEN``
    (2^20); splitting ``x`` with a divmod keeps every intermediate below
    ``2^54``.
    """
    q, rem = np.divmod(x, DAMP_DEN)
    return q * damp_num + (rem * damp_num) // DAMP_DEN


class PageRank:
    """PageRank driver: self-scheduled contribution sweeps.

    The engine dispatches to :meth:`drive`, which owns the outer loop:
    each round it runs one contribution super-step (a
    :func:`~repro.core.kernels.contrib_visit` per subgraph kernel with an
    active row, through :func:`~repro.core.frontier.run_visit`), folds the
    received mass with integer adds, and updates the rank vector.  The
    run's accounting is the engine's :class:`~repro.core.engine.RunLedger`,
    which prices each step's bill.

    The walk and its charging rules are PageRank's own, not the
    engine's, and its bill states them: a GPU's filter is ``2 * queued``
    elements, its kernel terms run nn, dn, nd, dd and a kernel that
    discovered nothing has no term, overlay edges are one more kernel term on
    GPU 0 (inside the slowest-GPU max, not after the overlap) and
    ``discovered`` counts the vertices that received mass.  They define
    PageRank's modeled time, which the ``pagerank_*`` CLI goldens and the
    ``pagerank-rmat14-fixed`` baseline record pin, so moving PageRank onto
    the engine's walk would move ``modeled_ms``.

    Parameters
    ----------
    damping:
        Teleport damping factor in (0, 1); rounded to a multiple of
        ``1 / 2^20`` so the arithmetic stays integral.
    mode:
        ``"fixed"`` (power sweeps) or ``"push"`` (residual push).
    iterations:
        Sweep count for ``"fixed"`` mode.
    eps:
        Residual threshold for ``"push"`` mode, as a fraction of total
        rank mass: a vertex pushes when its un-propagated residual is at
        least ``eps * SCALE``.
    """

    name = "pagerank"
    needs_weights = False
    max_levels = None

    def __init__(
        self,
        damping: float = 0.85,
        mode: str = "fixed",
        iterations: int = 20,
        eps: float = 1e-7,
    ) -> None:
        damping = float(damping)
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping!r}")
        if mode not in ("fixed", "push"):
            raise ValueError(f"mode must be 'fixed' or 'push', got {mode!r}")
        iterations = int(iterations)
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations!r}")
        eps = float(eps)
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps!r}")
        self.damping = damping
        self.mode = mode
        self.iterations = iterations
        self.eps = eps
        self.damp_num = int(round(damping * DAMP_DEN))

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def drive(self, engine, init=None, overlay=None) -> PageRankResult:
        if init is not None:
            raise ValueError("pagerank does not support seeded init / repair")
        graph = engine.graph
        opts = engine.options
        n = graph.num_vertices
        p = graph.num_gpus
        d = graph.num_delegates
        dv = graph.delegate_vertices

        if overlay is not None and not overlay.empty:
            o_src, o_dst, _ = overlay.edges()
        else:
            o_src = o_dst = np.zeros(0, dtype=np.int64)

        # Global out-degrees.  nn/nd rows are a GPU's owned (normal) slots
        # and live only on the owner; dn/dd rows are delegate ids and each
        # GPU holds a disjoint slice of a delegate's out-edges, so summing
        # over GPUs recovers the full degree.  Overlay edges count too.
        outdeg = np.zeros(n, dtype=np.int64)
        for g in range(p):
            deg = engine._degrees[g]
            owned = graph.gpus[g].owned_global_ids()
            outdeg[owned] += deg["nn"] + deg["nd"]
            if d:
                outdeg[dv] += deg["dn"] + deg["dd"]
        if o_src.size:
            np.add.at(outdeg, o_src, 1)
        nz = outdeg > 0

        teleport = np.int64((SCALE - int(damped(SCALE, self.damp_num))) // n)
        ledger = RunLedger(engine, self.name)

        if self.mode == "fixed":
            r = np.full(n, SCALE // n, dtype=np.int64)
            for sweep in range(1, self.iterations + 1):
                dr = damped(r, self.damp_num)
                contrib = np.zeros(n, dtype=np.int64)
                contrib[nz] = dr[nz] // outdeg[nz]
                dangling = int(dr[~nz].sum())
                recv = self._sweep(engine, ledger, sweep, contrib, nz, o_src, o_dst)
                r = teleport + recv + np.int64(dangling // n)
        else:
            eps_scaled = max(1, int(round(self.eps * SCALE)))
            r = np.full(n, teleport, dtype=np.int64)
            pushed = np.zeros(n, dtype=np.int64)
            sweep = 0
            while True:
                dr = damped(r, self.damp_num)
                want = np.where(nz, dr // np.maximum(outdeg, 1), dr)
                resid = want - pushed
                active = nz & (resid * outdeg >= eps_scaled)
                active_dangling = ~nz & (resid >= eps_scaled)
                if not active.any() and not active_dangling.any():
                    break
                sweep += 1
                if sweep > opts.max_iterations:
                    raise RuntimeError(
                        f"{self.name} exceeded max_iterations="
                        f"{opts.max_iterations}; eps may be too small for "
                        "the fixed-point resolution"
                    )
                contrib = np.where(active, resid, np.int64(0))
                dangling = int(resid[active_dangling].sum())
                recv = self._sweep(engine, ledger, sweep, contrib, active, o_src, o_dst)
                pushed[active] = want[active]
                pushed[active_dangling] = want[active_dangling]
                r = r + recv + np.int64(dangling // n)

        return PageRankResult(
            damping=self.damping,
            mode=self.mode,
            scale=SCALE,
            ranks=r,
            **ledger.close(),
        )

    # ------------------------------------------------------------------ #
    # One contribution super-step
    # ------------------------------------------------------------------ #
    def _sweep(
        self, engine, ledger: RunLedger, level: int, contrib: np.ndarray, active: np.ndarray,
        o_src: np.ndarray, o_dst: np.ndarray,
    ) -> np.ndarray:
        """Scatter ``contrib`` along the active vertices' out-edges.

        Books the step in ``ledger`` and returns the per-vertex received
        mass (an exact integer sum over incoming edges, backend-invariant).
        """
        graph = engine.graph
        p = graph.num_gpus
        d = graph.num_delegates
        dv = graph.delegate_vertices

        step_started = now_s()
        outputs: list[dict] = []
        filters: list[int] = []
        active_total = 0
        active_delegates = int(np.count_nonzero(active[dv])) if d else 0
        for g in range(p):
            deg = engine._degrees[g]
            owned = graph.gpus[g].owned_global_ids()
            outs: dict = {}
            queued = 0
            for kernel in engine._kernels[g]:
                # nn / nd rows are this GPU's normal slots, dn / dd rows
                # delegate ids.
                ids = owned if kernel in NORMAL_SOURCED else dv
                rows = np.flatnonzero((deg[kernel] > 0) & active[ids])
                if rows.size:
                    outs[kernel] = run_visit(
                        graph, g, kernel, kernel, contrib_visit, rows, contrib[ids[rows]]
                    )
                    queued += int(rows.size)
            filters.append(2 * queued)
            active_total += queued
            outputs.append(outs)

        fold_started = ledger.phase("plan", step_started)
        # Contribution sweeps take no direction decision.
        record = IterationRecord(
            level, active_total, active_delegates, directions={"nd": 0, "dn": 0, "dd": 0}
        )
        bill = StepBill([[] for _ in range(p)], filters)
        recv = self._finalize_sweep(
            outputs, engine, ledger, level, fold_started, contrib, active, o_src, o_dst,
            record, bill,
        )
        ledger.step(step_started, level, record, bill)
        return recv

    def _finalize_sweep(
        self, outputs: list, engine, ledger: RunLedger, level: int, fold_started: float,
        contrib: np.ndarray, active: np.ndarray, o_src: np.ndarray, o_dst: np.ndarray,
        record: IterationRecord, bill: StepBill,
    ) -> np.ndarray:
        """Fold the sweep's outputs, exchange, reduce: the received mass.
        Completes the step's ``record`` (but its modeled times) and ``bill``."""
        graph = engine.graph
        opts = engine.options
        n = graph.num_vertices
        p = graph.num_gpus
        d = graph.num_delegates
        dv = graph.delegate_vertices

        local_accum = [
            np.zeros(graph.gpus[g].num_local, dtype=np.int64) for g in range(p)
        ]
        delegate_accum = [np.zeros(d, dtype=np.int64) for g in range(p)]
        empty_i64 = np.zeros(0, dtype=np.int64)
        nn_outboxes = [empty_i64] * p
        nn_payloads = [empty_i64] * p
        kernels = bill.kernels
        edges_examined = record.edges_examined = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}

        for g in range(p):
            for kernel in _BILL_ORDER:
                out = outputs[g].get(kernel)
                if out is None or not out.discovered.size:
                    continue
                kernels[g].append((out.edges_examined, False))
                edges_examined[kernel] += out.edges_examined
                if kernel == "nn":
                    nn_outboxes[g], nn_payloads[g] = out.discovered, out.values
                else:
                    accum = local_accum[g] if kernel == "dn" else delegate_accum[g]
                    np.add.at(accum, out.discovered, out.values)

        exchange_started = ledger.phase("fold", fold_started, level, "fold")
        exchange = ledger.communicator.exchange(
            nn_outboxes,
            local_all2all=opts.local_all2all,
            uniquify=opts.uniquify,
            payloads=nn_payloads,
            payload_combine=np.add,
            payload_identity=np.int64(0),
        )
        for g in range(p):
            inbox = exchange.inboxes[g]
            if inbox.size:
                np.add.at(local_accum[g], inbox, exchange.payload_inboxes[g])

        reduce_started = ledger.phase("exchange", exchange_started, level, "nn-exchange")
        reduce = None
        proposals = [None] * p
        for g, accum in enumerate(delegate_accum):
            ids = np.flatnonzero(accum)
            if ids.size:
                proposals[g] = (ids, accum[ids])
        if any(proposal is not None for proposal in proposals):
            reduce = ledger.communicator.allreduce(
                proposals, d, blocking=opts.blocking_reduce, combine=np.add, identity=0
            )
        ledger.phase("delegate_reduce", reduce_started, level, "delegate-reduce")

        # Assemble the global received-mass vector.  Ownership is disjoint;
        # mass for delegate vertices arrives only through the nd/dd reduce.
        recv = np.zeros(n, dtype=np.int64)
        for g in range(p):
            recv[graph.gpus[g].owned_global_ids()] = local_accum[g]
        if reduce is not None:
            recv[dv[reduce.ids]] += reduce.values

        # Overlay edges (not yet compacted into the CSR) relax here, after
        # the kernels, so the sweep sees the union graph.
        if o_src.size:
            take = active[o_src]
            overlay_edges = int(np.count_nonzero(take))
            if overlay_edges:
                np.add.at(recv, o_dst[take], contrib[o_src[take]])
                kernels[0].append((overlay_edges, False))
                edges_examined["overlay"] = overlay_edges
        record.discovered = int(np.count_nonzero(recv))
        record.delegate_reduce = reduce is not None
        bill.exchange = exchange.bill
        bill.reduce = None if reduce is None else reduce.bill
        return recv
