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

from repro.cluster.comm import Communicator
from repro.core.results import IterationRecord
from repro.exec.plan import GPUPlan, SuperStepPlan, VisitSpec
from repro.obs.tracer import get_tracer
from repro.utils.timing import TimingBreakdown, now_s
from repro.weighted.results import PageRankResult

__all__ = ["PageRank", "SCALE", "DAMP_DEN", "damped"]

#: Fixed-point scale of one rank unit (a probability of 1.0).
SCALE = 1 << 34
#: Denominator of the damping fraction (damping is rounded to 1/2^20).
DAMP_DEN = 1 << 20


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
    each round it plans one contribution super-step (a ``contrib_visit``
    task per subgraph kernel), hands it to the engine's backend, folds
    the received mass with integer adds, and updates the rank vector.

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

        overlay_live = overlay is not None and not overlay.empty
        if overlay_live:
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
        communicator = Communicator(engine.topology, engine.netmodel)

        records: list[IterationRecord] = []
        timing = TimingBreakdown()
        total_edges = 0
        wall = {"kernels": 0.0, "exchange": 0.0, "delegate_reduce": 0.0}
        run_started = now_s()

        if self.mode == "fixed":
            r = np.full(n, SCALE // n, dtype=np.int64)
            for sweep in range(1, self.iterations + 1):
                dr = damped(r, self.damp_num)
                contrib = np.zeros(n, dtype=np.int64)
                contrib[nz] = dr[nz] // outdeg[nz]
                dangling = int(dr[~nz].sum())
                recv, record = self._sweep(
                    engine, communicator, sweep, contrib, nz, o_src, o_dst, wall
                )
                r = teleport + recv + np.int64(dangling // n)
                records.append(record)
                timing.add(record)
                total_edges += record.total_edges_examined()
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
                recv, record = self._sweep(
                    engine, communicator, sweep, contrib, active, o_src, o_dst, wall
                )
                pushed[active] = want[active]
                pushed[active_dangling] = want[active_dangling]
                r = r + recv + np.int64(dangling // n)
                records.append(record)
                timing.add(record)
                total_edges += record.total_edges_examined()

        timing.iterations = len(records)
        wall["traversal"] = now_s() - run_started
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(
                "traversal", cat="engine", start=run_started,
                dur=wall["traversal"],
                args={"program": self.name, "iterations": len(records)},
            )
        base = {
            "iterations": len(records),
            "records": records,
            "timing": timing,
            "comm_stats": communicator.stats,
            "total_edges_examined": total_edges,
            "num_directed_edges": graph.num_directed_edges,
            "wall_s": wall,
        }
        return PageRankResult(
            damping=self.damping,
            mode=self.mode,
            scale=SCALE,
            ranks=r,
            **base,
        )

    # ------------------------------------------------------------------ #
    # One contribution super-step
    # ------------------------------------------------------------------ #
    def _sweep(
        self,
        engine,
        communicator: Communicator,
        level: int,
        contrib: np.ndarray,
        active: np.ndarray,
        o_src: np.ndarray,
        o_dst: np.ndarray,
        wall: dict,
    ) -> tuple[np.ndarray, IterationRecord]:
        """Scatter ``contrib`` along the active vertices' out-edges.

        Returns the per-vertex received mass (an exact integer sum over
        incoming edges, backend-invariant) and the step's counter record.
        """
        graph = engine.graph
        opts = engine.options
        netmodel = engine.netmodel
        p = graph.num_gpus
        d = graph.num_delegates
        dv = graph.delegate_vertices

        plan_started = now_s()
        gpu_plans: list[GPUPlan] = []
        base_comp = np.zeros(p, dtype=np.float64)
        active_total = 0
        active_delegates = int(np.count_nonzero(active[dv])) if d else 0
        for g in range(p):
            part = graph.gpus[g]
            deg = engine._degrees[g]
            owned = part.owned_global_ids()
            visits: list[VisitSpec] = []
            queued = 0
            for kernel in ("nn", "nd"):
                if kernel == "nd" and not d:
                    continue
                rows = np.flatnonzero((deg[kernel] > 0) & active[owned])
                if rows.size:
                    visits.append(
                        VisitSpec(
                            kernel,
                            kernel,
                            backward=False,
                            queue=rows,
                            keep_sources=False,
                            row_values=contrib[owned[rows]],
                        )
                    )
                    queued += int(rows.size)
            if d:
                for kernel in ("dn", "dd"):
                    if kernel == "dn" and not part.num_local:
                        continue
                    rows = np.flatnonzero((deg[kernel] > 0) & active[dv])
                    if rows.size:
                        visits.append(
                            VisitSpec(
                                kernel,
                                kernel,
                                backward=False,
                                queue=rows,
                                keep_sources=False,
                                row_values=contrib[dv[rows]],
                            )
                        )
                        queued += int(rows.size)
            base_comp[g] = netmodel.iteration_overhead() + netmodel.filter_time(
                2 * queued
            )
            active_total += queued
            gpu_plans.append(GPUPlan(gpu=g, visits=visits))

        def finalize(outputs: list) -> IterationRecord:
            return self._finalize_sweep(
                outputs,
                engine=engine,
                communicator=communicator,
                level=level,
                contrib=contrib,
                active=active,
                o_src=o_src,
                o_dst=o_dst,
                wall=wall,
                base_comp=base_comp,
                active_total=active_total,
                active_delegates=active_delegates,
                holder=holder,
            )

        holder: dict = {}
        plan = SuperStepPlan(
            level=level,
            gpu_plans=gpu_plans,
            finalize=finalize,
            wall=wall,
            # Contribution sweeps never pull; the buffer is only published.
            dense_delegate=np.zeros(d, dtype=bool),
        )
        wall["kernels"] += now_s() - plan_started
        record = engine.backend.run_super_step(plan)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(
                "super-step", cat="engine", start=plan_started,
                dur=now_s() - plan_started,
                args={"level": level, "program": self.name},
            )
        return holder["recv"], record

    def _finalize_sweep(
        self,
        outputs: list,
        engine,
        communicator: Communicator,
        level: int,
        contrib: np.ndarray,
        active: np.ndarray,
        o_src: np.ndarray,
        o_dst: np.ndarray,
        wall: dict,
        base_comp: np.ndarray,
        active_total: int,
        active_delegates: int,
        holder: dict,
    ) -> IterationRecord:
        graph = engine.graph
        opts = engine.options
        netmodel = engine.netmodel
        n = graph.num_vertices
        p = graph.num_gpus
        d = graph.num_delegates
        dv = graph.delegate_vertices

        local_accum = [
            np.zeros(graph.gpus[g].num_local, dtype=np.int64) for g in range(p)
        ]
        delegate_accum = [np.zeros(d, dtype=np.int64) for g in range(p)]
        nn_outboxes: list[np.ndarray] = []
        nn_payloads: list[np.ndarray] = []
        per_gpu_comp = base_comp.copy()
        edges_examined = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}
        fold_started = now_s()

        empty_i64 = np.zeros(0, dtype=np.int64)
        for g in range(p):
            outs = outputs[g]
            out_nn = outs.get("nn")
            if out_nn is not None and out_nn.discovered.size:
                per_gpu_comp[g] += netmodel.traversal_time(
                    out_nn.edges_examined, backward=False
                )
                edges_examined["nn"] += out_nn.edges_examined
                nn_outboxes.append(out_nn.discovered)
                nn_payloads.append(out_nn.values)
            else:
                nn_outboxes.append(empty_i64)
                nn_payloads.append(empty_i64)
            out_dn = outs.get("dn")
            if out_dn is not None and out_dn.discovered.size:
                per_gpu_comp[g] += netmodel.traversal_time(
                    out_dn.edges_examined, backward=False
                )
                edges_examined["dn"] += out_dn.edges_examined
                np.add.at(local_accum[g], out_dn.discovered, out_dn.values)
            for kernel in ("nd", "dd"):
                out = outs.get(kernel)
                if out is not None and out.discovered.size:
                    per_gpu_comp[g] += netmodel.traversal_time(
                        out.edges_examined, backward=False
                    )
                    edges_examined[kernel] += out.edges_examined
                    np.add.at(delegate_accum[g], out.discovered, out.values)

        tracer = get_tracer()
        exchange_started = now_s()
        wall["kernels"] += exchange_started - fold_started
        if tracer.enabled:
            tracer.record_span(
                "fold", cat="engine", start=fold_started,
                dur=exchange_started - fold_started, args={"level": level},
            )
        exchange = communicator.exchange(
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

        reduce_started = now_s()
        wall["exchange"] += reduce_started - exchange_started
        if tracer.enabled:
            tracer.record_span(
                "nn-exchange", cat="engine", start=exchange_started,
                dur=reduce_started - exchange_started, args={"level": level},
            )
        reduce_local_s = 0.0
        reduce_global_s = 0.0
        merged = None
        delegate_reduce_needed = d > 0 and any(a.any() for a in delegate_accum)
        if delegate_reduce_needed:
            vreduce = communicator.allreduce(
                delegate_accum, blocking=opts.blocking_reduce, combine=np.add
            )
            merged = vreduce.merged
            reduce_local_s = vreduce.local_time_s
            reduce_global_s = vreduce.global_time_s
        reduce_done = now_s()
        wall["delegate_reduce"] += reduce_done - reduce_started
        if tracer.enabled:
            tracer.record_span(
                "delegate-reduce", cat="engine", start=reduce_started,
                dur=reduce_done - reduce_started, args={"level": level},
            )

        # Assemble the global received-mass vector.  Ownership is disjoint;
        # mass for delegate vertices arrives only through the nd/dd reduce.
        recv = np.zeros(n, dtype=np.int64)
        for g in range(p):
            recv[graph.gpus[g].owned_global_ids()] = local_accum[g]
        if merged is not None:
            recv[dv] += merged

        # Overlay edges (not yet compacted into the CSR) relax on the
        # coordinator so every backend sees the union graph.
        overlay_edges = 0
        if o_src.size:
            take = active[o_src]
            overlay_edges = int(np.count_nonzero(take))
            if overlay_edges:
                np.add.at(recv, o_dst[take], contrib[o_src[take]])
                per_gpu_comp[0] += netmodel.traversal_time(
                    overlay_edges, backward=False
                )
                edges_examined["overlay"] = overlay_edges
        holder["recv"] = recv

        computation_s = float(per_gpu_comp.max()) if p else 0.0
        local_comm_s = exchange.local_time_s + reduce_local_s
        remote_normal_s = exchange.remote_time_s
        remote_delegate_s = reduce_global_s
        comm_total = local_comm_s + remote_normal_s + remote_delegate_s
        overlap = opts.overlap_efficiency * min(computation_s, comm_total)
        elapsed_s = computation_s + comm_total - overlap

        return IterationRecord(
            iteration=level,
            normal_frontier_size=active_total,
            delegate_frontier_size=active_delegates,
            edges_examined=edges_examined,
            directions={"nd": 0, "dn": 0, "dd": 0},
            discovered=int(np.count_nonzero(recv)),
            delegate_reduce=delegate_reduce_needed,
            computation_s=computation_s,
            local_communication_s=local_comm_s,
            remote_normal_exchange_s=remote_normal_s,
            remote_delegate_reduce_s=remote_delegate_s,
            elapsed_s=elapsed_s,
        )
