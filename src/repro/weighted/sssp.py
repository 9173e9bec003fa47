"""Single-source shortest paths over non-negative float64 edge weights.

Two schedules share one relaxation program:

* :class:`BellmanFordSSSP` — a plain :class:`FrontierProgram` that
  relaxes every out-edge of the changed frontier each super-step until a
  fixpoint.  Simple, correct, and the workload baseline the bucketed
  schedule is measured against.
* :class:`DeltaSteppingSSSP` — the delta-stepping driver (Meyer &
  Sanders): vertices whose tentative distance changed wait in buckets of
  width ``delta``, and each phase relaxes only the lowest non-empty
  bucket.  Small buckets approach Dijkstra's settled order and stop
  re-relaxing long speculative paths; ``delta = inf`` collapses to the
  Bellman-Ford schedule.

**Distance encoding.**  Distances are float64, but the engine's fold
machinery (``np.minimum`` over int64, delegate all-reduce, exchange
payload combine) is int64.  The IEEE-754 bit patterns of non-negative
finite doubles order identically to their int64 bit views, so distances
travel as ``float64(...).view(int64)`` and every int64 minimum *is* the
exact float minimum — no epsilon, no rounding, bit-identical across
backends and storage tiers.  ``UNVISITED`` (-1, the all-ones
pattern) compares below every valid pattern, so acceptance must check it
explicitly; see :meth:`BellmanFordSSSP.accept`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.programs.base import FrontierProgram, VisitContext, single_source_init
from repro.core.state import UNVISITED, TraversalState
from repro.weighted.results import SSSPResult

__all__ = ["BellmanFordSSSP", "DeltaSteppingSSSP"]

#: Bit pattern of distance 0.0 — the source's initial value.
ZERO_BITS = np.int64(0)


def _require_weights(graph, name: str) -> None:
    if not graph.is_weighted:
        raise ValueError(
            f"program {name!r} needs edge weights but the graph has "
            "none; build it with weights (e.g. --weights on the generators)"
        )


class BellmanFordSSSP(FrontierProgram):
    """Label-correcting SSSP: relax all out-edges of changed vertices.

    Every super-step relaxes the full out-neighborhood of the vertices
    whose tentative distance improved last step, until nothing improves.
    The per-edge relaxation workload is what delta-stepping's bucketed
    schedule avoids — run both on the same graph to see the difference
    in ``total_edges_examined``.
    """

    name = "sssp-bellman-ford"
    payload_exchange = True
    delegate_channel = "values"
    direction_optimized_ok = False
    needs_weights = True

    def __init__(self, source: int, max_levels: int | None = None) -> None:
        self.source = int(source)
        self.max_levels = max_levels

    def init_state(self, graph):
        _require_weights(graph, self.name)
        return single_source_init(graph, self.source, ZERO_BITS)

    def visit_value(self, ctx: VisitContext) -> np.ndarray:
        if ctx.source_values is None:
            raise RuntimeError(
                "SSSP needs source distances; the engine must run it with "
                "payload support"
            )
        if ctx.edge_weights is None:
            # Kernels with no discoveries ship no weight array; there is
            # nothing to relax.
            if ctx.discovered is None or len(ctx.discovered) == 0:
                return np.zeros(0, dtype=np.int64)
            raise RuntimeError(
                "SSSP needs per-edge weights; the kernel ran without them"
            )
        return (ctx.source_values.view(np.float64) + ctx.edge_weights).view(np.int64)

    def accept(self, current: np.ndarray, proposed: np.ndarray) -> np.ndarray:
        # UNVISITED's all-ones pattern compares *below* every real distance
        # bit pattern, so a bare ``proposed < current`` would refuse every
        # first visit.
        return (current == UNVISITED) | (proposed < current)

    def make_result(self, values: np.ndarray, base: dict) -> SSSPResult:
        return SSSPResult(
            source=self.source,
            delta=math.inf,
            dist_bits=values,
            phases=base["iterations"],
            **base,
        )


class DeltaSteppingSSSP(BellmanFordSSSP):
    """Delta-stepping SSSP driver: bucketed label-correcting relaxation.

    Changed vertices are binned by ``floor(dist / delta)`` and each phase
    relaxes only the lowest non-empty bucket, so long speculative paths
    wait until shorter ones have settled.  The relaxation semantics (and
    hence the answer) are identical to :class:`BellmanFordSSSP`; only the
    schedule — which vertices relax when — changes.

    ``delta`` choices:

    * a positive float — explicit bucket width;
    * ``"auto"`` — ``1 / max(1, avg out-degree)``, the classic heuristic
      for unit-mean edge weights;
    * ``inf`` — one bucket, i.e. the Bellman-Ford schedule (useful as a
      self-check: the phase loop must then match the plain program).

    The driver owns the *schedule*, not the loop (the engine dispatches to
    :meth:`drive`, which hands :meth:`TraversalEngine.step_loop` two hooks):
    before each phase it installs the lowest-bucket subset of the pending
    set as the frontier, the engine runs one standard super-step, and
    afterwards the changed vertices return to the pending set.  Counters,
    modeled time, spans and overlay semantics are exactly the
    per-super-step engine machinery.
    """

    name = "sssp-delta"

    def __init__(
        self,
        source: int,
        delta: float | str = "auto",
        max_levels: int | None = None,
    ) -> None:
        super().__init__(source, max_levels=max_levels)
        if isinstance(delta, str):
            if delta != "auto":
                raise ValueError(f"delta must be a positive number, 'auto' or inf, got {delta!r}")
            self.delta: float | str = "auto"
        else:
            delta = float(delta)
            if not delta > 0 or math.isnan(delta):
                raise ValueError(f"delta must be a positive number, 'auto' or inf, got {delta!r}")
            self.delta = delta

    def resolve_delta(self, graph) -> float:
        """The effective bucket width for ``graph``."""
        if self.delta == "auto":
            n = max(1, graph.num_vertices)
            avg_degree = graph.num_directed_edges / n
            return 1.0 / max(1.0, avg_degree)
        return float(self.delta)

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def drive(self, engine, init=None, overlay=None) -> SSSPResult:
        graph = engine.graph
        _require_weights(graph, self.name)
        p = graph.num_gpus
        delta = self.resolve_delta(graph)

        if init is None:
            init = self.init_state(graph)
        state = TraversalState.from_init(graph, init)

        # Pending sets: vertices whose distance changed but whose out-edges
        # have not been relaxed since.  The engine's frontier arrays become
        # the per-phase *selection* from these.
        pending_normals = [
            np.zeros(gpu.num_local, dtype=bool) for gpu in graph.gpus
        ]
        pending_delegates = np.zeros(graph.num_delegates, dtype=bool)

        def settle() -> None:
            # Everything the step changed is pending again — including
            # vertices from the bucket just relaxed whose distance improved
            # further (they need their out-edges re-relaxed).
            for g in range(p):
                pending_normals[g][state.normal_frontiers[g]] = True
            pending_delegates[state.delegate_frontier] = True

        def select() -> bool:
            # Install the lowest-bucket subset of the pending set as this
            # phase's frontier and retire it (re-improved vertices re-enter
            # through ``settle``).
            bucket = self._lowest_bucket(
                state, pending_normals, pending_delegates, delta
            )
            if bucket is None:
                return False
            for g in range(p):
                mask = pending_normals[g]
                slots = np.flatnonzero(mask)
                values = state.normal_values[g][slots]
                selected = slots[self._in_bucket(values, delta, bucket)]
                state.normal_frontiers[g] = selected
                mask[selected] = False
            ids = np.flatnonzero(pending_delegates)
            take = self._in_bucket(state.delegate_values[ids], delta, bucket)
            selected = ids[take]
            state.delegate_frontier = selected
            pending_delegates[selected] = False
            return True

        settle()  # the initial frontier is the first pending set
        base = engine.step_loop(
            self, state, overlay=overlay, select=select, settle=settle
        )
        return SSSPResult(
            source=self.source,
            delta=delta,
            dist_bits=state.gather_values(),
            phases=base["iterations"],
            **base,
        )

    # ------------------------------------------------------------------ #
    # Bucket arithmetic
    # ------------------------------------------------------------------ #
    def _lowest_bucket(
        self, state, pending_normals, pending_delegates, delta: float
    ):
        """The lowest bucket index holding a pending vertex, or None."""
        best = None
        for g, mask in enumerate(pending_normals):
            slots = np.flatnonzero(mask)
            if slots.size:
                values = state.normal_values[g][slots]
                low = self._bucket_of(values, delta).min()
                best = low if best is None else min(best, low)
        ids = np.flatnonzero(pending_delegates)
        if ids.size:
            low = self._bucket_of(state.delegate_values[ids], delta).min()
            best = low if best is None else min(best, low)
        return best

    @staticmethod
    def _bucket_of(bits: np.ndarray, delta: float) -> np.ndarray:
        """Bucket index of each distance bit pattern."""
        if math.isinf(delta):
            return np.zeros(bits.size, dtype=np.int64)
        return np.floor(bits.view(np.float64) / delta).astype(np.int64)

    @classmethod
    def _in_bucket(cls, bits: np.ndarray, delta: float, bucket) -> np.ndarray:
        if math.isinf(delta):
            return np.ones(bits.size, dtype=bool)
        return cls._bucket_of(bits, delta) == bucket

    def make_result(self, values: np.ndarray, base: dict) -> SSSPResult:  # pragma: no cover
        raise RuntimeError("DeltaSteppingSSSP builds its result in drive()")
