"""The cluster front door: admission, routing, hedging, and accounting.

:class:`ClusterDispatcher` replays a timed open-loop stream against a
:class:`~repro.serve.cluster.replica.ReplicaPool` on a virtual-clock asyncio
loop.  Each arrival is admitted (or shed), routed to a primary replica's
bounded queue, optionally *hedged* to a second replica after a
quantile-derived delay, and accounted into an exact latency histogram —
all in virtual time, so the whole simulation is bit-reproducible.

Mode-independence invariants
----------------------------
The bench harness gates a subset of the counters across *configurations*
(hedging on vs off) and across *execution backends*.  That only works if
the primary timeline — which requests are admitted, which replica runs
them, when each starts and finishes — is identical in every mode.  The
dispatcher maintains this by construction:

1. Replica workers process only primary queues; hedges never enter them.
2. A hedge is issued only to a replica that is primary-idle at issue time,
   and is **preempted instantly** when a primary wants that replica — so a
   hedge can never delay any primary.
3. The admission window (``_in_flight``) closes at *primary* completion,
   never when a hedge wins — shedding is primary-driven.
4. Hedges bypass the replica cache entirely (no lookup, no fill) — cache
   state stays primary-driven.
5. Routing reads only primary state (source affinity or primary queue
   depths).

Everything hedging *does* change — latencies, hedge/cancel counters, SLO
violations — lands in the non-gated ``cluster`` section of the record,
which is still deterministic per configuration (asserted across repeats)
but intentionally differs between modes: that difference is the result.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import get_tracer
from repro.serve.cluster.histogram import LatencyHistogram
from repro.serve.cluster.openloop import TimedQuery, TimedUpdate
from repro.serve.cluster.replica import ReplicaPool
from repro.serve.cluster.virtualtime import run_on_virtual_clock
from repro.utils.rng import hash64

__all__ = ["ClusterConfig", "ClusterStats", "ClusterDispatcher"]

ROUTERS = ("affinity", "least-queue")


@dataclass(frozen=True)
class ClusterConfig:
    """Serving-tier knobs (the pool itself is configured separately).

    Parameters
    ----------
    queue_limit:
        Maximum admitted-but-unfinished requests across the cluster; an
        arrival beyond it is shed (0 = unbounded, no shedding).
    hedge:
        Re-issue stragglers to a second replica (needs >= 2 replicas).
    hedge_quantile:
        A request is hedged once its age exceeds this quantile of the
        latencies completed so far (the tail-at-scale "deferred hedge").
    hedge_min_samples:
        Completed requests required before hedging arms (the quantile is
        meaningless on a handful of samples).
    slo_ms:
        Latency objective for the violation counter (``None`` disables).
    router:
        ``"affinity"`` (source-hashed, cache-friendly, imbalance-prone) or
        ``"least-queue"`` (join the shortest primary queue).
    """

    queue_limit: int = 64
    hedge: bool = True
    hedge_quantile: float = 0.95
    hedge_min_samples: int = 32
    slo_ms: float | None = None
    router: str = "affinity"

    def __post_init__(self) -> None:
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError(
                f"hedge_quantile must be in (0, 1), got {self.hedge_quantile}"
            )
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1, got {self.hedge_min_samples}"
            )
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )

    def describe(self) -> dict:
        """JSON-stable description for bench artifacts."""
        return {
            "queue_limit": self.queue_limit,
            "hedge": self.hedge,
            "hedge_quantile": self.hedge_quantile,
            "hedge_min_samples": self.hedge_min_samples,
            "slo_ms": self.slo_ms,
            "router": self.router,
        }


@dataclass
class ClusterStats:
    """Cumulative cluster counters; see the module docstring for gating."""

    #: Requests offered by the workload.
    arrivals: int = 0
    #: Requests admitted past the queue limit.
    admitted: int = 0
    #: Requests shed (queue full or update in progress).
    shed: int = 0
    #: Sheds attributable to a pending graph update's admission freeze.
    shed_during_update: int = 0
    #: High-water mark of admitted-but-unfinished requests.
    inflight_peak: int = 0
    #: Update batches applied (after draining in-flight work).
    updates: int = 0
    #: Hedges actually issued to a second replica.
    hedges_issued: int = 0
    #: Hedge attempts that found no idle replica to run on.
    hedges_skipped: int = 0
    #: Hedges whose response arrived before the primary's.
    hedges_won: int = 0
    #: Hedges cancelled because the primary answered first.
    hedges_cancelled: int = 0
    #: Hedges evicted because a primary needed their replica.
    hedges_preempted: int = 0
    #: Primary responses discarded because a hedge had already answered.
    primaries_discarded: int = 0


class ClusterDispatcher:
    """Replays one timed stream against a replica pool; single use.

    Construct, call :meth:`run` once with the stream, then read
    :meth:`stats_snapshot`.  One dispatcher per replay keeps cache and
    histogram state from leaking between bench repeats.
    """

    def __init__(self, pool: ReplicaPool, config: ClusterConfig | None = None) -> None:
        self.pool = pool
        self.config = config or ClusterConfig()
        if self.config.hedge and len(pool) < 2:
            raise ValueError(
                "hedging needs at least 2 replicas (a hedge re-issues the "
                "query to a *different* replica); disable hedging or grow the pool"
            )
        self.stats = ClusterStats()
        self.hist = LatencyHistogram(slo_ms=self.config.slo_ms)
        self._answers_checksum = 0
        self._makespan_ms = 0.0
        self._primaries = [0] * len(pool)
        self._hedge_runs = [0] * len(pool)
        self._ran = False
        # Per-run asyncio state, built inside the virtual loop.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queues: list[asyncio.Queue] = []
        self._busy: list[TimedQuery | None] = []
        self._hedge_slots: list[tuple[asyncio.Task, dict] | None] = []
        self._in_flight = 0
        self._updating = 0
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, stream, on_answer=None) -> dict:
        """Replay ``stream`` (:class:`TimedQuery`/:class:`TimedUpdate` items,
        non-decreasing ``at_ms``) to completion; returns the snapshot.

        ``on_answer(index, result)`` is invoked for every answered query
        (first response wins) — tests use it to compare answers; the
        dispatcher itself retains only the folded checksum.
        """
        if self._ran:
            raise RuntimeError("a dispatcher replays exactly one stream; build a new one")
        self._ran = True
        run_on_virtual_clock(self._main(list(stream), on_answer))
        return self.stats_snapshot()

    # ------------------------------------------------------------------ #
    # Simulation coroutines
    # ------------------------------------------------------------------ #
    async def _main(self, stream, on_answer) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        n = len(self.pool)
        self._queues = [asyncio.Queue() for _ in range(n)]
        self._busy = [None] * n
        self._hedge_slots = [None] * n
        self._drained = asyncio.Event()
        workers = [loop.create_task(self._worker(rid)) for rid in range(n)]
        tasks: list[asyncio.Task] = []
        try:
            for item in stream:
                delay = item.at_ms - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if isinstance(item, TimedUpdate):
                    # The freeze starts at arrival time, synchronously, so
                    # the set of requests shed behind it is deterministic.
                    self._updating += 1
                    tasks.append(loop.create_task(self._apply_update(item)))
                else:
                    self._on_arrival(item, tasks, on_answer)
            if tasks:
                await asyncio.gather(*tasks)
            # Every request has its answer; the makespan additionally waits
            # for late primaries still finishing work a hedge already won.
            while self._in_flight > 0:
                self._drained.clear()
                await self._drained.wait()
            self._makespan_ms = loop.time()
        finally:
            for worker in workers:
                worker.cancel()
            await asyncio.gather(*workers, return_exceptions=True)

    def _on_arrival(self, item: TimedQuery, tasks: list, on_answer) -> None:
        self.stats.arrivals += 1
        tracer = get_tracer()
        if self._updating:
            self.stats.shed += 1
            self.stats.shed_during_update += 1
            if tracer.enabled:
                tracer.instant(
                    "shed", cat="cluster", ts=self._loop.time(), unit="ms",
                    args={"reason": "update", "index": item.index},
                )
            return
        if self.config.queue_limit and self._in_flight >= self.config.queue_limit:
            self.stats.shed += 1
            if tracer.enabled:
                tracer.instant(
                    "shed", cat="cluster", ts=self._loop.time(), unit="ms",
                    args={"reason": "queue-limit", "index": item.index},
                )
            return
        self.stats.admitted += 1
        self._in_flight += 1
        if self._in_flight > self.stats.inflight_peak:
            self.stats.inflight_peak = self._in_flight
        rid = self._route(item)
        tasks.append(self._loop.create_task(self._request(item, rid, on_answer)))

    def _route(self, item: TimedQuery) -> int:
        n = len(self.pool)
        if self.config.router == "least-queue":
            def load(rid: int) -> tuple:
                return (
                    self._queues[rid].qsize() + (self._busy[rid] is not None),
                    rid,
                )
            return min(range(n), key=load)
        return int(hash64(np.uint64(item.query.source), seed=7)) % n

    async def _request(self, item: TimedQuery, rid: int, on_answer) -> None:
        fut = self._loop.create_future()
        self._queues[rid].put_nowait((item, fut))
        hedge_task = None
        hstate: dict | None = None
        if self.config.hedge:
            delay = self._hedge_delay()
            if delay is not None:
                hstate = {"issued": False, "finished": False, "preempted": False}
                hedge_task = self._loop.create_task(
                    self._hedge(item, fut, rid, delay, hstate)
                )
        result, responder = await fut
        latency_ms = self._loop.time() - item.at_ms
        self.hist.record(latency_ms)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(
                "request", cat="cluster", start=item.at_ms, dur=latency_ms,
                tid=rid + 1, unit="ms",
                args={"responder": responder, "rid": rid, "index": item.index},
            )
        self._fold_answer(item.index, result)
        if on_answer is not None:
            on_answer(item.index, result)
        if responder == "hedge":
            self.stats.hedges_won += 1
        if (
            hedge_task is not None
            and not hstate["finished"]
            and not hstate["preempted"]
        ):
            hedge_task.cancel()
            if hstate["issued"]:
                self.stats.hedges_cancelled += 1

    def _hedge_delay(self) -> float | None:
        """Arm a hedge only once enough latencies back the quantile."""
        if self.hist.count < self.config.hedge_min_samples:
            return None
        return self.hist.quantile(self.config.hedge_quantile)

    def _pick_idle(self, primary_rid: int) -> int | None:
        """Lowest-numbered replica with no primary work and no hedge."""
        for rid in range(len(self.pool)):
            if rid == primary_rid:
                continue
            if (
                self._busy[rid] is None
                and self._queues[rid].empty()
                and self._hedge_slots[rid] is None
            ):
                return rid
        return None

    async def _hedge(
        self, item: TimedQuery, fut, primary_rid: int, delay_ms: float, state: dict
    ) -> None:
        await asyncio.sleep(delay_ms)
        if fut.done():
            state["finished"] = True
            return
        tracer = get_tracer()
        rid = self._pick_idle(primary_rid)
        if rid is None:
            self.stats.hedges_skipped += 1
            state["finished"] = True
            if tracer.enabled:
                tracer.instant(
                    "hedge-skip", cat="cluster", ts=self._loop.time(), unit="ms",
                    args={"index": item.index},
                )
            return
        self.stats.hedges_issued += 1
        state["issued"] = True
        if tracer.enabled:
            tracer.instant(
                "hedge-fire", cat="cluster", ts=self._loop.time(),
                tid=rid + 1, unit="ms",
                args={"index": item.index, "rid": rid, "primary_rid": primary_rid},
            )
        self._hedge_slots[rid] = (asyncio.current_task(), state)
        try:
            result, service_ms = self.pool[rid].probe_hedge(item.query)
            self._hedge_runs[rid] += 1
            await asyncio.sleep(service_ms)
        finally:
            self._hedge_slots[rid] = None
        state["finished"] = True
        if not fut.done():
            fut.set_result((result, "hedge"))

    async def _worker(self, rid: int) -> None:
        replica = self.pool[rid]
        queue = self._queues[rid]
        while True:
            item, fut = await queue.get()
            occupant = self._hedge_slots[rid]
            if occupant is not None:
                # A primary always evicts a resident hedge instantly, so the
                # primary timeline cannot depend on hedging decisions.
                task, state = occupant
                state["preempted"] = True
                self.stats.hedges_preempted += 1
                task.cancel()
                self._hedge_slots[rid] = None
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.instant(
                        "hedge-preempt", cat="cluster", ts=self._loop.time(),
                        tid=rid + 1, unit="ms", args={"rid": rid},
                    )
            self._busy[rid] = item
            result, service_ms, _hit = replica.serve_primary(item.query)
            await asyncio.sleep(service_ms)
            self._busy[rid] = None
            self._primaries[rid] += 1
            self._in_flight -= 1
            if self._in_flight == 0:
                self._drained.set()
            if fut.done():
                self.stats.primaries_discarded += 1
            else:
                fut.set_result((result, "primary"))
            queue.task_done()

    async def _apply_update(self, item: TimedUpdate) -> None:
        # Drain barrier: the delta applies once all admitted work has left
        # the system — the cluster-wide analogue of apply_delta's
        # flush-then-mutate contract, and primary-driven in both modes.
        started_ms = self._loop.time()
        while self._in_flight > 0:
            self._drained.clear()
            await self._drained.wait()
        self.pool.apply_delta(item.delta)
        self.stats.updates += 1
        self._updating -= 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(
                "update-fanout", cat="cluster", start=started_ms,
                dur=self._loop.time() - started_ms, unit="ms",
                args={"replicas": len(self.pool)},
            )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _fold_answer(self, index: int, result) -> None:
        from repro.bench.streams import fold_checksum, values_checksum

        self._answers_checksum = fold_checksum(
            self._answers_checksum, index, values_checksum(result)
        )

    def gated_counters(self) -> dict:
        """The mode-independent, backend-invariant counters the bench gates.

        Identical whether hedging is on or off (the primary timeline is) and
        whichever execution backend runs the traversals (virtual time is
        driven by modeled service times only).
        """
        cache_hits = sum(r.service.cache.stats.hits for r in self.pool)
        cache_misses = sum(r.service.cache.stats.misses for r in self.pool)
        return {
            "arrivals": self.stats.arrivals,
            "admitted": self.stats.admitted,
            "shed": self.stats.shed,
            "inflight_peak": self.stats.inflight_peak,
            "updates": self.stats.updates,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "final_graph_version": self.pool.graph_version(),
            "answers_checksum": self._answers_checksum,
        }

    def stats_snapshot(self) -> dict:
        """The full cluster record: gated counters + per-mode tail accounting.

        Everything here is deterministic for a fixed (stream, pool, config)
        triple; only the ``counters`` half is additionally invariant across
        hedging modes and execution backends.
        """
        makespan_s = self._makespan_ms / 1000.0
        return {
            "counters": self.gated_counters(),
            "cluster": {
                "mode": "hedged" if self.config.hedge else "no-hedge",
                "config": self.config.describe(),
                "replicas": len(self.pool),
                "hedges_issued": self.stats.hedges_issued,
                "hedges_skipped": self.stats.hedges_skipped,
                "hedges_won": self.stats.hedges_won,
                "hedges_cancelled": self.stats.hedges_cancelled,
                "hedges_preempted": self.stats.hedges_preempted,
                "primaries_discarded": self.stats.primaries_discarded,
                "shed_during_update": self.stats.shed_during_update,
                "primaries_per_replica": list(self._primaries),
                "hedge_runs_per_replica": list(self._hedge_runs),
                "virtual_makespan_ms": self._makespan_ms,
                "achieved_qps": (
                    self.stats.admitted / makespan_s if makespan_s > 0 else 0.0
                ),
                "latency": self.hist.snapshot(),
            },
        }
