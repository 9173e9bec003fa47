"""Deterministic open-loop workloads: timestamped arrivals over Zipf queries.

The closed-loop :class:`~repro.serve.workload.ZipfWorkload` measures saturated
throughput — the service consumes the stream as fast as it can.  An open-loop
workload asks the opposite question: *at a given offered load*, what latency
do clients see?  Requests arrive at spec-pinned timestamps whether or not the
service keeps up, so queueing delay, shedding, and tail latency become
observable.

Every arrival process here is generated by **time-warping a unit-rate Poisson
process**: draw i.i.d. ``Exp(1)`` gaps through :func:`repro.utils.rng.make_rng`,
cumulative-sum them into unit-rate event times ``T_i``, then map through the
inverse integrated-rate function ``Λ⁻¹`` of the desired intensity profile.
This is the standard inhomogeneous-Poisson construction, and it makes every
profile share one deterministic source of randomness:

- **Poisson** — constant rate ``r``: ``t_i = T_i / r``.
- **Bursty** — on/off square wave (period ``P``, duty ``d``, on-rate ``r/d``
  so the long-run average stays ``r``): ``Λ`` is piecewise linear with an
  exact closed-form inverse.
- **Diurnal** — sinusoidal rate ``r·(1 + a·sin(2πt/P))``: ``Λ`` has a
  closed form but no closed inverse, so ``Λ⁻¹`` is evaluated by vectorised
  bisection to sub-nanosecond tolerance (deterministic: fixed iteration
  count, pure float64 arithmetic).

All timestamps are **milliseconds of virtual time**, matching the cluster
dispatcher's clock.  Update deltas (when configured) are spliced in at evenly
spaced stream positions, timed at the arrival of the query they precede, so a
mixed stream stays a single totally ordered replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.workload import Query, ZipfWorkload
from repro.utils.rng import make_rng

__all__ = [
    "TimedQuery",
    "TimedUpdate",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "make_arrivals",
    "OpenLoopWorkload",
]

ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class TimedQuery:
    """One open-loop request: a query offered at a virtual timestamp."""

    at_ms: float
    index: int
    query: Query


@dataclass(frozen=True)
class TimedUpdate:
    """One open-loop graph mutation: an edge delta offered at a timestamp."""

    at_ms: float
    index: int
    delta: object  # repro.dynamic.EdgeDelta (kept untyped to avoid the import)


def _unit_poisson(count: int, seed: int) -> np.ndarray:
    """Event times of a unit-rate Poisson process (cumsum of Exp(1) gaps)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    gaps = make_rng(seed).exponential(scale=1.0, size=int(count))
    return np.cumsum(gaps)


def _check_rate(rate_qps: float) -> None:
    if not rate_qps > 0:
        raise ValueError(f"arrival rate must be positive, got {rate_qps}")


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant offered rate."""

    rate_qps: float = 500.0
    seed: int = 29

    def __post_init__(self) -> None:
        _check_rate(self.rate_qps)

    def times(self, count: int) -> np.ndarray:
        rate_per_ms = self.rate_qps / 1000.0
        return _unit_poisson(count, self.seed) / rate_per_ms

    def describe(self) -> dict:
        return {"kind": "poisson", "rate_qps": self.rate_qps, "seed": self.seed}


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off square-wave arrivals: bursts at ``rate/duty``, then silence.

    The long-run average rate is ``rate_qps``; during the on-window (the
    first ``duty`` fraction of each ``period_ms`` cycle) traffic runs at
    ``rate_qps / duty``, which is what drives queues deep enough for
    hedging and shedding to matter.
    """

    rate_qps: float = 500.0
    period_ms: float = 200.0
    duty: float = 0.25
    seed: int = 29

    def __post_init__(self) -> None:
        _check_rate(self.rate_qps)
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {self.period_ms}")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")

    def times(self, count: int) -> np.ndarray:
        # Λ over one period is rate·P (in per-ms units); within a period the
        # mass rate/duty·t accrues entirely inside the on-window, so the
        # inverse maps residual mass u to t = u·duty/rate exactly.
        rate_per_ms = self.rate_qps / 1000.0
        unit = _unit_poisson(count, self.seed)
        mass_per_period = rate_per_ms * self.period_ms
        cycles = np.floor(unit / mass_per_period)
        residual = unit - cycles * mass_per_period
        return cycles * self.period_ms + residual * self.duty / rate_per_ms

    def describe(self) -> dict:
        return {
            "kind": "bursty",
            "rate_qps": self.rate_qps,
            "period_ms": self.period_ms,
            "duty": self.duty,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidal arrivals: ``rate(t) = rate·(1 + amplitude·sin(2πt/P))``."""

    rate_qps: float = 500.0
    period_ms: float = 1000.0
    amplitude: float = 0.8
    seed: int = 29

    def __post_init__(self) -> None:
        _check_rate(self.rate_qps)
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {self.period_ms}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1], got {self.amplitude}"
            )

    def _integrated(self, t: np.ndarray, rate_per_ms: float) -> np.ndarray:
        omega = 2.0 * np.pi / self.period_ms
        return rate_per_ms * (t + self.amplitude / omega * (1.0 - np.cos(omega * t)))

    def times(self, count: int) -> np.ndarray:
        # Λ(t) = r·t + r·a/ω·(1 − cos ωt) is monotone (rate ≥ 0); invert by
        # bisection.  Λ(t) ∈ [r·t, r·t + 2ra/ω] brackets every root; 80
        # halvings of the bracket reach far below float64 resolution, and the
        # fixed iteration count keeps the output a pure function of the spec.
        rate_per_ms = self.rate_qps / 1000.0
        unit = _unit_poisson(count, self.seed)
        slack = 2.0 * self.amplitude / (2.0 * np.pi / self.period_ms)
        lo = np.maximum(0.0, unit / rate_per_ms - slack)
        hi = unit / rate_per_ms
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self._integrated(mid, rate_per_ms) < unit
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def describe(self) -> dict:
        return {
            "kind": "diurnal",
            "rate_qps": self.rate_qps,
            "period_ms": self.period_ms,
            "amplitude": self.amplitude,
            "seed": self.seed,
        }


def make_arrivals(
    kind: str,
    rate_qps: float,
    seed: int = 29,
    *,
    period_ms: float | None = None,
    duty: float = 0.25,
    amplitude: float = 0.8,
):
    """Build an arrival process by name (``poisson``/``bursty``/``diurnal``)."""
    if kind == "poisson":
        return PoissonArrivals(rate_qps=rate_qps, seed=seed)
    if kind == "bursty":
        return BurstyArrivals(
            rate_qps=rate_qps,
            period_ms=200.0 if period_ms is None else period_ms,
            duty=duty,
            seed=seed,
        )
    if kind == "diurnal":
        return DiurnalArrivals(
            rate_qps=rate_qps,
            period_ms=1000.0 if period_ms is None else period_ms,
            amplitude=amplitude,
            seed=seed,
        )
    raise ValueError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )


@dataclass(frozen=True)
class OpenLoopWorkload:
    """A pinned open-loop stream: Zipf queries at generated arrival times.

    Parameters
    ----------
    queries:
        The read stream (popularity skew, program, length) — the same
        machinery the closed-loop bench uses, so source selection is shared.
    arrivals:
        The arrival process assigning one timestamp per query.
    num_updates:
        Edge-delta batches spliced into the stream at evenly spaced
        positions (0 disables; requires a dynamic graph downstream).
    edges_per_update, update_style, update_seed:
        Delta-generation knobs, matching :class:`MixedWorkload`.
    """

    queries: ZipfWorkload = field(default_factory=ZipfWorkload)
    arrivals: PoissonArrivals | BurstyArrivals | DiurnalArrivals = field(
        default_factory=PoissonArrivals
    )
    num_updates: int = 0
    edges_per_update: int = 256
    update_style: str = "uniform"
    update_seed: int = 23

    def __post_init__(self) -> None:
        from repro.dynamic.delta import UPDATE_STYLES

        if self.num_updates < 0:
            raise ValueError(f"num_updates must be >= 0, got {self.num_updates}")
        if self.edges_per_update < 1:
            raise ValueError(
                f"edges_per_update must be >= 1, got {self.edges_per_update}"
            )
        if self.update_style not in UPDATE_STYLES:
            raise ValueError(
                f"unknown update style {self.update_style!r}; expected one of {UPDATE_STYLES}"
            )

    def generate(
        self,
        num_vertices: int,
        degrees: np.ndarray | None = None,
        edges=None,
    ) -> list[TimedQuery | TimedUpdate]:
        """Materialise the timed stream, in replay (non-decreasing time) order.

        ``edges`` (a prepared edge list) is required when ``num_updates > 0``
        so the delta generator can draw endpoints the way the dynamic bench
        does.  Query ``index`` is the arrival ordinal of the *query* substream
        (the checksum-folding key); updates are numbered separately.
        """
        reads = self.queries.generate(num_vertices, degrees=degrees)
        times = self.arrivals.times(len(reads))
        timed: list[TimedQuery | TimedUpdate] = [
            TimedQuery(at_ms=float(t), index=i, query=q)
            for i, (t, q) in enumerate(zip(times, reads))
        ]
        if self.num_updates == 0:
            return timed
        if edges is None:
            raise ValueError("num_updates > 0 requires the prepared edge list")
        from repro.dynamic.delta import update_stream

        deltas = update_stream(
            edges,
            num_batches=self.num_updates,
            edges_per_batch=self.edges_per_update,
            style=self.update_style,
            seed=self.update_seed + 1,
        )
        # Splice update j just before the query at position ceil((j+1)·n/(u+1)),
        # timed at that query's arrival — evenly spread, totally ordered.
        n = len(timed)
        merged: list[TimedQuery | TimedUpdate] = []
        positions = [
            min(n - 1, -(-(j + 1) * n // (self.num_updates + 1)))
            for j in range(self.num_updates)
        ]
        by_position: dict[int, list[TimedUpdate]] = {}
        for j, (pos, delta) in enumerate(zip(positions, deltas)):
            by_position.setdefault(pos, []).append(
                TimedUpdate(at_ms=timed[pos].at_ms, index=j, delta=delta)
            )
        for i, tq in enumerate(timed):
            merged.extend(by_position.get(i, ()))
            merged.append(tq)
        return merged

    def describe(self) -> dict:
        """JSON-stable description for bench artifacts."""
        return {
            "queries": self.queries.describe(),
            "arrivals": self.arrivals.describe(),
            "num_updates": self.num_updates,
            "edges_per_update": self.edges_per_update,
            "update_style": self.update_style,
            "update_seed": self.update_seed,
        }
