"""Timers and simulated-time accounting.

Two kinds of time exist in this reproduction:

* **wall-clock time** of the Python simulation itself (useful for
  pytest-benchmark and for profiling the reproduction), read from
  :data:`now_s` and measured by :class:`Timer`; and
* **modeled time** of the simulated GPU cluster, from the analytic hardware
  model.  :class:`TimingBreakdown` accumulates it per super-step in exactly
  the categories the paper plots (local computation, local communication,
  remote normal exchange, remote delegate reduction); its elapsed time is
  what the harness reports as "elapsed time" / GTEPS, matching the paper's
  runtime-breakdown figures (Fig. 8 and Fig. 10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["now_s", "Timer", "TimingBreakdown", "PHASES"]

#: The canonical span/wall clock of the whole repo: monotonic seconds.
#:
#: Every wall-clock measurement — engine super-step phases, backend kernel
#: batches, service flushes, bench phase minima, storage build passes — and
#: every :mod:`repro.obs` tracer span reads this one clock, so bench records
#: and trace artifacts can never disagree about where time went, and no
#: call site can accidentally mix the wall clock (``time.time``) into a
#: duration.  The only other clock in the system is the *virtual* clock of
#: ``repro.serve.cluster``, which the tracer handles via explicit-timestamp
#: spans.
now_s = time.perf_counter

#: Phase names used in the paper's runtime-breakdown figures.
PHASES = (
    "computation",
    "local_communication",
    "remote_normal_exchange",
    "remote_delegate_reduce",
)


class Timer:
    """A context-manager wall-clock timer.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = now_s()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.elapsed = now_s() - self._start


@dataclass
class TimingBreakdown:
    """Per-phase modeled time of a single BFS run, in milliseconds.

    The four fields mirror the stacked bars in the paper's Figures 8 and 10.
    ``elapsed_ms`` is the modeled end-to-end time after accounting for
    computation/communication overlap, so it is generally *less* than the sum
    of the parts (the paper notes the same: "the sum of all parts in one
    column is more than the elapsed time of BFS").
    """

    computation: float = 0.0
    local_communication: float = 0.0
    remote_normal_exchange: float = 0.0
    remote_delegate_reduce: float = 0.0
    elapsed_ms: float = 0.0
    iterations: int = 0
    per_iteration: list = field(default_factory=list)

    def add(self, record) -> None:
        """Accumulate one super-step's :class:`IterationRecord` (seconds → ms)."""
        self.computation += record.computation_s * 1e3
        self.local_communication += record.local_communication_s * 1e3
        self.remote_normal_exchange += record.remote_normal_exchange_s * 1e3
        self.remote_delegate_reduce += record.remote_delegate_reduce_s * 1e3
        self.elapsed_ms += record.elapsed_s * 1e3
        self.per_iteration.append(record)

    def parts_sum(self) -> float:
        """Sum of the four phase times (no overlap accounting)."""
        return (
            self.computation
            + self.local_communication
            + self.remote_normal_exchange
            + self.remote_delegate_reduce
        )

    def as_dict(self) -> Dict[str, float]:
        """Phase times plus elapsed time as a dictionary keyed by phase name."""
        return {
            "computation": self.computation,
            "local_communication": self.local_communication,
            "remote_normal_exchange": self.remote_normal_exchange,
            "remote_delegate_reduce": self.remote_delegate_reduce,
            "elapsed_ms": self.elapsed_ms,
        }

    def __add__(self, other: "TimingBreakdown") -> "TimingBreakdown":
        return TimingBreakdown(
            computation=self.computation + other.computation,
            local_communication=self.local_communication + other.local_communication,
            remote_normal_exchange=self.remote_normal_exchange + other.remote_normal_exchange,
            remote_delegate_reduce=self.remote_delegate_reduce + other.remote_delegate_reduce,
            elapsed_ms=self.elapsed_ms + other.elapsed_ms,
            iterations=self.iterations + other.iterations,
        )

    def scaled(self, factor: float) -> "TimingBreakdown":
        """Return a copy with every time multiplied by ``factor``."""
        return TimingBreakdown(
            computation=self.computation * factor,
            local_communication=self.local_communication * factor,
            remote_normal_exchange=self.remote_normal_exchange * factor,
            remote_delegate_reduce=self.remote_delegate_reduce * factor,
            elapsed_ms=self.elapsed_ms * factor,
            iterations=self.iterations,
        )
