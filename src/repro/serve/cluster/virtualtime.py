"""A deterministic virtual-time asyncio event loop.

The cluster tier replays *open-loop* workloads: requests arrive at
spec-pinned timestamps whether or not the service keeps up, and the measured
quantity is latency under that offered load.  Replaying such a workload on
the wall clock would make every counter — sheds, hedges, SLO violations —
depend on host speed and scheduler jitter, which is exactly what the bench
harness's determinism contract forbids.

:class:`VirtualClockEventLoop` keeps the full asyncio programming model
(tasks, queues, ``asyncio.sleep``, cancellation) but replaces the clock: time
is a float the loop *jumps* forward to the next scheduled callback whenever
no callback is ready.  Nothing ever sleeps for real, so a simulated minute of
traffic replays in milliseconds, and two replays of the same stream execute
the identical sequence of events — callback order is a pure function of the
program, never of the host.

The loop's time unit is **milliseconds of virtual time** by convention (the
unit the serving layer's latency accounting uses); asyncio itself only needs
``time()`` to be monotone and consistent with the delays passed to
``call_later``, so the choice is free.

Blocking work inside a coroutine (a real engine traversal, say) simply does
not advance virtual time — the simulation charges each request its *modeled*
service time instead, which is deterministic and backend-invariant.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors

__all__ = ["VirtualClockEventLoop", "run_on_virtual_clock"]


class VirtualClockEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock jumps between scheduled callbacks.

    ``time()`` returns the virtual timestamp; whenever the ready queue is
    empty the loop advances the clock to the earliest scheduled timer and
    runs it immediately.  If neither a ready callback nor a timer exists
    while tasks are still pending, the simulation has deadlocked (a task is
    awaiting a future nothing will ever resolve) and the loop raises rather
    than blocking forever in ``select()``.
    """

    def __init__(self) -> None:
        # A plain SelectSelector: the loop never waits on real I/O, so the
        # cheapest portable selector is the right one.
        super().__init__(selectors.SelectSelector())
        self._virtual_now = 0.0

    def time(self) -> float:
        """Current virtual time (milliseconds by the serving convention)."""
        return self._virtual_now

    def advance_to(self, when: float) -> None:
        """Manually advance the clock (never backwards)."""
        if when > self._virtual_now:
            self._virtual_now = float(when)

    def _run_once(self) -> None:
        if not self._ready:
            # Drop timers cancelled while buried in the heap so they cannot
            # masquerade as the next wake-up target.
            while self._scheduled and self._scheduled[0]._cancelled:
                handle = heapq.heappop(self._scheduled)
                handle._scheduled = False
            if self._scheduled:
                self.advance_to(self._scheduled[0]._when)
            elif not self._stopping:
                raise RuntimeError(
                    "virtual clock deadlock: no ready callbacks and no "
                    "scheduled timers, but the loop was asked to keep running"
                )
        # With the clock already advanced the base implementation computes a
        # zero select() timeout and fires the due timers immediately.
        super()._run_once()


def run_on_virtual_clock(coro):
    """Run ``coro`` to completion on a fresh virtual-clock loop.

    The loop is private to this call (the global event-loop policy is never
    touched) and closed afterwards, so simulations cannot leak state into
    each other — a requirement for the bench harness's repeat-determinism
    guard.
    """
    loop = VirtualClockEventLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()
