"""The span tracer: nested timing spans + structured events, off by default.

The tracer is the one clock-bearing object of :mod:`repro.obs`.  Every
instrumented layer (engine super-steps, backend kernel batches, storage
attaches, the serving tier) asks :func:`get_tracer` for the process-wide
tracer and records into it; when tracing is disabled — the default — that
call returns :data:`NULL_TRACER`, whose recording methods are
allocation-free no-ops (``span`` returns one shared singleton).  Hot paths therefore
guard per-item work behind ``tracer.enabled`` (a plain attribute read) and
pay nothing when tracing is off.

Two recording styles coexist:

``with tracer.span("fold", cat="engine"):``
    Context-manager spans read the tracer's *clock* (default
    :data:`repro.utils.timing.now_s`, i.e. ``time.perf_counter``) on entry
    and exit.
``tracer.record_span("request", cat="cluster", start=at_ms, dur=..., unit="ms")``
    Explicit-timestamp spans for call sites that already hold their own
    timings — the engine's finalize phases reuse the perf counters they
    charge wall time with, and the virtual-clock serving tier records spans
    in *virtual milliseconds* read from its event loop, keeping cluster
    traces bit-deterministic.

Events are normalized to Chrome ``trace_event`` microseconds at record time
(``ts``/``dur`` keys), so the exporters in :mod:`repro.obs.exporters` are
pure serialization.
"""

from __future__ import annotations

from repro.utils.timing import now_s

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

#: Microseconds per unit, for :meth:`Tracer.record_span`'s ``unit`` keyword.
_UNIT_US = {"s": 1e6, "ms": 1e3, "us": 1.0}


class _NullSpan:
    """The do-nothing span every disabled-tracer ``span()`` call returns.

    One instance exists per process; entering, exiting and annotating it
    allocate nothing, which is what makes instrumented kernels free when
    tracing is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **args) -> None:
        """Discard span arguments."""


_NULL_SPAN = _NullSpan()


class _Span:
    """A live context-manager span; records one complete event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        end = self._tracer.clock()
        self._tracer.record_span(
            self._name,
            cat=self._cat,
            start=self._start,
            dur=end - self._start,
            tid=self._tid,
            unit=self._tracer.unit,
            args=self._args,
        )
        return False

    def annotate(self, **args) -> None:
        """Attach arguments to the span (merged into the completed event)."""
        if self._args is None:
            self._args = {}
        self._args.update(args)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False`` so call sites can skip building argument
    dictionaries; ``span()`` always returns the one shared
    :class:`_NullSpan`, so the disabled hot path performs no allocation.
    """

    enabled = False
    #: The disabled tracer holds no events; exporters treat it as empty.
    events: list = []

    def span(self, name: str, cat: str = "repro", tid: int = 0, args: dict | None = None):
        """Return the shared no-op span."""
        return _NULL_SPAN

    def event(self, name: str, cat: str = "repro", tid: int = 0, **args) -> None:
        """Discard an instant event."""

    def record_span(
        self,
        name: str,
        cat: str = "repro",
        start: float = 0.0,
        dur: float = 0.0,
        tid: int = 0,
        unit: str = "s",
        args: dict | None = None,
    ) -> None:
        """Discard an explicit-timestamp span."""

    def instant(
        self,
        name: str,
        cat: str = "repro",
        ts: float = 0.0,
        tid: int = 0,
        unit: str = "s",
        args: dict | None = None,
    ) -> None:
        """Discard an explicit-timestamp instant event."""

    def clear(self) -> None:
        """Nothing to clear."""


#: The process-wide disabled tracer (also the identity tests' fixture).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and events against one clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time; defaults to
        :data:`repro.utils.timing.now_s` (``time.perf_counter``).  The
        serving tier's virtual-clock spans bypass the clock entirely via
        :meth:`record_span` with explicit timestamps.
    unit:
        Unit of the clock's readings (``"s"``, ``"ms"`` or ``"us"``); used
        to normalize context-manager spans to microseconds.
    """

    enabled = True

    def __init__(self, clock=None, unit: str = "s") -> None:
        if unit not in _UNIT_US:
            raise ValueError(f"unit must be one of {sorted(_UNIT_US)}, got {unit!r}")
        self.clock = clock if clock is not None else now_s
        self.unit = unit
        #: Recorded events, already in Chrome ``trace_event`` shape:
        #: ``{"name", "cat", "ph", "ts", "dur"?, "pid", "tid", "args"?}``
        #: with ``ts``/``dur`` in microseconds.
        self.events: list[dict] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, cat: str = "repro", tid: int = 0, args: dict | None = None):
        """A context-manager span timed by this tracer's clock."""
        return _Span(self, name, cat, tid, args)

    def event(self, name: str, cat: str = "repro", tid: int = 0, **args) -> None:
        """Record an instant event at the current clock reading."""
        scale = _UNIT_US[self.unit]
        entry = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": self.clock() * scale,
            "pid": 0,
            "tid": tid,
            "s": "t",
        }
        if args:
            entry["args"] = args
        self.events.append(entry)

    def record_span(
        self,
        name: str,
        cat: str = "repro",
        start: float = 0.0,
        dur: float = 0.0,
        tid: int = 0,
        unit: str = "s",
        args: dict | None = None,
    ) -> None:
        """Record one complete span from explicit timestamps.

        ``start``/``dur`` are in ``unit`` (``"s"``, ``"ms"`` or ``"us"``);
        they are normalized to microseconds here so every exporter reads one
        representation.  Negative durations are clamped to zero (clock
        wobble must not produce Perfetto-invalid events).
        """
        scale = _UNIT_US[unit]
        entry = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start * scale,
            "dur": max(dur, 0.0) * scale,
            "pid": 0,
            "tid": tid,
        }
        if args:
            entry["args"] = args
        self.events.append(entry)

    def instant(
        self,
        name: str,
        cat: str = "repro",
        ts: float = 0.0,
        tid: int = 0,
        unit: str = "s",
        args: dict | None = None,
    ) -> None:
        """Record an instant event from an explicit timestamp.

        The virtual-clock serving tier marks sheds, hedge fires and
        preemptions at ``loop.time()`` readings (virtual milliseconds) that
        are not this tracer's clock; this is :meth:`record_span`'s
        explicit-timestamp twin for zero-duration marks.
        """
        entry = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": ts * _UNIT_US[unit],
            "pid": 0,
            "tid": tid,
            "s": "t",
        }
        if args:
            entry["args"] = args
        self.events.append(entry)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every recorded event."""
        self.events.clear()


#: The process-wide current tracer; NULL_TRACER unless installed.
_CURRENT: NullTracer | Tracer = NULL_TRACER


def get_tracer():
    """The process-wide tracer every instrumented layer records into."""
    return _CURRENT


def set_tracer(tracer) -> NullTracer | Tracer:
    """Install ``tracer`` process-wide (``None`` → disable); returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER
    return previous
