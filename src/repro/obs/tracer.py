"""The one observability handle: spans, metrics, events, windows.

A :class:`Tracer` records a tree of named :class:`Span` objects plus
counters and histograms in a :class:`~repro.obs.metrics.Registry`::

    tracer = Tracer()
    with tracer.span("gather"):
        with tracer.span("gather.crawl") as span:
            span.add_items(n_pages)
    report = StageReport.from_tracer(tracer)

It optionally carries the flight recorder (an
:class:`~repro.obs.events.EventLog`, fed by :meth:`Tracer.emit`) and
windowed telemetry (a :class:`~repro.obs.timeseries.Telemetry`, read
and written through ``tracer.windows``).

``tracer.clock`` is the run's one time axis: spans, events, windows,
cache TTLs, token buckets, deadlines and portal latencies all read it.
It is chosen once, at ``Tracer(clock=)`` (a
:class:`~repro.obs.clock.MonotonicClock` by default); the null tracer
carries a shared monotonic clock.

Instrumented library code takes one optional ``tracer`` argument;
``None`` means the module-level :data:`NULL_TRACER` — a no-op object
whose ``span`` returns a single preallocated context manager and whose
``emit`` does nothing, so the uninstrumented hot path pays one method
call and nothing else.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.events import EventLog
from repro.obs.metrics import Registry
from repro.obs.timeseries import Telemetry


@dataclass
class Span:
    """One timed stage, possibly containing sub-stages.

    ``items`` counts the units of work the stage processed (pages,
    documents, snippets ...) so the report can derive throughput.
    """

    name: str
    started: float
    ended: float | None = None
    items: int = 0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall seconds; 0.0 while the span is still open."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    @property
    def throughput(self) -> float:
        """Items per second (0.0 when duration or items is zero)."""
        if self.items == 0 or self.duration <= 0:
            return 0.0
        return self.items / self.duration

    def add_items(self, n: int = 1) -> None:
        self.items += n

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.duration,
            "items": self.items,
            "throughput": self.throughput,
            "children": [child.to_dict() for child in self.children],
        }


class _SpanContext(AbstractContextManager):
    """Context manager that closes a span on exit (even on error)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span)
        return None


class Tracer:
    """Collects spans, counters and histograms; optionally events and
    windowed telemetry.

    ``recorder`` is the flight recorder behind :meth:`emit`;
    ``windows`` the telemetry hub the SLO engine reads.  Every part
    adopts the tracer's clock (``clock``, else a monotonic one);
    attach parts before they record.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        registry: Registry | None = None,
        recorder: EventLog | None = None,
        windows: Telemetry | None = None,
    ) -> None:
        self.clock = MonotonicClock() if clock is None else clock
        for part in (windows, recorder):
            if part is not None:
                part.clock = self.clock
        self.registry = Registry() if registry is None else registry
        self.recorder = recorder
        self.windows = windows
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def enabled(self) -> bool:
        return True

    @property
    def recording(self) -> bool:
        """Whether :meth:`emit` reaches a flight recorder."""
        return self.recorder is not None

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- spans ----------------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span("stage"):``."""
        span = Span(name=name, started=self.clock.now())
        parent = self.current
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.ended = self.clock.now()
        # Unwind to (and including) the span being closed; tolerates
        # exotic exits like generators closing spans out of order.
        while self._stack:
            if self._stack.pop() is span:
                break

    def add_items(self, n: int = 1) -> None:
        """Attribute ``n`` items of work to the innermost open span."""
        current = self.current
        if current is not None:
            current.add_items(n)

    # -- metrics --------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.registry.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def timed(self, name: str) -> "_TimedContext":
        """Time a block into histogram ``name`` without creating a span.

        For operations that repeat many times per run (individual
        searches, scoring batches) where a span per call would drown
        the stage tree; the histogram keeps the distribution instead.
        """
        return _TimedContext(self, name)

    # -- events ---------------------------------------------------------------

    def emit(
        self, event_type: str, lineage_id: str | None = None, **payload
    ) -> None:
        """Record one flight-recorder event (dropped without a recorder)."""
        if self.recorder is not None:
            self.recorder.emit(event_type, lineage_id, **payload)


class _TimedContext(AbstractContextManager):
    """Observes the block's duration into a histogram on exit."""

    __slots__ = ("_tracer", "_name", "_started")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = self._tracer.clock.now()
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.observe(
            self._name, self._tracer.clock.now() - self._started
        )
        return None


class _NullSpan:
    """Inert span handed out by the null tracer."""

    __slots__ = ()
    name = ""
    items = 0
    children: list = []

    @property
    def duration(self) -> float:
        return 0.0

    def add_items(self, n: int = 1) -> None:
        pass


class _NullSpanContext(AbstractContextManager):
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """Zero-overhead stand-in: every operation is a no-op.

    ``span`` returns one preallocated context manager, so instrumented
    code carries no measurable cost when tracing is off.  All
    instrumented entry points default to the shared :data:`NULL_TRACER`.
    """

    __slots__ = ()
    recorder = None
    windows = None
    clock = MonotonicClock()

    @property
    def enabled(self) -> bool:
        return False

    @property
    def recording(self) -> bool:
        return False

    @property
    def current(self) -> None:
        return None

    @property
    def roots(self) -> list:
        return []

    def span(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def timed(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def add_items(self, n: int = 1) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def emit(
        self, event_type: str, lineage_id: str | None = None, **payload
    ) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()

#: Shared no-op tracer; the default for every instrumented code path.
NULL_TRACER = NullTracer()

#: Either the real tracer or the null stand-in (duck-typed interface).
AnyTracer = Tracer | NullTracer
