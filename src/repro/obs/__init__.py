"""Pipeline observability: one handle for spans, counters, events.

A :class:`Tracer` is the one instrumentation handle.  It carries:

* the **measurement substrate** — spans, a :class:`Registry` of
  counters and histograms, read back by :class:`StageReport`;
* optionally the **flight recorder** — an :class:`EventLog` of typed
  JSONL events, replayed by :class:`ProvenanceGraph` to explain an
  alert;
* optionally **windowed telemetry** — a :class:`Telemetry` hub of
  rates and quantile sketches that the :class:`SloEngine` and the
  Prometheus export read;

all on one clock, ``tracer.clock``.  Instrumented entry points (crawler, gatherer,
search engine, training generator, classifiers,
:class:`~repro.core.etap.Etap`, alert service, stream processor,
portal, CLI) take one optional ``tracer``; ``None`` means
:data:`NULL_TRACER`, which makes the instrumentation free when it is
off.  Components built from an ``Etap`` inherit ``etap.tracer``.

    from repro.obs import EventLog, ProvenanceGraph, Tracer

    tracer = Tracer(recorder=EventLog(sink="events.jsonl"))
    etap = Etap.from_web(web, tracer=tracer)
    etap.gather(); etap.train()
    ...
    graph = ProvenanceGraph.from_events(tracer.recorder.events())
    print(graph.explain(alert_id).render())
"""

from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.drift import (
    DriftBaseline,
    DriftMonitor,
    DriftReport,
    DriftThresholds,
)
from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    Event,
    EventLog,
    read_events,
    validate_jsonl,
    validate_record,
)
from repro.obs.export import (
    derive_gauges,
    parse_prometheus_text,
    prometheus_text,
    slo_gauges,
    telemetry_gauges,
)
from repro.obs.health import (
    EXIT_CODES,
    STATUS_CRITICAL,
    STATUS_DEGRADED,
    STATUS_OK,
    ComponentHealth,
    HealthMonitor,
    HealthReport,
    fetcher_probe,
    gather_probe,
    portal_probe,
    processor_probe,
)
from repro.obs.metrics import (
    HISTOGRAM_EXACT_LIMIT,
    Counter,
    Histogram,
    Registry,
)
from repro.obs.provenance import ProvenanceChain, ProvenanceGraph
from repro.obs.report import StageReport
from repro.obs.slo import (
    SloEngine,
    SloSpec,
    SloStatus,
    default_slos,
    load_slo_config,
    parse_slo_config,
)
from repro.obs.timeseries import (
    P2Quantile,
    QuantileSketch,
    Telemetry,
    TimeSeries,
    WindowAggregate,
)
from repro.obs.tracer import (
    NULL_TRACER,
    AnyTracer,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "AnyTracer",
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "Counter",
    "Histogram",
    "Registry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "StageReport",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "Event",
    "EventLog",
    "read_events",
    "validate_jsonl",
    "validate_record",
    "ProvenanceChain",
    "ProvenanceGraph",
    "prometheus_text",
    "parse_prometheus_text",
    "derive_gauges",
    "telemetry_gauges",
    "slo_gauges",
    "DriftBaseline",
    "DriftMonitor",
    "DriftReport",
    "DriftThresholds",
    "TimeSeries",
    "WindowAggregate",
    "P2Quantile",
    "QuantileSketch",
    "Telemetry",
    "HISTOGRAM_EXACT_LIMIT",
    "SloSpec",
    "SloStatus",
    "SloEngine",
    "default_slos",
    "load_slo_config",
    "parse_slo_config",
    "ComponentHealth",
    "HealthMonitor",
    "HealthReport",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_CRITICAL",
    "EXIT_CODES",
    "fetcher_probe",
    "portal_probe",
    "processor_probe",
    "gather_probe",
]
