"""The flight recorder: typed, schema-versioned pipeline events.

Every pipeline stage can report *what happened and why* as an
:class:`Event` — a crawl fetched a page, the store deduplicated a
document, a classifier flagged a snippet, the alert service emitted an
alert.  Events are plain JSON-able records with a shared envelope
(schema version, run id, sequence number, timestamp, optional per-
document ``lineage_id``) plus a typed payload, so a run's event log can
be persisted as JSONL, validated against the schema, and replayed into
a :class:`~repro.obs.provenance.ProvenanceGraph` that explains any
alert back to the page that produced it.

Instrumented code emits through its
:class:`~repro.obs.tracer.Tracer` (``tracer.emit``), which forwards to
the log it carries; under the null tracer the recorder-off path is a
single no-op method call.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.obs.clock import Clock, MonotonicClock

#: Version of the event envelope + payload schemas below.  Bump when a
#: required field is added/renamed; ``validate_record`` rejects records
#: from other versions so downstream tooling never misreads a log.
SCHEMA_VERSION = 1

#: Event type -> payload fields that must be present (extra fields are
#: always allowed; the schema is a floor, not a ceiling).
EVENT_TYPES: dict[str, frozenset[str]] = {
    "run_started": frozenset({"command"}),
    "page_crawled": frozenset({"url", "depth"}),
    "doc_indexed": frozenset({"doc_id", "url"}),
    "doc_deduped": frozenset({"doc_id", "reason"}),
    "search_executed": frozenset({"query", "n_results"}),
    "model_trained": frozenset(
        {
            "driver_id",
            "n_noisy_positive",
            "n_noisy_kept",
            "n_negative",
            "n_features",
            "n_iterations",
        }
    ),
    "snippet_scored": frozenset(
        {"snippet_id", "doc_id", "driver_id", "score"}
    ),
    "trigger_classified": frozenset(
        {"snippet_id", "doc_id", "driver_id", "score", "rank", "features"}
    ),
    "alert_emitted": frozenset(
        {
            "alert_id",
            "cycle",
            "driver_id",
            "snippet_id",
            "doc_id",
            "score",
        }
    ),
    "company_ranked": frozenset({"company", "mrr", "position"}),
    "drift_warning": frozenset({"monitor", "value", "threshold"}),
    "fetch_retry": frozenset({"url", "attempt", "wait_ticks", "reason"}),
    "breaker_open": frozenset({"host", "failures"}),
    "breaker_close": frozenset({"host"}),
    "fetch_dead_letter": frozenset({"url", "reason", "attempts"}),
    "query_served": frozenset({"client_id", "query", "status"}),
    "query_rejected": frozenset({"client_id", "reason"}),
    "snapshot_swapped": frozenset({"generation", "n_docs", "n_shards"}),
    # Process-sharded ingestion (docs/PERFORMANCE.md): one event per
    # shard as its flat postings slice lands in the merged index.
    "shard_merged": frozenset({"shard", "docs", "tokens", "terms"}),
    "subscription_polled": frozenset({"subscription_id", "n_alerts"}),
    # Streaming ingestion (docs/STREAMING.md).  The first four double as
    # the write-ahead-log record types of
    # :class:`~repro.core.persistence.WriteAheadLog`.
    "stream_batch_begin": frozenset({"cycle", "n_docs"}),
    "stream_alert": frozenset(
        {"alert_id", "cycle", "driver_id", "snippet_id", "doc_id", "score"}
    ),
    "stream_batch_commit": frozenset(
        {"cycle", "watermark", "generation", "n_alerts"}
    ),
    "checkpoint_written": frozenset(
        {"checkpoint_id", "cycle", "watermark", "wal_seq"}
    ),
    "stream_resumed": frozenset(
        {"checkpoint_id", "cycle", "wal_records_replayed"}
    ),
    "late_arrival": frozenset({"doc_id", "published_day", "watermark"}),
    # SLO engine + health monitor (docs/OBSERVABILITY.md).  The system
    # meta-alerts on itself through the same flight recorder it uses
    # for pipeline lineage.
    "slo_breach": frozenset(
        {"slo", "objective", "window", "burn_rate", "budget_remaining"}
    ),
    "health_transition": frozenset({"status", "previous", "reasons"}),
    # Replicated serving (docs/SERVING.md, "Replication and chaos
    # serving").  ``degraded_read`` fires wherever a response is built
    # from anything but a fresh, fully-replicated generation — the
    # stale cache path and the router's group fallback share it.
    "replica_down": frozenset({"shard", "replica"}),
    "replica_restored": frozenset({"shard", "replica", "lag"}),
    "query_hedged": frozenset({"query", "shard", "primary", "hedge"}),
    "degraded_read": frozenset({"source"}),
    # Smart-query planner (docs/QUERIES.md): every candidate's measured
    # coverage/precision/cost, and each driver's selected portfolio.
    "query_candidate_evaluated": frozenset(
        {"driver_id", "query", "source", "coverage", "precision", "cost"}
    ),
    "portfolio_selected": frozenset(
        {
            "driver_id",
            "budget",
            "n_candidates",
            "n_selected",
            "total_cost",
            "precision_at_budget",
        }
    ),
}

_ENVELOPE_FIELDS = frozenset(
    {"schema_version", "run_id", "seq", "ts", "event_type", "lineage_id",
     "payload"}
)


def new_run_id() -> str:
    """A short, collision-resistant id for one pipeline run."""
    return os.urandom(6).hex()


@dataclass(frozen=True)
class Event:
    """One recorded pipeline occurrence."""

    event_type: str
    run_id: str
    seq: int
    ts: float
    payload: dict = field(default_factory=dict)
    lineage_id: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "seq": self.seq,
            "ts": self.ts,
            "event_type": self.event_type,
            "lineage_id": self.lineage_id,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        errors = validate_record(record)
        if errors:
            raise ValueError("; ".join(errors))
        return cls(
            event_type=record["event_type"],
            run_id=record["run_id"],
            seq=record["seq"],
            ts=record["ts"],
            payload=dict(record["payload"]),
            lineage_id=record.get("lineage_id"),
            schema_version=record["schema_version"],
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        return cls.from_dict(json.loads(line))


def validate_record(record: object) -> list[str]:
    """Schema-check one parsed JSONL record; returns human errors."""
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    errors: list[str] = []
    missing = _ENVELOPE_FIELDS - set(record)
    if missing:
        errors.append(f"missing envelope fields: {sorted(missing)}")
        return errors
    if record["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {record['schema_version']!r} != "
            f"{SCHEMA_VERSION}"
        )
    event_type = record["event_type"]
    required = EVENT_TYPES.get(event_type)
    if required is None:
        errors.append(f"unknown event_type {event_type!r}")
        return errors
    payload = record["payload"]
    if not isinstance(payload, dict):
        errors.append("payload is not a JSON object")
        return errors
    missing_payload = required - set(payload)
    if missing_payload:
        errors.append(
            f"{event_type}: missing payload fields "
            f"{sorted(missing_payload)}"
        )
    return errors


def validate_jsonl(
    lines: Iterable[str],
) -> list[tuple[int, str]]:
    """Validate an event log's JSONL lines; returns (lineno, error)."""
    problems: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append((lineno, f"invalid JSON: {exc}"))
            continue
        for error in validate_record(record):
            problems.append((lineno, error))
    return problems


def read_events(path: str | Path) -> list[Event]:
    """Load a JSONL event log written by :class:`EventLog`."""
    events: list[Event] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_json(line))
    return events


class EventLog:
    """Bounded in-memory event ring with an optional JSONL file sink.

    The ring (``capacity`` most recent events) keeps memory bounded on
    long runs; the file sink, when given, receives *every* event as one
    JSON line, so the durable record is complete even after the ring
    wraps.  Emission is serialized by a lock: serving threads share one
    tracer, and unserialized writes tear sink lines and repeat ``seq``.
    """

    def __init__(
        self,
        capacity: int = 16_384,
        sink: str | Path | IO[str] | None = None,
        run_id: str | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.run_id = run_id or new_run_id()
        #: Stamps ``ts``; the :class:`~repro.obs.tracer.Tracer` the log
        #: is attached to sets it to the run's clock.
        self.clock: Clock = MonotonicClock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._counts: Counter[str] = Counter()
        self._owns_sink = False
        self._sink: IO[str] | None = None
        if sink is not None:
            if isinstance(sink, (str, Path)):
                self._sink = Path(sink).open("w", encoding="utf-8")
                self._owns_sink = True
            else:
                self._sink = sink

    # -- recording ------------------------------------------------------------

    def emit(
        self,
        event_type: str,
        lineage_id: str | None = None,
        **payload,
    ) -> Event:
        """Record one event; payload must satisfy the type's schema."""
        required = EVENT_TYPES.get(event_type)
        if required is None:
            raise ValueError(f"unknown event_type {event_type!r}")
        missing = required - set(payload)
        if missing:
            raise ValueError(
                f"{event_type}: missing payload fields {sorted(missing)}"
            )
        with self._lock:
            event = Event(
                event_type=event_type,
                run_id=self.run_id,
                seq=self._seq,
                ts=self.clock.now(),
                payload=payload,
                lineage_id=lineage_id,
            )
            self._seq += 1
            self._counts[event_type] += 1
            self._ring.append(event)
            if self._sink is not None:
                self._sink.write(event.to_json() + "\n")
        return event

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)

    @property
    def total_emitted(self) -> int:
        """Events emitted over the log's lifetime (ring may hold fewer)."""
        return self._seq

    def events(self, event_type: str | None = None) -> list[Event]:
        """Ring contents, optionally filtered by type."""
        if event_type is None:
            return list(self._ring)
        return [e for e in self._ring if e.event_type == event_type]

    def counts(self) -> dict[str, int]:
        """Lifetime per-type emission counts (survives ring wrap)."""
        return dict(sorted(self._counts.items()))

    # -- sink lifecycle -------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
                self._sink = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
