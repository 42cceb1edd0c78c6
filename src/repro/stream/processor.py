"""The streaming processor: incremental ingestion with exactly-once alerts.

:class:`StreamProcessor` turns a trained batch
:class:`~repro.core.etap.Etap` into a resumable news-stream processor.
Each :class:`~repro.stream.source.MicroBatch` flows through:

1. **WAL batch-begin** — the cycle is announced durably;
2. **watermark routing** — documents older than
   ``watermark - allowed_lateness`` go to the late-arrival side channel
   (recorded in the WAL, the flight recorder and
   :attr:`late_arrivals`; never silently dropped), everything else is
   processed, late-but-within-lateness documents included;
3. **incremental ingestion** — on-time documents enter the
   deduplicating store and, as one write batch, the pipeline's inverted
   index (:meth:`SearchEngine.add_documents`); the batch advances the
   index ``generation`` by one;
4. **online minting** — snippets of the new documents go through the
   batch path's scorer (:meth:`Etap.trigger_events`); flagged events mint
   :class:`StreamAlert`\\ s keyed by the alert-service idempotency key,
   each logged to the WAL before the batch commits;
5. **WAL batch-commit + periodic checkpoint** — processor state
   (watermark, index generation, idempotency keys, alerts, streamed
   documents, cache stats) lands in an atomic
   :class:`~repro.core.persistence.CheckpointStore` snapshot.  Each
   streamed document, alert and late arrival is JSON-encoded once, when
   it is added; a checkpoint joins those texts instead of re-encoding
   everything streamed so far.

**Recovery contract** (pinned by ``tests/stream/test_recovery.py``):
kill the process after *any* WAL record, then :meth:`resume` restores
the latest checkpoint, learns from the WAL tail which alerts were
already durably emitted, seeks the replayable source back to the
checkpointed cycle, and reprocesses the remainder.  Reprocessing is
deterministic and idempotency-keyed, so the final alert set, key set
and index generation are identical to an uninterrupted run — zero
duplicates, zero holes.  Alerts re-derived during replay that the WAL
already recorded are marked ``recovered`` instead of being delivered
twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.alerts import idempotency_key
from repro.core.etap import TRIGGER_THRESHOLD, Etap
from repro.core.persistence import (
    CheckpointStore,
    WriteAheadLog,
    encode,
    encode_array,
    encode_object,
)
from repro.gather.store import StoredDocument
from repro.stream.source import DocumentStream, MicroBatch, StreamDocument

#: Version of the checkpoint ``state`` payload written below (rides
#: inside the CheckpointStore envelope, which has its own version).
STATE_VERSION = 1


@dataclass(frozen=True)
class StreamAlert:
    """One alert minted online by the stream processor."""

    cycle: int
    driver_id: str
    alert_id: str
    snippet_id: str
    doc_id: str
    score: float
    companies: tuple[str, ...]
    text: str
    url: str
    published_day: int
    #: True when this alert was re-derived during recovery replay and
    #: the WAL shows it was already durably emitted before the crash —
    #: it is part of the final state but must not be delivered again.
    recovered: bool = False

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "driver_id": self.driver_id,
            "alert_id": self.alert_id,
            "snippet_id": self.snippet_id,
            "doc_id": self.doc_id,
            "score": self.score,
            "companies": list(self.companies),
            "text": self.text,
            "url": self.url,
            "published_day": self.published_day,
            "recovered": self.recovered,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "StreamAlert":
        return cls(
            cycle=record["cycle"],
            driver_id=record["driver_id"],
            alert_id=record["alert_id"],
            snippet_id=record["snippet_id"],
            doc_id=record["doc_id"],
            score=record["score"],
            companies=tuple(record["companies"]),
            text=record["text"],
            url=record["url"],
            published_day=record["published_day"],
            recovered=record.get("recovered", False),
        )


@dataclass(frozen=True)
class LateArrival:
    """One document routed to the late-arrival side channel."""

    cycle: int
    doc_id: str
    published_day: int
    watermark: int

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "doc_id": self.doc_id,
            "published_day": self.published_day,
            "watermark": self.watermark,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LateArrival":
        return cls(**record)


@dataclass
class CycleReport:
    """Outcome of one processed micro-batch."""

    cycle: int
    n_docs: int
    n_ingested: int
    n_deduped: int
    n_late: int
    watermark: int | None
    generation: int
    alerts: list[StreamAlert] = field(default_factory=list)
    checkpointed: bool = False


@dataclass(frozen=True)
class ResumeInfo:
    """What :meth:`StreamProcessor.resume` reconstructed."""

    checkpoint_id: int | None
    cycle: int
    wal_records_replayed: int
    recovered_alert_keys: frozenset[str]


class StreamProcessor:
    """Consumes micro-batches, minting alerts with exactly-once effects."""

    def __init__(
        self,
        etap: Etap,
        wal: WriteAheadLog | None = None,
        checkpoints: CheckpointStore | None = None,
        allowed_lateness: int | None = 2,
        checkpoint_every: int = 1,
        threshold: float | None = None,
    ) -> None:
        if not etap.classifiers:
            raise ValueError(
                "the Etap instance must be trained before streaming"
            )
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if allowed_lateness is not None and allowed_lateness < 0:
            raise ValueError("allowed_lateness must be >= 0 or None")
        self.etap = etap
        self.wal = wal
        self.checkpoints = checkpoints
        self.allowed_lateness = allowed_lateness
        self.checkpoint_every = checkpoint_every
        self.threshold = TRIGGER_THRESHOLD if threshold is None else threshold
        #: The Etap's handle: spans, events and windowed telemetry of
        #: the stream land beside the batch pipeline's.
        self.tracer = etap.tracer
        #: Index generation: 1 for the base corpus, +1 per processed
        #: batch (recorded in the WAL commit and every checkpoint).
        self.generation = 1
        self._processed: set[str] = set(etap.store.doc_ids())
        #: Event-time high watermark (None until the first document).
        self.watermark: int | None = None
        #: Last fully processed cycle.
        self.cycle = 0
        self.emitted_keys: set[str] = set()
        self.alerts: list[StreamAlert] = []
        self.late_arrivals: list[LateArrival] = []
        #: Documents ingested from the stream, in ingest order (the
        #: delta the checkpoint persists; the base corpus is rebuilt
        #: deterministically by the caller).
        self.streamed_docs: list[str] = []
        #: Keys the recovery WAL scan found already durably emitted.
        self._recovered_keys: frozenset[str] = frozenset()
        #: The checkpoint's record lists: each record's :func:`encode`
        #: text, made once when the record is added (see
        #: :meth:`_state_text`).
        self._encoded: dict[str, list[str]] = {
            "alerts": [], "documents": [], "late_arrivals": [],
        }

    # -- lateness ---------------------------------------------------------------

    def is_late(self, published_day: int) -> bool:
        """Whether a document falls beyond the allowed lateness.

        With ``allowed_lateness=None`` the watermark is disabled and
        nothing is ever late (the batch-equivalence configuration).
        """
        if self.allowed_lateness is None or self.watermark is None:
            return False
        return published_day < self.watermark - self.allowed_lateness

    # -- processing -------------------------------------------------------------

    def process_batch(self, batch: MicroBatch) -> CycleReport:
        """Ingest one micro-batch; durable once this returns."""
        self._wal_append(
            "stream_batch_begin",
            cycle=batch.cycle,
            n_docs=len(batch.documents),
            watermark=self.watermark,
        )
        windows = self.tracer.windows
        batch_started = self.tracer.clock.now()
        with self.tracer.span("stream.batch") as span:
            on_time: list[StreamDocument] = []
            n_late = 0
            for document in batch.documents:
                if self.is_late(document.published_day):
                    n_late += 1
                    self._record_late(batch.cycle, document)
                else:
                    on_time.append(document)

            ingested = self._ingest(on_time)
            alerts = self._mint_alerts(batch.cycle, ingested)

            max_time = batch.max_event_time
            if max_time is not None:
                self.watermark = (
                    max_time if self.watermark is None
                    else max(self.watermark, max_time)
                )
            self.cycle = batch.cycle
            span.add_items(len(batch.documents))

        self._wal_append(
            "stream_batch_commit",
            cycle=batch.cycle,
            watermark=self.watermark,
            generation=self.generation,
            n_alerts=len(alerts),
        )
        checkpointed = False
        if (
            self.checkpoints is not None
            and batch.cycle % self.checkpoint_every == 0
        ):
            self.checkpoint()
            checkpointed = True

        if windows is not None:
            windows.record("stream.docs", n=len(ingested))
            windows.record("stream.late", n=n_late)
            windows.record("stream.alerts", n=len(alerts))
            windows.observe(
                "stream.batch_seconds",
                self.tracer.clock.now() - batch_started,
            )
            if self.watermark is not None:
                # Freshness at ingest: how stale each accepted document
                # already was relative to the event-time watermark.
                for document in ingested:
                    windows.observe(
                        "stream.freshness_days",
                        max(0, self.watermark - document.published_day),
                    )
        self.tracer.count("stream.batches")
        self.tracer.count("stream.docs_ingested", len(ingested))
        self.tracer.count(
            "stream.docs_deduped", len(on_time) - len(ingested)
        )
        self.tracer.count("stream.late_arrivals", n_late)
        self.tracer.count("stream.alerts_minted", len(alerts))
        self.tracer.count(
            "stream.alerts_recovered",
            sum(1 for alert in alerts if alert.recovered),
        )
        return CycleReport(
            cycle=batch.cycle,
            n_docs=len(batch.documents),
            n_ingested=len(ingested),
            n_deduped=len(on_time) - len(ingested),
            n_late=n_late,
            watermark=self.watermark,
            generation=self.generation,
            alerts=alerts,
            checkpointed=checkpointed,
        )

    def run(
        self, source: DocumentStream, until_cycle: int
    ) -> list[CycleReport]:
        """Consume the source until ``until_cycle`` batches are done."""
        reports = []
        while source.cycle < until_cycle:
            reports.append(self.process_batch(source.next_batch()))
        return reports

    # -- internals --------------------------------------------------------------

    def _wal_append(self, event_type: str, **payload) -> None:
        if self.wal is not None:
            self.wal.append(event_type, **payload)

    def _record_late(
        self, cycle: int, document: StreamDocument
    ) -> None:
        arrival = LateArrival(
            cycle=cycle,
            doc_id=document.doc_id,
            published_day=document.published_day,
            watermark=self.watermark if self.watermark is not None else 0,
        )
        self.late_arrivals.append(arrival)
        self._encoded["late_arrivals"].append(encode(arrival.to_dict()))
        self._wal_append(
            "late_arrival",
            doc_id=arrival.doc_id,
            published_day=arrival.published_day,
            watermark=arrival.watermark,
            cycle=cycle,
        )
        self.tracer.emit(
            "late_arrival",
            lineage_id=arrival.doc_id,
            doc_id=arrival.doc_id,
            published_day=arrival.published_day,
            watermark=arrival.watermark,
            cycle=cycle,
        )

    def _ingest(
        self, documents: Sequence[StreamDocument]
    ) -> list[StreamDocument]:
        """Store + index the genuinely new documents; returns them."""
        fresh: list[StreamDocument] = []
        for document in documents:
            if document.doc_id in self._processed:
                continue
            stored = StoredDocument(
                doc_id=document.doc_id,
                url=document.url,
                title=document.title,
                text=document.text,
                metadata={
                    "doc_type": document.doc_type,
                    "published_day": document.published_day,
                },
            )
            if not self.etap.store.add(stored):
                continue  # content/url duplicate of an earlier page
            self._add_streamed(document.doc_id)
            fresh.append(document)
        # One write batch keeps the pipeline's engine in sync with the
        # store for search and snippets; each batch is one generation.
        self.etap.engine.add_documents(
            [(doc.doc_id, doc.text, doc.title) for doc in fresh]
        )
        self.generation += 1
        return fresh

    def _mint_alerts(
        self, cycle: int, documents: Sequence[StreamDocument]
    ) -> list[StreamAlert]:
        day_of = {doc.doc_id: doc.published_day for doc in documents}
        items = self.etap.snippet_items(doc.doc_id for doc in documents)
        minted: list[StreamAlert] = []
        if not items:
            return minted
        for driver in self.etap.drivers:
            events, _ = self.etap.trigger_events(
                driver.driver_id, items, self.threshold
            )
            for event in events:
                key = idempotency_key(
                    driver.driver_id, event.snippet_id, event.companies
                )
                if key in self.emitted_keys:
                    continue
                self.emitted_keys.add(key)
                alert = StreamAlert(
                    cycle=cycle,
                    driver_id=driver.driver_id,
                    alert_id=key,
                    snippet_id=event.snippet_id,
                    doc_id=event.doc_id,
                    score=event.score,
                    companies=event.companies,
                    text=event.text,
                    url=event.url,
                    published_day=day_of.get(event.doc_id, 0),
                    recovered=key in self._recovered_keys,
                )
                minted.append(alert)
                self.alerts.append(alert)
                self._encoded["alerts"].append(encode(alert.to_dict()))
                self._wal_append(
                    "stream_alert",
                    alert_id=key,
                    cycle=cycle,
                    driver_id=driver.driver_id,
                    snippet_id=event.snippet_id,
                    doc_id=event.doc_id,
                    score=event.score,
                    recovered=alert.recovered,
                )
                self.tracer.emit(
                    "alert_emitted",
                    lineage_id=event.doc_id,
                    alert_id=key,
                    cycle=cycle,
                    driver_id=driver.driver_id,
                    snippet_id=event.snippet_id,
                    doc_id=event.doc_id,
                    score=event.score,
                    rank=event.rank,
                    url=event.url,
                    companies=list(event.companies),
                    text=event.text,
                    recovered=alert.recovered,
                )
        return minted

    # -- checkpointing ----------------------------------------------------------

    def _add_streamed(self, doc_id: str) -> None:
        """Record a streamed document as the checkpoint persists it."""
        self._processed.add(doc_id)
        self.streamed_docs.append(doc_id)
        doc = self.etap.store.get(doc_id)
        self._encoded["documents"].append(encode({
            "doc_id": doc.doc_id,
            "url": doc.url,
            "title": doc.title,
            "text": doc.text,
            "metadata": doc.metadata,
        }))

    def _wal_seq(self) -> int:
        """Sequence number of the last WAL record (-1 without a WAL)."""
        return self.wal.last_seq if self.wal is not None else -1

    def _state_text(self) -> str:
        """The :func:`encode` text of the checkpointable state.

        Only the scalar fields and the sorted key set are encoded here;
        the record lists are joined from their encode-once fragments.
        """
        stats = self.etap.text_engine.stats()
        members = {
            key: encode(value)
            for key, value in {
                "state_version": STATE_VERSION,
                "cycle": self.cycle,
                "watermark": self.watermark,
                "allowed_lateness": self.allowed_lateness,
                "generation": self.generation,
                "emitted_keys": sorted(self.emitted_keys),
                "wal_seq": self._wal_seq(),
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": round(stats.hit_rate, 4),
                },
            }.items()
        }
        for key, records in self._encoded.items():
            members[key] = encode_array(records)
        return encode_object(members)

    def state_dict(self) -> dict:
        """The checkpointable processor state (JSON-compatible): the
        decoded text a checkpoint writes."""
        return json.loads(self._state_text())

    def checkpoint(self) -> None:
        """Write one atomic checkpoint and announce it in the WAL."""
        if self.checkpoints is None:
            raise RuntimeError("no CheckpointStore configured")
        wal_seq = self._wal_seq()
        self.checkpoints.save(self.cycle, self._state_text())
        self.tracer.count("stream.checkpoints_written")
        self._wal_append(
            "checkpoint_written",
            checkpoint_id=self.cycle,
            cycle=self.cycle,
            watermark=self.watermark,
            wal_seq=wal_seq,
        )
        self.tracer.emit(
            "checkpoint_written",
            checkpoint_id=self.cycle,
            cycle=self.cycle,
            watermark=self.watermark,
            wal_seq=wal_seq,
        )

    # -- recovery ---------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        etap: Etap,
        wal: WriteAheadLog,
        checkpoints: CheckpointStore,
        allowed_lateness: int | None = 2,
        checkpoint_every: int = 1,
        threshold: float | None = None,
    ) -> tuple["StreamProcessor", ResumeInfo]:
        """Reconstruct a processor after a crash (or a clean stop).

        ``etap`` must be the deterministically rebuilt *base* pipeline:
        same base corpus, same trained (or reloaded) classifiers.  The
        checkpoint contributes everything the stream added on top; the
        WAL tail contributes the set of alert keys that were already
        durably emitted after the checkpoint, so replayed alerts are
        flagged ``recovered`` instead of being delivered twice.  The
        caller then seeks the source to ``info.cycle`` and keeps
        consuming.
        """
        latest = checkpoints.latest()
        processor = cls(
            etap,
            wal=wal,
            checkpoints=checkpoints,
            allowed_lateness=allowed_lateness,
            checkpoint_every=checkpoint_every,
            threshold=threshold,
        )
        if latest is None:
            # Crash before the first checkpoint: replay from the
            # origin; the WAL still tells us what was already emitted.
            records = wal.read()
            recovered = frozenset(
                record.payload["alert_id"]
                for record in records
                if record.event_type == "stream_alert"
            )
            processor._recovered_keys = recovered
            info = ResumeInfo(
                checkpoint_id=None,
                cycle=0,
                wal_records_replayed=len(records),
                recovered_alert_keys=recovered,
            )
        else:
            checkpoint_id, state = latest
            version = state.get("state_version")
            if version != STATE_VERSION:
                raise ValueError(
                    f"unsupported stream state version {version!r}"
                )
            processor._restore_state(state)
            tail = [
                record
                for record in wal.read()
                if record.seq > state["wal_seq"]
            ]
            recovered = frozenset(
                record.payload["alert_id"]
                for record in tail
                if record.event_type == "stream_alert"
            )
            processor._recovered_keys = recovered
            info = ResumeInfo(
                checkpoint_id=checkpoint_id,
                cycle=processor.cycle,
                wal_records_replayed=len(tail),
                recovered_alert_keys=recovered,
            )
        processor.tracer.count("stream.resumes")
        wal.append(
            "stream_resumed",
            checkpoint_id=(
                info.checkpoint_id if info.checkpoint_id is not None
                else -1
            ),
            cycle=info.cycle,
            wal_records_replayed=info.wal_records_replayed,
        )
        processor.tracer.emit(
            "stream_resumed",
            checkpoint_id=(
                info.checkpoint_id if info.checkpoint_id is not None
                else -1
            ),
            cycle=info.cycle,
            wal_records_replayed=info.wal_records_replayed,
        )
        return processor, info

    def _restore_state(self, state: dict) -> None:
        """Apply a checkpoint's state on top of the base pipeline."""
        self.cycle = state["cycle"]
        self.watermark = state["watermark"]
        self.generation = state["generation"]
        self.emitted_keys = set(state["emitted_keys"])
        self.alerts = [
            StreamAlert.from_dict(record) for record in state["alerts"]
        ]
        self.late_arrivals = [
            LateArrival.from_dict(record)
            for record in state["late_arrivals"]
        ]
        self._encoded["alerts"] = [
            encode(alert.to_dict()) for alert in self.alerts
        ]
        self._encoded["late_arrivals"] = [
            encode(arrival.to_dict()) for arrival in self.late_arrivals
        ]
        restored = []
        for record in state["documents"]:
            stored = StoredDocument(
                doc_id=record["doc_id"],
                url=record["url"],
                title=record["title"],
                text=record["text"],
                metadata=dict(record["metadata"]),
            )
            if self.etap.store.add(stored):
                restored.append((stored.doc_id, stored.text, stored.title))
            self._add_streamed(stored.doc_id)
        self.etap.engine.add_documents(restored)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "StreamProcessor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
