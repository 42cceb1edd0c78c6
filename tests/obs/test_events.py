"""Flight-recorder event tests: schema, ring buffer, sink, null path."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import FakeClock
from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    Event,
    EventLog,
    new_run_id,
    read_events,
    validate_jsonl,
    validate_record,
)
from repro.obs.tracer import NULL_TRACER, Tracer

#: A valid example payload per event type, used to exercise every
#: schema.  Keys must cover EVENT_TYPES[...]; extras are allowed.
EXAMPLE_PAYLOADS: dict[str, dict] = {
    "run_started": {"command": "demo"},
    "page_crawled": {"url": "http://x/a.html", "depth": 2, "via": "http://x/"},
    "doc_indexed": {"doc_id": "doc-1", "url": "http://x/a.html"},
    "doc_deduped": {"doc_id": "doc-1", "reason": "exact"},
    "search_executed": {"query": "merger acquisition", "n_results": 17},
    "model_trained": {
        "driver_id": "mergers",
        "n_noisy_positive": 120,
        "n_noisy_kept": 90,
        "n_negative": 500,
        "n_features": 812,
        "n_iterations": 2,
    },
    "snippet_scored": {
        "snippet_id": "doc-1#3",
        "doc_id": "doc-1",
        "driver_id": "mergers",
        "score": 0.97,
    },
    "trigger_classified": {
        "snippet_id": "doc-1#3",
        "doc_id": "doc-1",
        "driver_id": "mergers",
        "score": 0.97,
        "rank": 1,
        "features": [["merger", 2.1], ["acquire", 1.3]],
    },
    "alert_emitted": {
        "alert_id": "ab12cd34ef56ab78",
        "cycle": 1,
        "driver_id": "mergers",
        "snippet_id": "doc-1#3",
        "doc_id": "doc-1",
        "score": 0.97,
    },
    "company_ranked": {"company": "Acme Corp", "mrr": 0.42, "position": 1},
    "drift_warning": {
        "monitor": "class_balance",
        "value": 0.4,
        "threshold": 0.25,
    },
    "fetch_retry": {
        "url": "http://x/a.html",
        "attempt": 2,
        "wait_ticks": 2.4,
        "reason": "transient",
    },
    "breaker_open": {"host": "x.example.com", "failures": 5},
    "breaker_close": {"host": "x.example.com"},
    "fetch_dead_letter": {
        "url": "http://x/a.html",
        "reason": "exhausted:transient",
        "attempts": 4,
    },
    "query_served": {
        "client_id": "analyst-7",
        "query": '"agreed to acquire"',
        "status": "ok",
    },
    "query_rejected": {"client_id": "analyst-7", "reason": "queue_full"},
    "snapshot_swapped": {"generation": 2, "n_docs": 640, "n_shards": 4},
    "subscription_polled": {"subscription_id": "sub-0001", "n_alerts": 3},
    "stream_batch_begin": {"cycle": 3, "n_docs": 20},
    "stream_alert": {
        "alert_id": "ab12cd34ef56ab78",
        "cycle": 3,
        "driver_id": "mergers",
        "snippet_id": "doc-1000001#2",
        "doc_id": "doc-1000001",
        "score": 0.96,
    },
    "stream_batch_commit": {
        "cycle": 3,
        "watermark": 93,
        "generation": 4,
        "n_alerts": 2,
    },
    "checkpoint_written": {
        "checkpoint_id": 3,
        "cycle": 3,
        "watermark": 93,
        "wal_seq": 41,
    },
    "stream_resumed": {
        "checkpoint_id": 3,
        "cycle": 3,
        "wal_records_replayed": 7,
    },
    "late_arrival": {
        "doc_id": "doc-1000042",
        "published_day": 88,
        "watermark": 93,
    },
    "shard_merged": {"shard": 1, "docs": 52, "tokens": 5804, "terms": 1311},
    "replica_down": {"shard": 0, "replica": "shard0/r1"},
    "replica_restored": {"shard": 0, "replica": "shard0/r1", "lag": 2},
    "query_hedged": {
        "query": "merger acquisition",
        "shard": 1,
        "primary": "shard1/r0",
        "hedge": "shard1/r2",
    },
    "degraded_read": {"source": "query_cache"},
    "query_candidate_evaluated": {
        "driver_id": "funding_rounds",
        "query": '"series a funding"',
        "source": "template",
        "coverage": 12,
        "precision": 0.75,
        "cost": 16,
    },
    "portfolio_selected": {
        "driver_id": "funding_rounds",
        "budget": 160,
        "n_candidates": 120,
        "n_selected": 6,
        "total_cost": 41,
        "precision_at_budget": 0.7073,
    },
    "slo_breach": {
        "slo": "fetch-availability",
        "objective": "availability",
        "window": "fast+slow",
        "burn_rate": 4.94,
        "budget_remaining": 0.0,
    },
    "health_transition": {
        "status": "critical",
        "previous": "ok",
        "reasons": ["fetch: slo fetch-availability page"],
    },
}


def test_every_event_type_has_an_example():
    assert set(EXAMPLE_PAYLOADS) == set(EVENT_TYPES)


class TestRoundTrip:
    @pytest.mark.parametrize("event_type", sorted(EVENT_TYPES))
    def test_emit_to_json_from_json(self, event_type):
        log = EventLog(run_id="testrun")
        Tracer(clock=FakeClock(1.5), recorder=log)
        emitted = log.emit(
            event_type,
            lineage_id="doc-1",
            **EXAMPLE_PAYLOADS[event_type],
        )
        restored = Event.from_json(emitted.to_json())
        # JSON round-trips tuples as lists; normalize via json for the
        # comparison so the payloads compare structurally.
        assert restored.event_type == emitted.event_type
        assert restored.run_id == emitted.run_id
        assert restored.seq == emitted.seq
        assert restored.ts == emitted.ts
        assert restored.lineage_id == emitted.lineage_id
        assert restored.schema_version == SCHEMA_VERSION
        assert json.loads(json.dumps(restored.payload)) == json.loads(
            json.dumps(emitted.payload)
        )

    @pytest.mark.parametrize("event_type", sorted(EVENT_TYPES))
    def test_emitted_record_validates(self, event_type):
        log = EventLog(run_id="testrun")
        event = log.emit(event_type, **EXAMPLE_PAYLOADS[event_type])
        assert validate_record(event.to_dict()) == []


class TestEmitValidation:
    def test_unknown_type_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event_type"):
            log.emit("page_teleported", url="http://x/")

    def test_missing_payload_field_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="missing payload"):
            log.emit("page_crawled", url="http://x/")  # no depth

    def test_extra_payload_fields_allowed(self):
        log = EventLog()
        event = log.emit(
            "doc_indexed", doc_id="d", url="u", title="extra is fine"
        )
        assert event.payload["title"] == "extra is fine"

    def test_seq_and_clock(self):
        clock = FakeClock()
        log = EventLog(run_id="r")
        Tracer(clock=clock, recorder=log)
        first = log.emit("run_started", command="demo")
        clock.advance(2.0)
        second = log.emit("run_started", command="demo")
        assert (first.seq, second.seq) == (0, 1)
        assert second.ts - first.ts == 2.0


class TestRingBuffer:
    def test_ring_drops_oldest_but_counts_survive(self):
        log = EventLog(capacity=3)
        for depth in range(10):
            log.emit("page_crawled", url=f"http://x/{depth}", depth=depth)
        assert len(log) == 3
        assert log.total_emitted == 10
        assert log.counts() == {"page_crawled": 10}
        assert [e.payload["depth"] for e in log.events()] == [7, 8, 9]

    def test_events_filter_by_type(self):
        log = EventLog()
        log.emit("run_started", command="demo")
        log.emit("doc_indexed", doc_id="d", url="u")
        assert len(log.events("doc_indexed")) == 1
        assert len(log.events()) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestFileSink:
    def test_sink_receives_all_events_despite_ring_wrap(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(capacity=2, sink=path, run_id="r") as log:
            for depth in range(5):
                log.emit(
                    "page_crawled", url=f"http://x/{depth}", depth=depth
                )
        events = read_events(path)
        assert [e.payload["depth"] for e in events] == [0, 1, 2, 3, 4]
        assert all(e.run_id == "r" for e in events)

    def test_stringio_sink(self):
        buffer = io.StringIO()
        log = EventLog(sink=buffer)
        log.emit("run_started", command="demo")
        log.close()
        record = json.loads(buffer.getvalue())
        assert record["event_type"] == "run_started"
        assert validate_record(record) == []

    def test_written_log_passes_validate_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(sink=path) as log:
            for event_type, payload in EXAMPLE_PAYLOADS.items():
                log.emit(event_type, **payload)
        lines = path.read_text().splitlines()
        assert len(lines) == len(EVENT_TYPES)
        assert validate_jsonl(lines) == []

    def test_concurrent_emitters_write_whole_lines(self, tmp_path):
        # Serving threads share one tracer, hence one recorder: every
        # line must survive intact and every seq must be issued once.
        import sys
        import threading

        path = tmp_path / "events.jsonl"
        log = EventLog(sink=path)
        n_threads, per_thread = 8, 1500

        def emit(client):
            for i in range(per_thread):
                log.emit(
                    "query_served", client_id=f"c{client}",
                    query="q" * (i % 40), status="ok",
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=emit, args=(client,))
                for client in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        log.close()
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert validate_jsonl(lines) == []
        seqs = sorted(json.loads(line)["seq"] for line in lines)
        assert seqs == list(range(n_threads * per_thread))
        assert log.total_emitted == n_threads * per_thread


class TestValidation:
    def _record(self, **overrides):
        record = EventLog(run_id="r").emit(
            "doc_indexed", doc_id="d", url="u"
        ).to_dict()
        record.update(overrides)
        return record

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) == ["record is not a JSON object"]

    def test_missing_envelope_field(self):
        record = self._record()
        del record["run_id"]
        (error,) = validate_record(record)
        assert "run_id" in error

    def test_wrong_schema_version(self):
        record = self._record(schema_version=99)
        assert any(
            "schema_version" in e for e in validate_record(record)
        )

    def test_unknown_event_type(self):
        record = self._record(event_type="nope")
        assert any("unknown" in e for e in validate_record(record))

    def test_missing_payload_field(self):
        record = self._record(payload={"doc_id": "d"})
        assert any("url" in e for e in validate_record(record))

    def test_validate_jsonl_reports_line_numbers(self):
        good = self._record()
        lines = [
            json.dumps(good),
            "not json at all {",
            json.dumps({**good, "event_type": "nope"}),
            "",  # blanks are skipped
        ]
        problems = validate_jsonl(lines)
        assert [lineno for lineno, _ in problems] == [2, 3]

    def test_from_dict_raises_on_invalid(self):
        with pytest.raises(ValueError):
            Event.from_dict({"event_type": "doc_indexed"})


class TestNullEventLog:
    """The recorder-off path: a tracer without a recorder drops events."""

    def test_disabled_and_empty(self):
        assert NULL_TRACER.recording is False
        assert NULL_TRACER.recorder is None
        tracer = Tracer()
        assert tracer.recording is False
        assert tracer.recorder is None

    def test_emit_adds_zero_entries(self):
        tracer = Tracer()
        for event_type, payload in EXAMPLE_PAYLOADS.items():
            assert NULL_TRACER.emit(event_type, **payload) is None
            assert tracer.emit(event_type, **payload) is None
        assert tracer.recorder is None

    def test_emit_skips_validation_entirely(self):
        # The null path must stay a bare no-op: no schema checks.
        assert NULL_TRACER.emit("not_a_type", junk=1) is None
        assert Tracer().emit("not_a_type", junk=1) is None


def test_tracer_forwards_events_to_its_recorder():
    clock = FakeClock(5.0)
    log = EventLog(run_id="r")
    tracer = Tracer(clock=clock, recorder=log)
    assert tracer.recording and log.clock is clock
    tracer.emit("doc_indexed", lineage_id="d1", doc_id="d1", url="u")
    [event] = log.events()
    assert (event.event_type, event.lineage_id, event.ts) == (
        "doc_indexed", "d1", 5.0,
    )
    with pytest.raises(ValueError):
        tracer.emit("doc_indexed", doc_id="d1")  # schema still enforced


def test_new_run_ids_are_distinct():
    ids = {new_run_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(i) == 12 for i in ids)
