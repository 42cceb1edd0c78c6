"""Watermark semantics: lateness routing as executable properties.

The contract (docs/STREAMING.md):

* the watermark is the max event time (``published_day``) over every
  batch seen so far, advancing at batch commit;
* a document is late iff ``published_day < watermark - allowed_lateness``
  *at the start of its batch*; late-but-within-lateness documents are
  processed normally (they always mint whatever an in-order run would
  have minted);
* beyond-lateness documents go to the late-arrival side channel —
  recorded on the processor, in the WAL and in the flight recorder,
  never silently dropped, and never minting alerts;
* ``allowed_lateness=None`` disables the watermark entirely.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus.evolve import WebEvolver
from repro.obs import EventLog, Tracer
from repro.stream import (
    StreamProcessor,
    WriteAheadLog,
    batches_of,
    stream_document_of,
)

from tests.stream.conftest import evolve_config

POOL_SIZE = 12


@pytest.fixture(scope="module")
def doc_pool(fresh_run):
    """A fixed pool of realistic stream documents (days get rewritten)."""
    _, web = fresh_run()
    return [
        stream_document_of(document)
        for document in WebEvolver(web, evolve_config()).advance(
            POOL_SIZE
        )
    ]


def _with_days(pool, days):
    return [
        dataclasses.replace(document, published_day=day)
        for document, day in zip(pool, days)
    ]


def expected_routing(batches, lateness):
    """Reference implementation of the watermark contract."""
    watermark = None
    late: set[str] = set()
    on_time: list[str] = []
    for batch in batches:
        for document in batch.documents:
            if (
                lateness is not None
                and watermark is not None
                and document.published_day < watermark - lateness
            ):
                late.add(document.doc_id)
            else:
                on_time.append(document.doc_id)
        if batch.documents:
            newest = max(d.published_day for d in batch.documents)
            watermark = (
                newest if watermark is None else max(watermark, newest)
            )
    return on_time, late, watermark


routing_cases = st.tuples(
    st.lists(
        st.integers(min_value=0, max_value=20),
        min_size=POOL_SIZE, max_size=POOL_SIZE,
    ),
    st.integers(min_value=1, max_value=POOL_SIZE),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=routing_cases)
def test_routing_matches_the_reference_model(fresh_run, doc_pool, case):
    days, n_batches, lateness = case
    documents = _with_days(doc_pool, days)
    source = batches_of(documents, n_batches)
    on_time, late, watermark = expected_routing(
        source.batches, lateness
    )

    etap, _ = fresh_run()
    processor = StreamProcessor(etap, allowed_lateness=lateness)
    processor.run(source, until_cycle=len(source))

    assert {a.doc_id for a in processor.late_arrivals} == late
    stored = set(processor.etap.store.doc_ids())
    assert {d for d in on_time} <= stored
    assert not late & stored, "late docs must never be ingested"
    assert processor.watermark == watermark
    if lateness is None:
        assert not processor.late_arrivals


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=routing_cases)
def test_on_time_alerts_equal_the_unwatermarked_run(
    fresh_run, doc_pool, case
):
    """Per-document scoring independence, as an alert-level property.

    The watermarked run's alerts must be exactly the watermark-disabled
    run's alerts minus those from documents routed late — documents
    within allowed lateness therefore *always* mint what an in-order
    run would have minted.
    """
    days, n_batches, lateness = case
    documents = _with_days(doc_pool, days)
    source = batches_of(documents, n_batches)
    _, late, _ = expected_routing(source.batches, lateness)

    etap, _ = fresh_run()
    reference = StreamProcessor(etap, allowed_lateness=None)
    reference.run(
        batches_of(documents, n_batches), until_cycle=len(source)
    )

    etap2, _ = fresh_run()
    watermarked = StreamProcessor(etap2, allowed_lateness=lateness)
    watermarked.run(source, until_cycle=len(source))

    expected_ids = {
        a.alert_id for a in reference.alerts if a.doc_id not in late
    }
    assert {a.alert_id for a in watermarked.alerts} == expected_ids
    assert not {
        a.doc_id for a in watermarked.alerts
    } & late, "a late-routed doc minted an alert"


class TestSideChannel:
    def _late_scenario(self, doc_pool):
        """Cycle 1 at day 10, cycle 2 smuggles in a day-1 straggler."""
        on_time = _with_days(doc_pool[:4], [10, 10, 10, 10])
        straggler = dataclasses.replace(
            doc_pool[4], published_day=1
        )
        fresh = dataclasses.replace(doc_pool[5], published_day=11)
        return batches_of([*on_time, straggler, fresh], 2), straggler

    def test_side_channel_is_not_silently_empty(
        self, fresh_run, doc_pool, tmp_path
    ):
        """Regression: injected lateness MUST surface in the side
        channel, the WAL and the flight recorder — a refactor that
        quietly drops late documents fails here."""
        source, straggler = self._late_scenario(doc_pool)
        etap, _ = fresh_run()
        event_log = EventLog()
        etap.tracer = Tracer(recorder=event_log)
        processor = StreamProcessor(
            etap,
            wal=WriteAheadLog(tmp_path / "wal.jsonl"),
            allowed_lateness=2,
        )
        processor.run(source, until_cycle=len(source))

        assert processor.late_arrivals, (
            "lateness was injected but the side channel is empty"
        )
        (arrival,) = processor.late_arrivals
        assert arrival.doc_id == straggler.doc_id
        assert arrival.published_day == 1
        assert arrival.watermark == 10

        wal_types = [
            r.event_type for r in processor.wal.read()
        ]
        assert "late_arrival" in wal_types
        recorded = event_log.events("late_arrival")
        assert [e.payload["doc_id"] for e in recorded] == [
            straggler.doc_id
        ]
        processor.close()

    def test_straggler_never_mints_and_is_not_stored(
        self, fresh_run, doc_pool
    ):
        source, straggler = self._late_scenario(doc_pool)
        etap, _ = fresh_run()
        processor = StreamProcessor(etap, allowed_lateness=2)
        processor.run(source, until_cycle=len(source))
        assert straggler.doc_id not in processor.etap.store.doc_ids()
        assert all(
            a.doc_id != straggler.doc_id for a in processor.alerts
        )

    def test_zero_lateness_still_accepts_the_current_frontier(
        self, fresh_run, doc_pool
    ):
        """L=0 rejects anything strictly older than the watermark but
        keeps same-day documents."""
        docs = _with_days(doc_pool[:4], [5, 5, 5, 4])
        source = batches_of(docs, 2)  # [5, 5] then [5, 4]
        etap, _ = fresh_run()
        processor = StreamProcessor(etap, allowed_lateness=0)
        processor.run(source, until_cycle=len(source))
        assert {a.doc_id for a in processor.late_arrivals} == {
            docs[3].doc_id
        }


def test_lateness_validation(fresh_run):
    etap, _ = fresh_run()
    with pytest.raises(ValueError, match="allowed_lateness"):
        StreamProcessor(etap, allowed_lateness=-1)
