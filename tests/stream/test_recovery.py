"""Crash-recovery fuzz: kill after every WAL record, resume, compare.

The recovery contract (docs/STREAMING.md): a process killed after *any*
durable WAL record, when resumed against a deterministically rebuilt
base pipeline, must converge to exactly the state of an uninterrupted
run — same alerts in the same order, same idempotency keys, same index
generation, same watermark, same document store.  Zero duplicates,
zero holes.

``test_kill_after_every_wal_record`` is exhaustive: the reference run
counts its WAL records, then every position 1..N is killed against and
resumed.  The hypothesis test layers multiple crashes in one lifetime
chain (crash during recovery replay included).  Alerts must also be
fresh: minted within one cycle of their document's arrival.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine
from repro.stream import (
    CheckpointStore,
    EvolvingWebStream,
    SimulatedCrash,
    StreamProcessor,
    WriteAheadLog,
)
from repro.stream.processor import STATE_VERSION

from tests.stream.conftest import evolve_config

CYCLES = 3
DOCS_PER_CYCLE = 6


def _source(web) -> EvolvingWebStream:
    return EvolvingWebStream(
        web, config=evolve_config(), docs_per_cycle=DOCS_PER_CYCLE
    )


def _final_state(processor: StreamProcessor) -> tuple:
    """Everything the recovery contract pins, as one comparable value."""
    return (
        tuple(
            (a.alert_id, a.cycle, a.driver_id, a.doc_id, a.snippet_id,
             round(a.score, 9))
            for a in processor.alerts
        ),
        tuple(sorted(processor.emitted_keys)),
        processor.generation,
        processor.watermark,
        tuple(sorted(processor.etap.store.doc_ids())),
    )


def _run_lifetimes(factory, root, kills: list[int | None]) -> tuple:
    """Run the scenario as a chain of process lifetimes.

    Each entry in ``kills`` is one lifetime's ``kill_after`` (None =
    run to completion).  Every lifetime after the first resumes from
    the WAL + checkpoints the previous one left behind, with a freshly
    rebuilt base pipeline — exactly what a restarted process does.
    Returns the final state; intermediate lifetimes must crash.
    """
    wal_path = root / "wal.jsonl"
    checkpoints = CheckpointStore(root / "checkpoints")
    for i, kill_after in enumerate(kills):
        etap, web = factory()
        source = _source(web)
        wal = WriteAheadLog(wal_path, kill_after=kill_after)
        try:
            # The crash hook can fire anywhere a WAL record is
            # appended — including inside resume() itself (the
            # ``stream_resumed`` record); the chain must tolerate that
            # like any other kill position.
            if i == 0:
                processor = StreamProcessor(
                    etap, wal=wal, checkpoints=checkpoints
                )
            else:
                processor, info = StreamProcessor.resume(
                    etap, wal, checkpoints
                )
                source.seek(info.cycle)
            processor.run(source, until_cycle=CYCLES)
        except SimulatedCrash:
            wal.close()
            assert i < len(kills) - 1, (
                "the final lifetime must complete"
            )
            continue
        # A lifetime may finish before exhausting its kill budget (a
        # resume has less work left than the original run); its state
        # is then final.
        processor.close()
        return _final_state(processor)
    raise AssertionError("unreachable")


@pytest.fixture(scope="module")
def reference(fresh_run, tmp_path_factory):
    """Uninterrupted run: final state + total WAL record count."""
    root = tmp_path_factory.mktemp("stream-reference")
    etap, web = fresh_run()
    wal = WriteAheadLog(root / "wal.jsonl")
    processor = StreamProcessor(
        etap, wal=wal, checkpoints=CheckpointStore(root / "checkpoints")
    )
    processor.run(_source(web), until_cycle=CYCLES)
    state = _final_state(processor)
    n_records = wal.records_written
    processor.close()
    assert state[0], "reference run minted no alerts (vacuous fuzz)"
    assert n_records >= CYCLES * 3  # begin+commit+checkpoint per cycle
    return state, n_records


def test_every_alert_mints_within_one_cycle_of_arrival(fresh_run):
    etap, web = fresh_run()
    source = _source(web)
    processor = StreamProcessor(etap)
    arrival: dict[str, int] = {}
    streamed = 0
    while source.cycle < CYCLES:
        batch = source.next_batch()
        for document in batch.documents:
            arrival.setdefault(document.doc_id, batch.cycle)
        streamed += processor.process_batch(batch).n_ingested
    assert streamed == CYCLES * DOCS_PER_CYCLE
    assert processor.alerts, "no alerts minted (vacuous freshness check)"
    for alert in processor.alerts:
        assert 0 <= alert.cycle - arrival[alert.doc_id] <= 1, alert


def test_kill_after_every_wal_record(fresh_run, reference, tmp_path):
    ref_state, n_records = reference
    failures = []
    for kill in range(1, n_records + 1):
        state = _run_lifetimes(
            fresh_run, tmp_path / f"kill-{kill}", [kill, None]
        )
        if state != ref_state:
            failures.append(kill)
    assert not failures, (
        f"recovery diverged for kill positions {failures} "
        f"of {n_records}"
    )


def test_kill_beyond_final_record_never_crashes(
    fresh_run, reference, tmp_path
):
    ref_state, n_records = reference
    state = _run_lifetimes(fresh_run, tmp_path, [None])
    assert state == ref_state
    # And a kill budget the run never reaches behaves like no kill.
    state = _run_lifetimes(
        fresh_run, tmp_path / "late-kill", [n_records + 100]
    )


def test_resume_after_clean_completion_is_idempotent(
    fresh_run, reference, tmp_path
):
    """Resuming a finished stream re-adds nothing and re-emits nothing."""
    ref_state, _ = reference
    state = _run_lifetimes(fresh_run, tmp_path, [None])
    assert state == ref_state
    etap, web = fresh_run()
    source = _source(web)
    processor, info = StreamProcessor.resume(
        etap,
        WriteAheadLog(tmp_path / "wal.jsonl"),
        CheckpointStore(tmp_path / "checkpoints"),
    )
    assert info.cycle == CYCLES
    source.seek(info.cycle)
    processor.run(source, until_cycle=CYCLES)  # zero batches remain
    assert _final_state(processor) == ref_state
    processor.close()


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_multi_crash_chains_converge(
    data, fresh_run, reference, tmp_path_factory
):
    """Any chain of crashes — including crashes during recovery replay —
    still converges to the uninterrupted state."""
    ref_state, n_records = reference
    n_crashes = data.draw(st.integers(1, 3), label="n_crashes")
    kills = [
        data.draw(st.integers(1, n_records), label=f"kill_{i}")
        for i in range(n_crashes)
    ]
    root = tmp_path_factory.mktemp("multi-crash")
    state = _run_lifetimes(fresh_run, root, [*kills, None])
    assert state == ref_state


def test_recovered_flags_mark_exactly_the_durably_emitted_tail(
    fresh_run, reference, tmp_path
):
    """Alerts re-derived during replay are flagged, never re-delivered.

    Crash mid-stream, note which alert keys the WAL already holds, then
    resume: every alert whose key was durable before the crash must
    carry ``recovered=True`` and every genuinely new alert must not.
    """
    _, n_records = reference
    wal_path = tmp_path / "wal.jsonl"
    checkpoints = CheckpointStore(tmp_path / "checkpoints")
    etap, web = fresh_run()
    processor = StreamProcessor(
        etap,
        wal=WriteAheadLog(wal_path, kill_after=n_records // 2),
        checkpoints=checkpoints,
    )
    with pytest.raises(SimulatedCrash):
        processor.run(_source(web), until_cycle=CYCLES)
    processor.wal.close()
    durable_keys = {
        record.payload["alert_id"]
        for record in WriteAheadLog(wal_path).read()
        if record.event_type == "stream_alert"
    }

    etap2, web2 = fresh_run()
    source = _source(web2)
    resumed, info = StreamProcessor.resume(
        etap2, WriteAheadLog(wal_path), checkpoints
    )
    source.seek(info.cycle)
    resumed.run(source, until_cycle=CYCLES)
    assert info.recovered_alert_keys, (
        "no alert sat in the WAL tail past the last checkpoint; move "
        "the kill so the replay re-derives at least one alert"
    )
    assert {a.alert_id for a in resumed.alerts if a.recovered} == (
        info.recovered_alert_keys
    )
    assert info.recovered_alert_keys <= durable_keys
    for alert in resumed.alerts:
        if alert.alert_id in info.recovered_alert_keys:
            assert alert.recovered
    resumed.close()


def test_construction_and_resume_index_only_streamed_documents(
    fresh_run, monkeypatch, tmp_path
):
    """The base corpus is indexed once, by the caller — never again here.

    Constructing a processor writes nothing to any search engine, and a
    resume writes exactly the checkpoint's streamed documents, so resume
    cost follows the stream's delta, not the corpus size.
    """
    etap, web = fresh_run()
    resumed_etap, _ = fresh_run()
    written: list[str] = []
    add_documents = SearchEngine.add_documents

    def counting(self, documents):
        documents = list(documents)
        written.extend(doc_id for doc_id, _, _ in documents)
        return add_documents(self, documents)

    monkeypatch.setattr(SearchEngine, "add_documents", counting)
    checkpoints = CheckpointStore(tmp_path / "checkpoints")
    processor = StreamProcessor(
        etap,
        wal=WriteAheadLog(tmp_path / "wal.jsonl"),
        checkpoints=checkpoints,
    )
    assert written == []
    processor.run(_source(web), until_cycle=2)
    processor.close()
    _, state = checkpoints.latest()
    streamed = [record["doc_id"] for record in state["documents"]]
    assert streamed, "the stream ingested nothing (vacuous test)"

    written.clear()
    resumed, _ = StreamProcessor.resume(
        resumed_etap, WriteAheadLog(tmp_path / "wal.jsonl"), checkpoints
    )
    resumed.close()
    assert written == streamed
    assert resumed.generation == state["generation"]


class _LateEveryThird:
    """A replayable source whose every third document is published 30
    days before its batch, so it lands in the late-arrival channel."""

    def __init__(self, source: EvolvingWebStream) -> None:
        self.source = source

    @property
    def cycle(self) -> int:
        return self.source.cycle

    def seek(self, cycle: int) -> None:
        self.source.seek(cycle)

    def next_batch(self):
        batch = self.source.next_batch()
        return dataclasses.replace(batch, documents=tuple(
            dataclasses.replace(doc, published_day=doc.published_day - 30)
            if at % 3 == 2 else doc
            for at, doc in enumerate(batch.documents)
        ))


def _fresh_state(processor: StreamProcessor) -> dict:
    """The processor's checkpoint state, every record encoded anew."""
    stats = processor.etap.text_engine.stats()
    store = processor.etap.store
    return {
        "state_version": STATE_VERSION,
        "cycle": processor.cycle,
        "watermark": processor.watermark,
        "allowed_lateness": processor.allowed_lateness,
        "generation": processor.generation,
        "emitted_keys": sorted(processor.emitted_keys),
        "alerts": [alert.to_dict() for alert in processor.alerts],
        "late_arrivals": [
            arrival.to_dict() for arrival in processor.late_arrivals
        ],
        "documents": [
            {
                "doc_id": doc.doc_id,
                "url": doc.url,
                "title": doc.title,
                "text": doc.text,
                "metadata": doc.metadata,
            }
            for doc in map(store.get, processor.streamed_docs)
        ],
        "wal_seq": processor.wal.last_seq,
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": round(stats.hit_rate, 4),
        },
    }


def test_checkpoint_bytes_equal_a_fresh_encode_across_a_resume(
    fresh_run, tmp_path, monkeypatch
):
    """Records are encoded once, when added or restored; each file must
    still hold the bytes of encoding the whole state at that moment."""
    active: list[StreamProcessor] = []
    mismatched: list[int] = []
    save = CheckpointStore.save

    def checked(self, checkpoint_id, state):
        path = save(self, checkpoint_id, state)
        expected = json.dumps(
            {
                "format_version": 1,
                "checkpoint_id": checkpoint_id,
                "state": _fresh_state(active[-1]),
            },
            sort_keys=True,
        )
        if path.read_bytes() != expected.encode("utf-8"):
            mismatched.append(checkpoint_id)
        return path

    monkeypatch.setattr(CheckpointStore, "save", checked)
    checkpoints = CheckpointStore(tmp_path / "checkpoints")
    etap, web = fresh_run()
    first = StreamProcessor(
        etap,
        wal=WriteAheadLog(tmp_path / "wal.jsonl"),
        checkpoints=checkpoints,
    )
    active.append(first)
    first.run(_LateEveryThird(_source(web)), until_cycle=2)
    first.close()

    etap, web = fresh_run()
    resumed, info = StreamProcessor.resume(
        etap, WriteAheadLog(tmp_path / "wal.jsonl"), checkpoints
    )
    active.append(resumed)
    assert info.cycle == 2
    source = _LateEveryThird(_source(web))
    source.seek(info.cycle)
    resumed.run(source, until_cycle=CYCLES + 1)
    resumed.close()

    assert first.alerts and resumed.late_arrivals, "vacuous: no records"
    assert len(resumed.alerts) > len(first.alerts)
    assert len(resumed.late_arrivals) > len(first.late_arrivals)
    assert not mismatched, f"checkpoints {mismatched} differ"
    assert resumed.state_dict() == _fresh_state(resumed)
    assert checkpoints.checkpoint_ids() == [CYCLES, CYCLES + 1]
