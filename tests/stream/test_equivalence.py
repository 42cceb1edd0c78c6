"""Streaming == batch: the micro-batch split never changes the alerts.

Two layers:

* the **golden pin** — the committed snapshot's ``stream`` section is
  recomputed live (``tests/golden/regen.py:stream_snapshot``) and must
  match byte-for-byte, and must equal the batch path's ``alert_ids``;
* the **live cross-check** at the stream suite's own scale — the same
  evolved documents through :class:`AlertService` (one big poll) and
  through :class:`StreamProcessor` under several splits, compared
  directly.

Equivalence requires the watermark disabled (``allowed_lateness=None``):
the synthetic corpus publishes days in random order, and lateness
routing is pinned by its own property suite, not here.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.alerts import AlertService
from repro.corpus.evolve import WebEvolver
from repro.stream import StreamProcessor, batches_of, stream_document_of

from tests.golden.regen import GOLDEN_PATH, stream_snapshot
from tests.stream.conftest import (
    STREAM_CONFIG,
    build_stream_web,
    evolve_config,
)

N_NEW_DOCS = 18


@pytest.fixture(scope="module")
def evolved():
    """(batch alert ids, per-driver counts, the evolved documents).

    The batch path polls :class:`AlertService`, which re-crawls — so
    this base is built with a live gatherer (``Etap.from_web``), not
    the store-clone factory the stream runs use.
    """
    from repro.core.etap import Etap

    web = build_stream_web()
    etap = Etap.from_web(web, config=STREAM_CONFIG)
    etap.gather()
    etap.train()
    documents = [
        stream_document_of(document)
        for document in WebEvolver(web, evolve_config()).advance(
            N_NEW_DOCS
        )
    ]
    report = AlertService(etap).poll()
    assert report.alerts, "batch path minted no alerts (vacuous test)"
    return (
        sorted(alert.alert_id for alert in report.alerts),
        dict(sorted(
            Counter(a.driver_id for a in report.alerts).items()
        )),
        documents,
    )


@pytest.mark.parametrize("n_batches", [1, 2, 5, N_NEW_DOCS])
def test_stream_matches_batch_for_any_split(
    fresh_run, evolved, n_batches
):
    batch_ids, batch_counts, documents = evolved
    etap, _ = fresh_run()
    processor = StreamProcessor(etap, allowed_lateness=None)
    source = batches_of(documents, n_batches)
    processor.run(source, until_cycle=len(source))
    assert sorted(a.alert_id for a in processor.alerts) == batch_ids
    assert dict(sorted(
        Counter(a.driver_id for a in processor.alerts).items()
    )) == batch_counts
    # One generation per micro-batch on top of the base corpus (gen 1).
    assert processor.generation == len(source) + 1


def test_alert_identity_carries_across_splits(fresh_run, evolved):
    """Same alert => same id, snippet, companies — not just same count."""
    _, _, documents = evolved
    by_split = {}
    for n_batches in (1, 3):
        etap, _ = fresh_run()
        processor = StreamProcessor(etap, allowed_lateness=None)
        source = batches_of(documents, n_batches)
        processor.run(source, until_cycle=len(source))
        by_split[n_batches] = {
            a.alert_id: (a.snippet_id, a.companies, round(a.score, 9))
            for a in processor.alerts
        }
    assert by_split[1] == by_split[3]


class TestGoldenPin:
    def test_stream_section_equals_batch_alerts(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert "stream" in golden, (
            "golden file predates the streaming section — regenerate: "
            "PYTHONPATH=src python tests/golden/regen.py"
        )
        assert golden["stream"]["alert_ids"] == golden["alert_ids"]
        assert sum(
            golden["stream"]["per_driver_counts"].values()
        ) == len(golden["alert_ids"])

    def test_live_stream_snapshot_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        current = stream_snapshot()
        assert current == golden["stream"], (
            "streamed golden output drifted from the snapshot. If "
            "intentional, regenerate with `PYTHONPATH=src python "
            "tests/golden/regen.py` and commit the diff."
        )
