"""Alert-loop tests: evolving web -> incremental gather -> alerts."""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertService
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import LATEST_HUB_URL, WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web


@pytest.fixture(scope="module")
def watched():
    web = build_web(400, CorpusConfig(seed=23))
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=60, negative_sample_size=800),
    )
    etap.gather()
    etap.train()
    evolver = WebEvolver(web, CorpusConfig(seed=555))
    return etap, evolver


class TestWebEvolver:
    def test_advance_publishes_pages(self, watched):
        etap, evolver = watched
        before = len(evolver.web)
        documents = evolver.advance(10)
        assert len(documents) == 10
        assert len(evolver.web) >= before + 10

    def test_latest_hub_links_new_docs(self, watched):
        etap, evolver = watched
        documents = evolver.advance(5)
        hub = evolver.web.fetch(LATEST_HUB_URL)
        for document in documents:
            assert document.url in hub.links

    def test_front_page_links_latest_hub(self, watched):
        etap, evolver = watched
        evolver.advance(3)
        from repro.corpus.web import FRONT_PAGE_URL

        assert LATEST_HUB_URL in evolver.web.fetch(FRONT_PAGE_URL).links

    def test_new_doc_ids_do_not_collide(self, watched):
        etap, evolver = watched
        documents = evolver.advance(5)
        existing = set(etap.store.doc_ids())
        for document in documents:
            assert document.doc_id not in existing

    def test_invalid_count(self, watched):
        _, evolver = watched
        with pytest.raises(ValueError):
            evolver.advance(0)


class TestAlertService:
    def test_requires_trained_etap(self):
        web = build_web(50)
        etap = Etap.from_web(web)
        etap.gather()
        with pytest.raises(ValueError):
            AlertService(etap)

    def test_first_poll_without_changes_is_quiet(self):
        # Fresh pipeline (the shared fixture's web already evolved).
        web = build_web(400, CorpusConfig(seed=77))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=40, negative_sample_size=500
            ),
        )
        etap.gather()
        etap.train()
        service = AlertService(etap)
        report = service.poll()
        assert report.new_documents == 0
        assert report.alerts == []

    def test_alerts_fire_for_new_trigger_docs(self, watched):
        etap, evolver = watched
        service = AlertService(etap)
        total_alerts = []
        trigger_docs = 0
        for _ in range(4):
            documents = evolver.advance(25)
            trigger_docs += sum(
                d.doc_type in ("ma_news", "cim_news", "rg_news")
                for d in documents
            )
            report = service.poll()
            # >=: earlier evolver tests may have left unharvested pages.
            assert report.new_documents >= 25
            total_alerts.extend(report.alerts)
        assert trigger_docs > 0
        assert total_alerts  # at least some of those raised alerts

    def test_alerts_not_repeated_across_cycles(self, watched):
        etap, evolver = watched
        service = AlertService(etap)
        evolver.advance(20)
        first = service.poll()
        second = service.poll()  # nothing new published since
        assert second.new_documents == 0
        assert second.alerts == []
        # One snippet may alert under several drivers, but never twice
        # under the same driver.
        first_ids = {
            (a.driver_id, a.event.snippet_id) for a in first.alerts
        }
        assert len(first_ids) == len(first.alerts)

    def test_alert_metadata(self, watched):
        etap, evolver = watched
        service = AlertService(etap, threshold=0.5)
        evolver.advance(30)
        report = service.poll()
        for alert in report.alerts:
            assert alert.cycle == report.cycle
            assert alert.score >= 0.5
            assert alert.driver_id in etap.classifiers
            assert alert.text


class TestIdempotency:
    """Satellite pin: alert identity is stable across polls."""

    def test_alert_ids_are_lineage_derived(self, watched):
        from repro.core.alerts import idempotency_key

        etap, evolver = watched
        service = AlertService(etap, threshold=0.7)
        evolver.advance(25)
        report = service.poll()
        assert report.alerts, "need alerts to check ids on"
        for alert in report.alerts:
            assert alert.alert_id == idempotency_key(
                alert.driver_id,
                alert.event.snippet_id,
                alert.event.companies,
            )
            assert len(alert.alert_id) == 16

    def test_reprocessed_documents_do_not_realert(self, watched):
        etap, evolver = watched
        service = AlertService(etap, threshold=0.7)
        evolver.advance(25)
        first = service.poll()
        assert first.alerts
        # Force the service to rescore the same documents, simulating
        # a poll that re-surfaces already-alerted stories: the first
        # poll's documents, the alerted ones among them, count as new.
        rescored = {a.event.doc_id for a in first.alerts}
        service._scored_upto -= first.new_documents
        second = service.poll()
        assert second.new_documents >= len(rescored)
        first_keys = {a.alert_id for a in first.alerts}
        assert all(
            a.alert_id not in first_keys for a in second.alerts
        )

    def test_key_depends_on_all_identity_parts(self):
        from repro.core.alerts import idempotency_key

        base = idempotency_key("ma", "doc-1#0", ("acme",))
        assert base == idempotency_key("ma", "doc-1#0", ("acme",))
        assert base != idempotency_key("cim", "doc-1#0", ("acme",))
        assert base != idempotency_key("ma", "doc-1#1", ("acme",))
        assert base != idempotency_key("ma", "doc-1#0", ("globex",))
        # Company order does not matter (sorted into the key).
        assert idempotency_key(
            "ma", "doc-1#0", ("b", "a")
        ) == idempotency_key("ma", "doc-1#0", ("a", "b"))
