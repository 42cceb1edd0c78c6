"""AlertPortal: the query path, overload degradation, subscriptions."""

from __future__ import annotations

import pytest

from repro.core.drivers import builtin_drivers
from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.export import (
    derive_gauges,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.timeseries import DEFAULT_EXACT_THRESHOLD, Telemetry
from repro.obs.tracer import Tracer
from repro.gather.store import DocumentStore, StoredDocument
from repro.serve import (
    DEADLINE_EXCEEDED,
    MISS,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_STALE,
    AdmissionController,
    AlertPortal,
    LoadGenerator,
    QueryCache,
    cache_key,
)


def build_store(n: int = 20) -> DocumentStore:
    store = DocumentStore()
    for i in range(n):
        store.add(StoredDocument(
            doc_id=f"doc-{i:03d}",
            url=f"http://news-{i % 3}.example/{i}",
            title=f"story {i}",
            text=(f"Acme agreed to acquire Widgets unit {i} in a "
                  f"merger worth millions"),
        ))
    return store


def advance_per_search(portal, seconds):
    """Make every uncached query cost ``seconds`` on the portal's clock.

    Wraps the worker function, so cache hits and rejections cost
    nothing and each search moves the tracer's FakeClock by an exact
    amount; ``seconds`` may be a function of the query string.
    """
    search = portal.workers.worker_fn
    clock = portal.tracer.clock
    cost = seconds if callable(seconds) else (lambda query: seconds)

    def timed(key):
        clock.advance(cost(key.query))
        return search(key)

    portal.workers.worker_fn = timed


@pytest.fixture
def portal():
    tracer = Tracer(clock=FakeClock())
    portal = AlertPortal(
        build_store(),
        n_shards=3,
        tracer=tracer,
        admission=AdmissionController(
            rate=1000.0, burst=1000.0, max_pending=16, tracer=tracer
        ),
        cache=QueryCache(ttl=100.0, tracer=tracer),
    )
    portal.refresh()
    yield portal
    portal.close()


class TestQueryPath:
    def test_fresh_query_hits_the_index(self, portal):
        response = portal.query("analyst-1", '"agreed to acquire"')
        assert response.status == STATUS_OK
        assert response.ok and not response.cached
        assert response.generation == 1
        assert len(response.results) == 10

    def test_repeat_query_is_cached(self, portal):
        first = portal.query("analyst-1", "merger")
        second = portal.query("analyst-2", "merger")
        assert not first.cached and second.cached
        assert second.results == first.results

    def test_zero_term_query_is_empty_not_an_error(self, portal):
        response = portal.query("analyst-1", "!!!")
        assert response.status == STATUS_OK
        assert response.results == ()

    def test_refresh_invalidates_cache(self, portal):
        portal.query("analyst-1", "merger")
        portal.store.add(StoredDocument(
            doc_id="fresh", url="http://new.example/1", title="",
            text="Globex agreed to acquire Initech in a merger",
        ))
        assert portal.refresh() == 2
        response = portal.query("analyst-1", "merger")
        assert not response.cached  # old generation entry dropped
        assert response.generation == 2

    def test_deadline_in_the_past(self, portal):
        response = portal.query(
            "analyst-1", "merger", timeout=-1.0
        )
        assert response.status == "deadline_exceeded"


class TestOverload:
    """Backpressure acceptance: Rejected values, no exceptions."""

    def _overloaded_portal(self, tracer, stale=True):
        portal = AlertPortal(
            build_store(),
            serve_stale_on_overload=stale,
            admission=AdmissionController(
                rate=1000.0, burst=1000.0, max_pending=0, tracer=tracer,
            ),
            cache=QueryCache(ttl=100.0, tracer=tracer),
            tracer=tracer,
        )
        portal.refresh()
        return portal

    def test_queue_full_rejects_without_exceptions(self):
        tracer = Tracer(clock=FakeClock())
        with self._overloaded_portal(tracer) as portal:
            responses = [
                portal.query("c", f"merger {i}") for i in range(25)
            ]
        assert all(r.status == STATUS_REJECTED for r in responses)
        assert all(r.reason == "queue_full" for r in responses)
        assert portal.admission.pending == 0  # no unbounded growth
        assert tracer.registry.counters["serve.rejected"] == 25

    def test_rejected_counter_reaches_prometheus_export(self):
        tracer = Tracer(clock=FakeClock())
        with self._overloaded_portal(tracer) as portal:
            for _ in range(5):
                portal.query("c", "merger")
            text = prometheus_text(
                tracer.registry,
                gauges=derive_gauges(tracer.registry, portal=portal),
            )
        samples = parse_prometheus_text(text)
        assert samples[("repro_serve_rejected", ())] > 0
        assert samples[("repro_serve_rejection_rate", ())] == 1.0
        assert samples[("repro_serve_queue_depth", ())] == 0

    def test_overload_degrades_to_stale_cache(self):
        tracer = Tracer(clock=FakeClock())
        admission = AdmissionController(
            rate=1000.0, burst=1000.0, max_pending=16, tracer=tracer
        )
        portal = AlertPortal(
            build_store(),
            tracer=tracer,
            admission=admission,
            cache=QueryCache(ttl=100.0, tracer=tracer),
        )
        portal.refresh()
        with portal:
            warm = portal.query("c", "merger")
            assert warm.status == STATUS_OK
            admission.max_pending = 0  # slam the door
            degraded = portal.query("c", "merger")
            assert degraded.status == STATUS_STALE
            assert degraded.results == warm.results
            assert degraded.reason == "queue_full"
            # An uncached query under the same overload is rejected.
            cold = portal.query("c", "unseen terms")
            assert cold.status == STATUS_REJECTED

    def test_rejection_events_recorded(self):
        log = EventLog()
        tracer = Tracer(clock=FakeClock(), recorder=log)
        portal = AlertPortal(
            build_store(),
            admission=AdmissionController(
                rate=1000.0, burst=1000.0, max_pending=0, tracer=tracer
            ),
            tracer=tracer,
        )
        portal.refresh()
        with portal:
            portal.query("tenant-9", "merger")
        [event] = log.events("query_rejected")
        assert event.payload == {
            "client_id": "tenant-9", "reason": "queue_full",
        }


class TestSubscriptions:
    def test_filtering_and_exactly_once_delivery(self):
        """End to end: pump() drains AlertService into subscriptions."""
        from repro.core.alerts import AlertService
        from repro.core.etap import Etap, EtapConfig
        from repro.corpus.evolve import WebEvolver
        from repro.corpus.generator import CorpusConfig
        from repro.corpus.web import build_web

        web = build_web(300, CorpusConfig(seed=23))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=50, negative_sample_size=600
            ),
        )
        etap.gather()
        etap.train()
        service = AlertService(etap, threshold=0.2)
        portal = AlertPortal(etap.store, alert_service=service)
        portal.refresh()
        with portal:
            everything = portal.subscribe("generalist")
            ma_only = portal.subscribe(
                "ma-desk", drivers=("mergers_acquisitions",)
            )
            WebEvolver(web, CorpusConfig(seed=24)).advance(40)
            portal.publish(service.poll().alerts)
            all_alerts = portal.poll_alerts(everything)
            ma_alerts = portal.poll_alerts(ma_only)
            assert all_alerts  # the evolved web produced alerts
            assert {a.driver_id for a in ma_alerts} <= {
                "mergers_acquisitions"
            }
            assert len(ma_alerts) <= len(all_alerts)
            # Re-poll: nothing new, nothing duplicated.
            assert portal.poll_alerts(everything) == []
            # Republishing the same alerts is idempotent.
            assert portal.publish(all_alerts) == 0
            assert portal.poll_alerts(everything) == []

    def test_company_filter(self):
        from repro.core.alerts import Alert
        from repro.core.ranking import TriggerEvent
        from repro.core.training import AnnotatedSnippet
        from repro.core.snippets import Snippet
        from repro.text.annotator import AnnotatedText

        def alert(alert_id, companies):
            snippet = Snippet(
                doc_id=alert_id, index=0, sentences=("t.",)
            )
            item = AnnotatedSnippet(
                snippet=snippet,
                annotated=AnnotatedText(
                    text="t.", tokens=(), entities=()
                ),
            )
            return Alert(
                cycle=1, driver_id="mergers_acquisitions",
                alert_id=alert_id,
                event=TriggerEvent(
                    driver_id="mergers_acquisitions", item=item,
                    score=0.9, companies=companies,
                ),
            )

        portal = AlertPortal(build_store(2))
        portal.refresh()
        with portal:
            acme_desk = portal.subscribe(
                "acme-watcher", companies=("Acme",)
            )
            portal.publish([
                alert("a1", ("acme",)),
                alert("a2", ("globex",)),
            ])
            delivered = portal.poll_alerts(acme_desk)
            assert [a.alert_id for a in delivered] == ["a1"]

    def test_unknown_subscription_raises_keyerror(self):
        portal = AlertPortal(build_store(2))
        with portal:
            with pytest.raises(KeyError):
                portal.poll_alerts("sub-9999")


class TestStats:
    def test_stats_snapshot(self, portal):
        portal.query("c", "merger")
        portal.query("c", "merger")
        stats = portal.stats()
        assert stats["generation"] == 1
        assert stats["n_docs"] == 20
        assert sum(stats["shard_docs"]) == 20
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["queue_depth"] == 0

    def test_load_report_accounts_for_every_query(self, portal):
        # Load reports time the run on the portal's clock; a FakeClock
        # moves only when the searches spend time on it.
        advance_per_search(portal, 0.001)
        queries = [q for d in builtin_drivers() for q in d.smart_queries]
        report = LoadGenerator(
            portal, queries, n_clients=3, n_queries=40, seed=7
        ).run().to_dict()
        assert report["statuses"] == {STATUS_OK: 40}
        assert report["qps"] > 0
        assert 0 <= report["p50_ms"] <= report["p99_ms"]
        # The zipf mix must make the cache earn its keep.
        assert 0.3 < report["cache_hit_rate"] <= 1.0
        assert len(report["shard_docs"]) == 3

    def test_load_report_percentiles_match_the_latency_sketch(self):
        """One percentile rule: below the sketch's spill threshold the
        load report's p50/p99 are the sketch's exact nearest ranks over
        the same latencies the portal observed."""
        tracer = Tracer(clock=FakeClock(), windows=Telemetry())
        portal = AlertPortal(build_store(), tracer=tracer)
        portal.refresh()
        advance_per_search(portal, lambda query: len(query) / 1000.0)
        queries = [q for d in builtin_drivers() for q in d.smart_queries]
        with portal:
            report = LoadGenerator(
                portal, queries, n_clients=1, n_queries=60, seed=7
            ).run()
        sketch = tracer.windows.sketch("serve.latency")
        assert sketch.count == 60 < DEFAULT_EXACT_THRESHOLD
        assert report.p99_ms == sketch.quantile(0.99) * 1000.0
        assert report.p50_ms == sketch.quantile(0.5) * 1000.0
        assert report.p99_ms > 0
        assert report.wall_seconds == tracer.clock.now()


class TestOneClock:
    """A portal given only a FakeClock tracer runs entirely on it."""

    def test_ttl_refill_deadline_and_latency_share_the_tracer_clock(self):
        clock = FakeClock()
        portal = AlertPortal(build_store(), tracer=Tracer(clock=clock))
        portal.refresh()
        advance_per_search(portal, 0.3)
        with portal:
            # Latency: the search's 0.3 s on the one clock.
            first = portal.query("c", "merger")
            assert first.status == STATUS_OK and not first.cached
            assert first.latency == pytest.approx(0.3)

            # Cache TTL (30 s) runs from the put at t=0.3.
            clock.advance(29.0)
            assert portal.query("c", "merger").cached
            clock.advance(2.0)
            expired = portal.query("c", "merger")
            assert not expired.cached
            assert portal.cache.stats().expirations == 1

            # Token bucket (burst 20, 50 tokens/s) refills on the clock.
            for _ in range(20):
                assert portal.query("hot", "merger").status == STATUS_OK
            limited = portal.query("hot", "merger")
            assert limited.status == STATUS_STALE
            assert limited.reason == "rate_limited"
            clock.advance(0.1)
            assert portal.query("hot", "merger").status == STATUS_OK

            # Worker deadline: absolute time on the same clock.
            key = cache_key("acquire", 10)
            deadline = clock.now() + 1.0
            assert portal.workers.execute(key, deadline=deadline).ok
            clock.advance(1.0)
            late = portal.workers.execute(key, deadline=deadline)
            assert late.status == DEADLINE_EXCEEDED

    def test_an_empty_injected_cache_is_kept_and_runs_on_the_clock(self):
        clock = FakeClock()
        cache = QueryCache(ttl=5.0)
        assert len(cache) == 0  # falsy, yet it must not be replaced
        portal = AlertPortal(
            build_store(), cache=cache, tracer=Tracer(clock=clock)
        )
        portal.refresh()
        with portal:
            assert portal.cache is cache
            assert cache.tracer is portal.tracer
            portal.query("c", "merger")
            clock.advance(4.0)
            assert portal.query("c", "merger").cached
            clock.advance(2.0)
            assert not portal.query("c", "merger").cached
            assert cache.stats().expirations == 1

    def test_entries_cached_before_injection_expire_on_the_portal_clock(
        self,
    ):
        cache = QueryCache(ttl=1.0)
        cache.put("k", "v", generation=0)
        clock = FakeClock()
        AlertPortal(build_store(), cache=cache, tracer=Tracer(clock=clock))
        clock.advance(2.0)
        assert cache.get("k", 0) is MISS

    def test_an_injected_admission_refills_on_the_portal_clock(self):
        clock = FakeClock()
        admission = AdmissionController(rate=1.0, burst=1.0)
        portal = AlertPortal(
            build_store(),
            admission=admission,
            tracer=Tracer(clock=clock),
            serve_stale_on_overload=False,
        )
        portal.refresh()
        with portal:
            assert portal.admission is admission
            assert admission.tracer is portal.tracer
            assert portal.query("c", "merger").status == STATUS_OK
            limited = portal.query("c", "merger")
            assert limited.status == STATUS_REJECTED
            assert limited.reason == "rate_limited"
            clock.advance(10.0)
            assert portal.query("c", "merger").status == STATUS_OK

    def test_a_bucket_made_before_injection_refills_on_the_portal_clock(
        self,
    ):
        admission = AdmissionController(rate=1.0, burst=1.0)
        assert admission.admit("c")  # the bucket is made, then drained
        admission.release("c")
        clock = FakeClock()
        portal = AlertPortal(
            build_store(),
            admission=admission,
            tracer=Tracer(clock=clock),
            serve_stale_on_overload=False,
        )
        portal.refresh()
        with portal:
            assert admission.bucket_of("c").clock is clock
            limited = portal.query("c", "merger")
            assert limited.status == STATUS_REJECTED
            assert limited.reason == "rate_limited"
            clock.advance(10.0)
            assert portal.query("c", "merger").status == STATUS_OK
