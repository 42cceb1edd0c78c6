"""Unit tests for the resilient fetcher: retries, breaker, dead letters."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog, validate_record
from repro.obs.tracer import Tracer
from repro.robustness.faults import (
    FaultProfile,
    FaultyWeb,
    get_profile,
)
from repro.robustness.fetcher import (
    CircuitBreaker,
    ResilientFetcher,
    RetryPolicy,
)


def tiny_web():
    return build_web(60, CorpusConfig(seed=5))


def article_url(inner) -> str:
    return inner.documents[0].url


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff=0.5, base_backoff=1.0)

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            base_backoff=1.0, backoff_factor=2.0, max_backoff=8.0
        )
        assert [policy.backoff(k) for k in range(1, 6)] == [
            1.0, 2.0, 4.0, 8.0, 8.0
        ]


class TestFetchPaths:
    def test_clean_fetch_is_ok_first_attempt(self):
        inner = tiny_web()
        fetcher = ResilientFetcher(
            FaultyWeb(inner, get_profile("none"), seed=0)
        )
        outcome = fetcher.fetch(article_url(inner))
        assert outcome.ok and outcome.status == "ok"
        assert outcome.attempts == 1 and outcome.retries == 0
        assert fetcher.dead_letters == []

    def test_transient_failure_is_retried_to_success(self):
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(transient_rate=1.0, max_transient_failures=2),
            seed=0,
        )
        fetcher = ResilientFetcher(web, tracer=Tracer(recorder=EventLog()))
        url = article_url(inner)
        outcome = fetcher.fetch(url)
        assert outcome.ok
        assert outcome.retries == web.plan_of(url).transient_failures
        assert outcome.attempts == outcome.retries + 1
        retries = fetcher.tracer.recorder.events("fetch_retry")
        assert len(retries) == outcome.retries
        assert all(not validate_record(e.to_dict()) for e in retries)

    def test_dead_link_dead_letters_without_retry(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(dead_rate=1.0), seed=0)
        fetcher = ResilientFetcher(web, tracer=Tracer(recorder=EventLog()))
        url = article_url(inner)
        outcome = fetcher.fetch(url)
        assert not outcome.ok and outcome.status == "dead"
        assert outcome.attempts == 1
        assert [letter.url for letter in fetcher.dead_letters] == [url]
        assert fetcher.dead_letters[0].reason == "dead_link"
        (letter_event,) = fetcher.tracer.recorder.events("fetch_dead_letter")
        assert letter_event.payload["reason"] == "dead_link"
        assert not validate_record(letter_event.to_dict())

    def test_exhaustion_dead_letters_with_reason(self):
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(transient_rate=1.0, max_transient_failures=9),
            seed=0,
        )
        fetcher = ResilientFetcher(
            web,
            policy=RetryPolicy(max_attempts=3),
            failure_threshold=50,
        )
        outcome = fetcher.fetch(article_url(inner))
        assert not outcome.ok and outcome.status == "exhausted"
        assert outcome.attempts == 3
        assert fetcher.dead_letters[0].reason == "exhausted:transient"

    def test_missing_url_dead_letters_as_missing(self):
        inner = tiny_web()
        fetcher = ResilientFetcher(
            FaultyWeb(inner, get_profile("none"), seed=0)
        )
        outcome = fetcher.fetch("http://nowhere.example.com/x.html")
        assert not outcome.ok
        assert fetcher.dead_letters[0].reason == "missing"

    def test_degraded_page_is_flagged(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(truncate_rate=1.0), seed=0)
        fetcher = ResilientFetcher(web)
        outcome = fetcher.fetch(article_url(inner))
        assert outcome.ok and outcome.status == "degraded"

    def test_works_on_a_plain_web_without_fault_protocol(self):
        inner = tiny_web()
        fetcher = ResilientFetcher(inner)
        outcome = fetcher.fetch(article_url(inner))
        assert outcome.ok and outcome.status == "ok"
        # A plain web never fails a fetch, so no backoff ever waits.
        assert fetcher.clock.now() == 0.0

    def test_counters_reach_the_metrics_registry(self):
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(transient_rate=1.0, max_transient_failures=1),
            seed=0,
        )
        tracer = Tracer()
        fetcher = ResilientFetcher(web, tracer=tracer)
        fetcher.fetch(article_url(inner))
        counters = tracer.registry.counters
        assert counters["fetch.attempts"] == 2
        assert counters["fetch.retries"] == 1


class TestBackoff:
    def test_waits_are_monotone_non_decreasing(self):
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(transient_rate=1.0, max_transient_failures=6),
            seed=3,
        )
        log = EventLog()
        fetcher = ResilientFetcher(
            web,
            policy=RetryPolicy(max_attempts=7, jitter=0.9),
            failure_threshold=100,
            tracer=Tracer(recorder=log),
        )
        fetcher.fetch(article_url(inner))
        waits = [
            e.payload["wait_ticks"] for e in log.events("fetch_retry")
        ]
        assert len(waits) >= 2
        assert waits == sorted(waits)

    def test_backoff_advances_the_simulated_clock_only(self):
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(transient_rate=1.0, max_transient_failures=2),
            seed=0,
        )
        fetcher = ResilientFetcher(web)
        before = web.clock.now()
        outcome = fetcher.fetch(article_url(inner))
        # attempts ticks + backoff waits, all on the shared web clock.
        assert web.clock.now() == pytest.approx(
            before + outcome.attempts + outcome.wait_ticks
        )


class TestCircuitBreaker:
    def make_down_host(self):
        """A web whose article hosts are down for a long window."""
        inner = tiny_web()
        web = FaultyWeb(
            inner,
            FaultProfile(flaky_host_rate=1.0, flap_period=10_000.0),
            seed=0,
        )
        web.clock.advance(10_000.0)  # every flaky host now down
        return inner, web

    def test_breaker_opens_after_threshold_and_blocks(self):
        inner, web = self.make_down_host()
        log = EventLog()
        fetcher = ResilientFetcher(
            web,
            policy=RetryPolicy(
                max_attempts=3, base_backoff=1.0, max_backoff=2.0
            ),
            failure_threshold=4,
            breaker_cool_off=1_000_000.0,
            tracer=Tracer(recorder=log),
        )
        urls = [d.url for d in inner.documents[:4]]
        host = urls[0].split("/")[2]
        same_host = [u for u in inner.urls if f"//{host}/" in u][:3]
        outcomes = [fetcher.fetch(u) for u in same_host]
        assert fetcher.breaker_states()[host] == "open"
        assert any(o.status == "breaker_open" for o in outcomes)
        opens = log.events("breaker_open")
        assert len(opens) == 1 and opens[0].payload["host"] == host
        assert not validate_record(opens[0].to_dict())
        # While open, requests are rejected without touching the web.
        attempts_before = web.fetch_attempts
        blocked = fetcher.fetch(same_host[0])
        assert blocked.status == "breaker_open"
        assert web.fetch_attempts == attempts_before

    def test_breaker_half_opens_after_cool_off_and_closes(self):
        inner, web = self.make_down_host()
        log = EventLog()
        fetcher = ResilientFetcher(
            web,
            policy=RetryPolicy(max_attempts=2, base_backoff=1.0,
                               max_backoff=1.0, jitter=0.0),
            failure_threshold=2,
            breaker_cool_off=50.0,
            tracer=Tracer(recorder=log),
        )
        url = article_url(inner)
        host = url.split("/")[2]
        fetcher.fetch(url)  # 2 failures -> breaker opens
        assert fetcher.breaker_states()[host] == "open"
        # Cool-off passes AND the flap window flips back up.
        web.clock.advance(10_000.0)
        outcome = fetcher.fetch(url)
        assert outcome.ok
        assert fetcher.breaker_states()[host] == "closed"
        closes = log.events("breaker_close")
        assert len(closes) == 1 and closes[0].payload["host"] == host
        assert not validate_record(closes[0].to_dict())

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cool_off=10.0)
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert not breaker.allow(5.0)
        assert breaker.allow(10.0)  # half-open trial
        assert breaker.state == "half_open"
        breaker.record_failure(10.0)
        assert breaker.state == "open"
        assert not breaker.allow(15.0)
        assert breaker.allow(20.0)
        breaker.record_success()
        assert breaker.state == "closed"


class TestDeterminismAcceptance:
    """Same seed + profile => identical behaviour across two runs."""

    @staticmethod
    def run_once():
        inner = build_web(120, CorpusConfig(seed=7))
        web = FaultyWeb(inner, get_profile("hostile"), seed=11)
        log = EventLog()
        fetcher = ResilientFetcher(web, seed=11, tracer=Tracer(recorder=log))
        for url in inner.urls:
            fetcher.fetch(url)
        schedule = [
            (e.event_type, tuple(sorted(e.payload.items())))
            for e in log.events()
        ]
        breakers = fetcher.breaker_states()
        dead = [(d.url, d.reason, d.attempts)
                for d in fetcher.dead_letters]
        return schedule, breakers, dead

    def test_retry_schedule_breakers_and_dead_letters_identical(self):
        first = self.run_once()
        second = self.run_once()
        assert first[0] == second[0]  # retry/breaker event schedule
        assert first[1] == second[1]  # breaker end states
        assert first[2] == second[2]  # dead-letter queue
        assert len(first[0]) > 0      # and the run was actually noisy
