"""Property-based invariants for the resilient fetch path.

Seeded-random hypothesis loops in the style of
``tests/ml/test_properties.py``: whatever profile and policy the fuzzer
draws, the fetcher's bounds hold — attempts never exceed the policy,
backoff never speeds up, and an open breaker never lets a request
through before its cool-off.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.robustness.faults import FaultProfile, FaultyWeb
from repro.robustness.fetcher import (
    CircuitBreaker,
    ResilientFetcher,
    RetryPolicy,
)

_WEB = build_web(80, CorpusConfig(seed=3))
_URLS = [doc.url for doc in _WEB.documents]


@st.composite
def profiles(draw):
    rate = st.floats(0.0, 1.0, allow_nan=False, width=32)
    return FaultProfile(
        transient_rate=draw(rate),
        dead_rate=draw(rate),
        slow_rate=draw(rate),
        truncate_rate=draw(rate),
        garble_rate=draw(rate),
        flaky_host_rate=draw(rate),
        max_transient_failures=draw(st.integers(1, 6)),
        max_slow_timeouts=draw(st.integers(1, 3)),
        flap_period=draw(st.floats(1.0, 50.0, allow_nan=False)),
    )


@st.composite
def policies(draw):
    base = draw(st.floats(0.5, 4.0, allow_nan=False))
    return RetryPolicy(
        max_attempts=draw(st.integers(1, 8)),
        base_backoff=base,
        backoff_factor=draw(st.floats(1.0, 3.0, allow_nan=False)),
        max_backoff=base * draw(st.floats(1.0, 16.0, allow_nan=False)),
        jitter=draw(st.floats(0.0, 1.0, allow_nan=False)),
    )


@settings(max_examples=30, deadline=None)
@given(profiles(), policies(), st.integers(0, 2**16), st.integers(0, 9))
def test_attempts_bounded_and_outcomes_consistent(
    profile, policy, seed, url_pick
):
    web = FaultyWeb(_WEB, profile, seed=seed)
    fetcher = ResilientFetcher(web, policy=policy, seed=seed)
    for url in _URLS[url_pick : url_pick + 8]:
        outcome = fetcher.fetch(url)
        assert 0 <= outcome.attempts <= policy.max_attempts
        # A page and a failure status are mutually exclusive.
        if outcome.page is not None:
            assert outcome.status in ("ok", "degraded")
        else:
            assert outcome.status in (
                "dead", "exhausted", "breaker_open"
            )
            assert outcome.url in {
                letter.url for letter in fetcher.dead_letters
            }
    # Every dead letter names a fetched URL, with a reason.
    for letter in fetcher.dead_letters:
        assert letter.reason
        assert letter.attempts <= policy.max_attempts


@settings(max_examples=30, deadline=None)
@given(policies(), st.integers(0, 2**16), st.integers(1, 6))
def test_backoff_schedule_monotone_non_decreasing(
    policy, seed, n_failures
):
    profile = FaultProfile(
        transient_rate=1.0, max_transient_failures=n_failures
    )
    web = FaultyWeb(_WEB, profile, seed=seed)
    log = EventLog()
    fetcher = ResilientFetcher(
        web, policy=policy, seed=seed,
        failure_threshold=1_000, tracer=Tracer(recorder=log),
    )
    fetcher.fetch(_URLS[0])
    waits = [e.payload["wait_ticks"] for e in log.events("fetch_retry")]
    assert waits == sorted(waits)
    # And each wait respects the policy's jittered envelope.
    for attempt, wait in enumerate(waits, start=1):
        base = policy.backoff(attempt)
        assert wait >= base - 1e-9
        # Monotonicity may carry a previous (larger) wait forward, so
        # the upper envelope is the largest jittered base so far.
        ceiling = max(
            policy.backoff(k) * (1.0 + policy.jitter)
            for k in range(1, attempt + 1)
        )
        assert wait <= ceiling + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 10),
    st.floats(0.5, 100.0, allow_nan=False),
    st.lists(st.floats(0.0, 500.0, allow_nan=False), min_size=1,
             max_size=40),
)
def test_breaker_never_serves_while_open_before_cool_off(
    threshold, cool_off, times
):
    breaker = CircuitBreaker(
        failure_threshold=threshold, cool_off=cool_off
    )
    for _ in range(threshold):
        breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.OPEN
    for now in times:
        allowed = breaker.allow(now)
        if now - breaker.opened_at < cool_off:
            assert not allowed, (
                "breaker served a request while open before cool-off"
            )
        if breaker.state == CircuitBreaker.HALF_OPEN:
            # Fail the trial: must re-open for a fresh cool-off.
            breaker.record_failure(now)
            assert breaker.state == CircuitBreaker.OPEN


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16))
def test_fetcher_is_a_pure_function_of_seed(seed):
    def run():
        web = FaultyWeb(
            _WEB,
            FaultProfile(transient_rate=0.6, dead_rate=0.2,
                         slow_rate=0.2),
            seed=seed,
        )
        fetcher = ResilientFetcher(web, seed=seed)
        return [
            (o.status, o.attempts, round(o.wait_ticks, 9))
            for o in (fetcher.fetch(url) for url in _URLS[:12])
        ]

    assert run() == run()
