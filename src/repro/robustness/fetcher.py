"""Resilient fetching: bounded retries, backoff, circuit breaking.

:class:`ResilientFetcher` sits between the crawler/monitor and a (
possibly faulty) web.  It retries transient failures with exponential
backoff plus *deterministic* jitter (hash-derived, no wall clock and no
shared RNG state, so the retry schedule for a URL is a pure function of
``(seed, url, attempt)``), trips a per-host circuit breaker after
consecutive failures so a down host is not hammered, and records
permanently failed URLs in a dead-letter queue instead of raising — the
caller's crawl completes around failures.

All waiting is simulated ticks on the :class:`FaultyWeb`'s
:class:`~repro.obs.clock.FakeClock` (or the fetcher's own for a plain
web, which never fails a fetch, so never waits); nothing sleeps.

Every decision is flight-recorded when an event log is attached:
``fetch_retry``, ``breaker_open``, ``breaker_close`` and
``fetch_dead_letter`` events, plus ``fetch.*`` counters on the tracer's
metrics registry for the Prometheus export.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from urllib.parse import urlparse

from repro.corpus.web import Page
from repro.obs.clock import FakeClock
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.robustness.faults import DeadLinkError, FaultyWeb, FetchError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule with deterministic jitter.

    ``jitter`` is the maximum fractional increase applied to each wait
    (0.5 means up to +50%).  Waits are made monotone non-decreasing by
    construction (each wait is at least the previous one), so a retry
    schedule never speeds back up against a struggling host.
    """

    max_attempts: int = 4
    base_backoff: float = 1.0
    backoff_factor: float = 2.0
    max_backoff: float = 16.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff <= 0:
            raise ValueError("base_backoff must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff < self.base_backoff:
            raise ValueError("max_backoff must be >= base_backoff")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Un-jittered wait after the ``attempt``-th failure (1-based)."""
        raw = self.base_backoff * self.backoff_factor ** (attempt - 1)
        return min(self.max_backoff, raw)


class CircuitBreaker:
    """Classic closed / open / half-open breaker over simulated ticks.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` rejects every request until ``cool_off`` ticks
    have passed, then one trial request is let through (half-open).  A
    half-open success closes the breaker; a half-open failure reopens
    it for another cool-off.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self, failure_threshold: int = 5, cool_off: float = 8.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cool_off <= 0:
            raise ValueError("cool_off must be positive")
        self.failure_threshold = failure_threshold
        self.cool_off = cool_off
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        """Whether a request may proceed at simulated time ``now``."""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cool_off:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = now
        elif (
            self.state == self.CLOSED
            and self.failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_at = now


@dataclass(frozen=True)
class DeadLetter:
    """One permanently failed URL."""

    url: str
    reason: str  # "dead_link" | "missing" | "exhausted:<kind>" | "breaker_open"
    attempts: int


@dataclass
class FetchOutcome:
    """What one resilient fetch produced."""

    url: str
    page: Page | None = None
    status: str = "ok"  # ok | degraded | dead | exhausted | breaker_open
    attempts: int = 0
    retries: int = 0
    wait_ticks: float = 0.0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.page is not None


class ResilientFetcher:
    """Fetches pages around transient faults, dead links and bad hosts."""

    def __init__(
        self,
        web,
        policy: RetryPolicy | None = None,
        failure_threshold: int = 5,
        breaker_cool_off: float = 8.0,
        seed: int = 0,
        tracer: AnyTracer | None = None,
    ) -> None:
        self.web = web
        self.policy = policy or RetryPolicy()
        self.failure_threshold = failure_threshold
        self.breaker_cool_off = breaker_cool_off
        self.seed = seed
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._breakers: dict[str, CircuitBreaker] = {}
        self.dead_letters: list[DeadLetter] = []
        #: Simulated time: a FaultyWeb's clock, so backoff waits move
        #: flapping-host windows; a plain web's fetches never fail.
        self.clock = web.clock if isinstance(web, FaultyWeb) else FakeClock()

    # -- introspection ---------------------------------------------------------

    def breaker_of(self, host: str) -> CircuitBreaker:
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cool_off=self.breaker_cool_off,
            )
            self._breakers[host] = breaker
        return breaker

    def breaker_states(self) -> dict[str, str]:
        """host -> breaker state, for reports and tests."""
        return {
            host: breaker.state
            for host, breaker in sorted(self._breakers.items())
        }

    # -- fetching --------------------------------------------------------------

    def fetch(self, url: str) -> FetchOutcome:
        """Fetch ``url`` with retries; never raises on fetch failure.

        Permanent failures (dead links, retry exhaustion, an open
        breaker) land in :attr:`dead_letters` and come back as a
        non-``ok`` outcome the caller can step over.
        """
        outcome = self._fetch(url)
        windows = self.tracer.windows
        if windows is not None:
            # Outcome-level, not attempt-level: a URL that succeeds
            # after retries should not count against availability.
            record = windows.record
            record("fetch.outcomes")
            if outcome.ok:
                record("fetch.ok")
            else:
                record("fetch.dead_letters")
            if outcome.retries:
                record("fetch.retries", n=outcome.retries)
        return outcome

    def _fetch(self, url: str) -> FetchOutcome:
        host = urlparse(url).netloc
        breaker = self.breaker_of(host)
        outcome = FetchOutcome(url=url)
        if not breaker.allow(self.clock.now()):
            return self._dead_letter(outcome, "breaker_open")
        previous_wait = 0.0

        while outcome.attempts < self.policy.max_attempts:
            outcome.attempts += 1
            self.tracer.count("fetch.attempts")
            try:
                page = self.web.fetch(url)
            except KeyError:
                return self._dead_letter(outcome, "missing")
            except DeadLinkError:
                # The URL is gone, not the host: no breaker penalty.
                outcome.status = "dead"
                return self._dead_letter(outcome, "dead_link")
            except FetchError as exc:
                outcome.reason = exc.reason
                self._record_failure(breaker, host)
                if breaker.state == CircuitBreaker.OPEN:
                    return self._dead_letter(outcome, "breaker_open")
                if outcome.attempts >= self.policy.max_attempts:
                    break
                wait = self._wait(url, outcome, previous_wait)
                previous_wait = wait
                self.tracer.emit(
                    "fetch_retry",
                    url=url,
                    attempt=outcome.attempts,
                    wait_ticks=wait,
                    reason=exc.reason,
                )
                self.tracer.count("fetch.retries")
                outcome.retries += 1
                continue
            else:
                closing = breaker.state != CircuitBreaker.CLOSED
                breaker.record_success()
                if closing:
                    self.tracer.emit("breaker_close", host=host)
                    self.tracer.count("fetch.breaker_closes")
                outcome.page = page
                degraded = getattr(self.web, "is_degraded", None)
                if degraded is not None and degraded(url):
                    outcome.status = "degraded"
                    self.tracer.count("fetch.degraded")
                else:
                    outcome.status = "ok"
                return outcome

        outcome.status = "exhausted"
        return self._dead_letter(
            outcome, f"exhausted:{outcome.reason or 'unknown'}"
        )

    # -- internals -------------------------------------------------------------

    def _wait(
        self, url: str, outcome: FetchOutcome, previous_wait: float
    ) -> float:
        """Jittered, monotone backoff wait; advances the clock."""
        base = self.policy.backoff(outcome.attempts)
        jitter = self.policy.jitter * _unit(
            self.seed, "jitter", url, outcome.attempts
        )
        # Monotone non-decreasing by construction: never retry *faster*
        # than the previous wait against a struggling host.
        wait = max(base * (1.0 + jitter), previous_wait)
        outcome.wait_ticks += wait
        self.clock.advance(wait)
        return wait

    def _record_failure(self, breaker: CircuitBreaker, host: str) -> None:
        was_open = breaker.state == CircuitBreaker.OPEN
        breaker.record_failure(self.clock.now())
        if breaker.state == CircuitBreaker.OPEN and not was_open:
            self.tracer.emit(
                "breaker_open", host=host, failures=breaker.failures
            )
            self.tracer.count("fetch.breaker_opens")

    def _dead_letter(
        self, outcome: FetchOutcome, reason: str
    ) -> FetchOutcome:
        if outcome.status == "ok":
            outcome.status = (
                "breaker_open" if reason == "breaker_open" else "dead"
            )
        letter = DeadLetter(
            url=outcome.url, reason=reason, attempts=outcome.attempts
        )
        self.dead_letters.append(letter)
        self.tracer.emit(
            "fetch_dead_letter",
            url=outcome.url,
            reason=reason,
            attempts=outcome.attempts,
        )
        self.tracer.count("fetch.dead_letters")
        outcome.reason = reason
        return outcome


def _unit(seed: int, *parts: object) -> float:
    """A uniform draw in [0, 1) that is a pure function of its inputs."""
    material = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
