"""Deterministic fault injection for the synthetic web.

The paper's pipeline runs against the live Web, where fetch failures,
slow hosts, truncated pages and dead links are the norm.
:class:`FaultyWeb` wraps a :class:`~repro.corpus.web.SyntheticWeb` and
injects those failure modes *deterministically*: every fault decision is
a pure function of ``(seed, profile, url, attempt)`` derived by hashing,
so the same seed and profile reproduce the exact same failure schedule
on every run — chaos tests assert invariants instead of flaking.

Fault kinds:

* **transient** — the first N fetches of a URL raise
  :class:`TransientFetchError`, then the URL recovers (an HTTP 503);
* **slow** — the first N fetches time out (:class:`SlowFetchError`),
  each costing ``slow_penalty_ticks`` of simulated time;
* **dead** — every fetch raises :class:`DeadLinkError` (a permanent
  404; the page exists in the link graph but never resolves);
* **truncated / garbled** — the fetch succeeds but the served text is
  cut short or corrupted (a byte-mangling proxy or aborted transfer);
* **flapping host** — a whole host goes down and comes back on a fixed
  period of simulated time (:class:`HostDownError` while down).

Time is simulated ticks, never the wall clock: the web owns a
:class:`~repro.obs.clock.FakeClock` (``web.clock``) advanced by each
fetch and by the retrying fetcher's backoff waits, so flapping-host
windows interact with retry schedules exactly the same way in every
run.  It is the network's own clock, separate from the run's tracer
clock, so fault schedules never depend on wall time.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlparse

from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb
from repro.obs.clock import FakeClock


# -- failures ------------------------------------------------------------------

class FetchError(Exception):
    """Base class for injected fetch failures."""

    #: Machine-readable failure kind ("transient", "slow", ...).
    reason = "fetch_error"

    def __init__(self, url: str, detail: str = "") -> None:
        self.url = url
        self.detail = detail
        super().__init__(f"{self.reason}: {url}" + (f" ({detail})" if detail else ""))

    @property
    def transient(self) -> bool:
        """Whether retrying the same URL may succeed."""
        return True


class TransientFetchError(FetchError):
    """A temporary failure (connection reset, HTTP 5xx)."""

    reason = "transient"


class SlowFetchError(FetchError):
    """The fetch exceeded the simulated client timeout."""

    reason = "slow"

    def __init__(self, url: str, ticks: float = 0.0) -> None:
        self.ticks = ticks
        super().__init__(url, detail=f"{ticks:g} ticks")


class HostDownError(FetchError):
    """The whole host is in a down window of its flap cycle."""

    reason = "host_down"


class DeadLinkError(FetchError):
    """A permanent failure: the URL will never resolve."""

    reason = "dead_link"

    @property
    def transient(self) -> bool:
        return False


# -- profiles ------------------------------------------------------------------

@dataclass(frozen=True)
class FaultProfile:
    """Composable per-fault-kind injection rates.

    Rates are probabilities in ``[0, 1]`` that a given URL (or host,
    for ``flaky_host_rate``) is afflicted by that fault kind.  A URL
    selected as *dead* is dead regardless of other draws.

    ``lossy`` declares the profile's contract: ``False`` means every
    injected fault is recoverable within a small retry budget, so a
    resilient client must end up with the exact same page set as a
    fault-free run; ``True`` means pages can be permanently lost or
    served degraded, so the client's page set is a subset.
    """

    name: str = "custom"
    transient_rate: float = 0.0
    dead_rate: float = 0.0
    slow_rate: float = 0.0
    truncate_rate: float = 0.0
    garble_rate: float = 0.0
    flaky_host_rate: float = 0.0
    #: Upper bound on consecutive transient failures per URL (>= 1).
    max_transient_failures: int = 2
    #: Upper bound on consecutive timeouts for a slow URL (>= 1).
    max_slow_timeouts: int = 1
    #: Simulated ticks burned per timed-out fetch.
    slow_penalty_ticks: float = 5.0
    #: Length of one up (or down) window of a flapping host, in ticks.
    flap_period: float = 4.0
    #: Whether this profile can permanently lose or corrupt pages.
    lossy: bool = False

    def __post_init__(self) -> None:
        for name in (
            "transient_rate", "dead_rate", "slow_rate",
            "truncate_rate", "garble_rate", "flaky_host_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_transient_failures < 1:
            raise ValueError("max_transient_failures must be >= 1")
        if self.max_slow_timeouts < 1:
            raise ValueError("max_slow_timeouts must be >= 1")
        if self.flap_period <= 0:
            raise ValueError("flap_period must be positive")


#: Named profiles shipped with the CLI's ``--fault-profile``.  Non-lossy
#: profiles inject only recoverable faults; lossy ones can drop pages.
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "flaky": FaultProfile(
        name="flaky", transient_rate=0.25, slow_rate=0.05,
    ),
    "slow": FaultProfile(
        name="slow", slow_rate=0.25, transient_rate=0.10,
    ),
    "lossy": FaultProfile(
        name="lossy", dead_rate=0.15, transient_rate=0.10, lossy=True,
    ),
    "degraded": FaultProfile(
        name="degraded", truncate_rate=0.15, garble_rate=0.10,
        transient_rate=0.05, lossy=True,
    ),
    "flapping": FaultProfile(
        name="flapping", flaky_host_rate=0.30, transient_rate=0.10,
        lossy=True,
    ),
    "hostile": FaultProfile(
        name="hostile", transient_rate=0.20, dead_rate=0.15,
        slow_rate=0.10, truncate_rate=0.10, garble_rate=0.05,
        flaky_host_rate=0.20, lossy=True,
    ),
}


def profile_names() -> list[str]:
    return list(PROFILES)


def get_profile(name: str) -> FaultProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; "
            f"available: {', '.join(PROFILES)}"
        ) from None


# -- deterministic draws -------------------------------------------------------

def _unit(seed: int, *parts: object) -> float:
    """A uniform draw in [0, 1) that is a pure function of its inputs."""
    material = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class _FaultPlan:
    """The faults selected for one URL (pure function of seed+profile)."""

    dead: bool = False
    transient_failures: int = 0
    slow_timeouts: int = 0
    truncated: bool = False
    garbled: bool = False

    @property
    def degraded(self) -> bool:
        return self.truncated or self.garbled


class FaultyWeb:
    """A :class:`SyntheticWeb` wrapper that injects seeded faults.

    Implements the web's fetch interface (``fetch``/``peek``/``has``/
    ``urls``/``graph``/...), so it drops into any code path that takes
    a web.  ``fetch`` may raise :class:`FetchError` subclasses or serve
    degraded text per the profile; ``peek`` always bypasses injection
    (the crawler's link-prioritization peek is a simulation
    convenience, not a real network fetch).
    """

    def __init__(
        self,
        web: SyntheticWeb,
        profile: FaultProfile,
        seed: int = 0,
        immune: frozenset[str] = frozenset({FRONT_PAGE_URL}),
    ) -> None:
        self.inner = web
        self.profile = profile
        self.seed = seed
        #: URLs never faulted.  The crawl entrypoint is assumed
        #: known-good by default: a dead seed yields a trivially empty
        #: crawl, which degrades nothing and therefore tests nothing.
        self.immune = frozenset(immune)
        #: Simulated network time; fetches and client backoff advance it.
        self.clock = FakeClock()
        self._plans: dict[str, _FaultPlan] = {}
        self._attempts: Counter[str] = Counter()
        #: URLs actually served in degraded (truncated/garbled) form.
        self.degraded_served: set[str] = set()
        #: Fault kinds raised so far, by reason.
        self.stats: Counter[str] = Counter()

    # -- fault plan ------------------------------------------------------------

    def plan_of(self, url: str) -> _FaultPlan:
        """The (cached) fault plan for ``url``."""
        plan = self._plans.get(url)
        if plan is None:
            plan = self._draw_plan(url)
            self._plans[url] = plan
        return plan

    def _draw_plan(self, url: str) -> _FaultPlan:
        if url in self.immune:
            return _FaultPlan()
        profile = self.profile

        def hit(kind: str) -> bool:
            return _unit(self.seed, kind, url) < getattr(profile, kind)

        if hit("dead_rate"):
            return _FaultPlan(dead=True)
        transient = 0
        if hit("transient_rate"):
            transient = 1 + int(
                _unit(self.seed, "transient_n", url)
                * profile.max_transient_failures
            )
            transient = min(transient, profile.max_transient_failures)
        slow = 0
        if hit("slow_rate"):
            slow = 1 + int(
                _unit(self.seed, "slow_n", url)
                * profile.max_slow_timeouts
            )
            slow = min(slow, profile.max_slow_timeouts)
        return _FaultPlan(
            transient_failures=transient,
            slow_timeouts=slow,
            truncated=hit("truncate_rate"),
            garbled=hit("garble_rate"),
        )

    def host_is_flaky(self, host: str) -> bool:
        return (
            _unit(self.seed, "flaky_host", host)
            < self.profile.flaky_host_rate
        )

    def host_is_down(self, host: str) -> bool:
        """Whether a flaky host is in a down window right now."""
        if not self.host_is_flaky(host):
            return False
        return int(self.clock.now() // self.profile.flap_period) % 2 == 1

    def is_degraded(self, url: str) -> bool:
        """Whether ``url``'s content is served truncated/garbled."""
        return self.inner.has(url) and self.plan_of(url).degraded

    # -- HTTP-like access ------------------------------------------------------

    def fetch(self, url: str) -> Page:
        """Fetch a page, injecting the URL's planned faults in order.

        The k-th fetch of a URL behaves identically across runs with
        the same seed and profile: dead links always fail; transient
        and slow faults fail the first N attempts then recover; a
        flapping host fails whenever ``clock`` sits in a down window.
        """
        self.clock.advance(1.0)
        page = self.inner.fetch(url)  # propagate KeyError 404s as-is
        attempt = self._attempts[url] = self._attempts[url] + 1
        plan = self.plan_of(url)
        if plan.dead:
            self.stats["dead_link"] += 1
            raise DeadLinkError(url)
        host = urlparse(url).netloc
        if url not in self.immune and self.host_is_down(host):
            self.stats["host_down"] += 1
            raise HostDownError(url, detail=host)
        if attempt <= plan.transient_failures:
            self.stats["transient"] += 1
            raise TransientFetchError(url)
        if attempt <= plan.transient_failures + plan.slow_timeouts:
            self.stats["slow"] += 1
            self.clock.advance(self.profile.slow_penalty_ticks)
            raise SlowFetchError(url, ticks=self.profile.slow_penalty_ticks)
        if plan.degraded:
            self.degraded_served.add(url)
            self.stats["degraded"] += 1
            return self._degrade(page, plan)
        return page

    def peek(self, url: str) -> Page:
        """Fault-free access to the underlying page."""
        return self.inner.peek(url)

    def _degrade(self, page: Page, plan: _FaultPlan) -> Page:
        text = page.text
        links = page.links
        if plan.truncated:
            text = text[: max(1, len(text) // 3)]
            links = links[: len(links) // 2]
        if plan.garbled:
            text = _garble(text, _unit(self.seed, "garble_phase", page.url))
        return Page(
            url=page.url,
            title=page.title,
            text=text,
            links=links,
            document=page.document,
        )

    # -- passthrough -----------------------------------------------------------

    def has(self, url: str) -> bool:
        return self.inner.has(url)

    def add_page(self, page: Page) -> None:
        self.inner.add_page(page)
        # Fresh content gets a fresh fault plan and attempt history.
        self._plans.pop(page.url, None)
        self._attempts.pop(page.url, None)
        self.degraded_served.discard(page.url)

    @property
    def graph(self):
        return self.inner.graph

    @property
    def documents(self):
        return self.inner.documents

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def fetch_attempts(self) -> int:
        """Total fetch calls served (successes and failures)."""
        return sum(self._attempts.values())


def _garble(text: str, phase: float) -> str:
    """Deterministically corrupt ~1 in 7 characters of ``text``."""
    offset = int(phase * 7)
    chars = list(text)
    for index in range(offset % 7, len(chars), 7):
        if chars[index].isalpha():
            chars[index] = "#"
    return "".join(chars)
