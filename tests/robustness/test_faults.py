"""Unit tests for the deterministic fault-injecting web wrapper."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb, build_web
from repro.robustness.faults import (
    PROFILES,
    DeadLinkError,
    FaultProfile,
    FaultyWeb,
    HostDownError,
    SlowFetchError,
    TransientFetchError,
    get_profile,
    profile_names,
)


def tiny_web() -> SyntheticWeb:
    return build_web(60, CorpusConfig(seed=5))


def drain(web: FaultyWeb, url: str, max_attempts: int = 10):
    """Fetch until success or permanent failure; returns (page, fails)."""
    failures = []
    for _ in range(max_attempts):
        try:
            return web.fetch(url), failures
        except DeadLinkError:
            raise
        except Exception as exc:  # transient kinds
            failures.append(exc)
    return None, failures


class TestProfiles:
    def test_registry_has_the_shipped_profiles(self):
        assert "none" in PROFILES and "flaky" in PROFILES
        assert "hostile" in PROFILES
        assert len(profile_names()) >= 6

    def test_unknown_profile_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            get_profile("nope")

    def test_every_faulting_profile_injects_at_least_20_percent(self):
        rates = ("transient_rate", "dead_rate", "slow_rate",
                 "truncate_rate", "garble_rate", "flaky_host_rate")
        for name, profile in PROFILES.items():
            if name == "none":
                continue
            injected = sum(getattr(profile, rate) for rate in rates)
            assert injected >= 0.20, name

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(max_transient_failures=0)


class TestNoneProfileIsTransparent:
    def test_every_fetch_succeeds_with_original_content(self):
        inner = tiny_web()
        web = FaultyWeb(inner, get_profile("none"), seed=1)
        for url in inner.urls:
            assert web.fetch(url).text == inner.peek(url).text
        assert web.degraded_served == set()
        assert sum(web.stats.values()) == 0


class TestDeterminism:
    def test_same_seed_same_plan(self):
        inner = tiny_web()
        a = FaultyWeb(inner, get_profile("hostile"), seed=42)
        b = FaultyWeb(inner, get_profile("hostile"), seed=42)
        for url in inner.urls:
            assert a.plan_of(url) == b.plan_of(url)

    def test_different_seed_different_plan_somewhere(self):
        inner = tiny_web()
        a = FaultyWeb(inner, get_profile("hostile"), seed=1)
        b = FaultyWeb(inner, get_profile("hostile"), seed=2)
        assert any(
            a.plan_of(url) != b.plan_of(url) for url in inner.urls
        )

    def test_attempt_sequence_reproducible(self):
        inner = tiny_web()

        def history(url: str):
            web = FaultyWeb(inner, get_profile("flaky"), seed=9)
            outcomes = []
            for _ in range(5):
                try:
                    web.fetch(url)
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes

        for url in inner.urls[:20]:
            assert history(url) == history(url)


class TestFaultKinds:
    def test_dead_link_always_dead(self):
        inner = tiny_web()
        profile = FaultProfile(dead_rate=1.0)
        web = FaultyWeb(inner, profile, seed=0)
        url = inner.documents[0].url
        for _ in range(3):
            with pytest.raises(DeadLinkError):
                web.fetch(url)
        assert not DeadLinkError(url).transient

    def test_transient_recovers_after_planned_failures(self):
        inner = tiny_web()
        profile = FaultProfile(
            transient_rate=1.0, max_transient_failures=2
        )
        web = FaultyWeb(inner, profile, seed=0)
        url = inner.documents[0].url
        plan = web.plan_of(url)
        assert 1 <= plan.transient_failures <= 2
        page, failures = drain(web, url)
        assert page is not None
        assert len(failures) == plan.transient_failures
        assert all(
            isinstance(f, TransientFetchError) for f in failures
        )

    def test_slow_fetch_times_out_then_recovers_and_burns_ticks(self):
        inner = tiny_web()
        profile = FaultProfile(
            slow_rate=1.0, max_slow_timeouts=1, slow_penalty_ticks=5.0
        )
        web = FaultyWeb(inner, profile, seed=0)
        url = inner.documents[0].url
        before = web.clock.now()
        with pytest.raises(SlowFetchError):
            web.fetch(url)
        # 1 tick for the fetch + the 5-tick timeout penalty.
        assert web.clock.now() == before + 6.0
        assert web.fetch(url).url == url

    def test_truncated_page_is_shorter_and_marked_degraded(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(truncate_rate=1.0), seed=0)
        url = inner.documents[0].url
        page = web.fetch(url)
        assert len(page.text) < len(inner.peek(url).text)
        assert web.is_degraded(url)
        assert url in web.degraded_served

    def test_garbled_page_differs_but_same_length(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(garble_rate=1.0), seed=0)
        url = inner.documents[0].url
        page = web.fetch(url)
        original = inner.peek(url).text
        assert page.text != original
        assert len(page.text) == len(original)

    def test_flapping_host_fails_in_down_windows_only(self):
        inner = tiny_web()
        profile = FaultProfile(flaky_host_rate=1.0, flap_period=10.0)
        web = FaultyWeb(inner, profile, seed=0)
        url = inner.documents[0].url
        host = url.split("/")[2]
        assert web.host_is_flaky(host)
        assert not web.host_is_down(host)  # t=0: up window
        assert web.fetch(url).url == url
        web.clock.advance(10.0)  # into the down window
        assert web.host_is_down(host)
        with pytest.raises(HostDownError):
            web.fetch(url)
        web.clock.advance(10.0)  # back up
        assert web.fetch(url).url == url

    def test_404_stays_a_keyerror(self):
        web = FaultyWeb(tiny_web(), get_profile("hostile"), seed=0)
        with pytest.raises(KeyError):
            web.fetch("http://nowhere.example.com/none.html")


class TestImmunityAndPassthrough:
    def test_front_page_is_immune_by_default(self):
        inner = tiny_web()
        profile = FaultProfile(dead_rate=1.0, flaky_host_rate=1.0)
        web = FaultyWeb(inner, profile, seed=0)
        web.clock.advance(100.0)
        assert web.fetch(FRONT_PAGE_URL).url == FRONT_PAGE_URL

    def test_peek_never_faults_and_costs_no_attempt(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(dead_rate=1.0), seed=0)
        url = inner.documents[0].url
        assert web.peek(url).text == inner.peek(url).text
        assert web.fetch_attempts == 0

    def test_published_page_resets_fault_state(self):
        inner = tiny_web()
        web = FaultyWeb(inner, FaultProfile(dead_rate=1.0), seed=0)
        url = inner.documents[0].url
        with pytest.raises(DeadLinkError):
            web.fetch(url)
        assert web.fetch_attempts == 1
        fresh = inner.peek(url)
        web.add_page(
            Page(url=url, title=fresh.title, text="republished",
                 links=(), document=fresh.document)
        )
        # Republishing resets the URL's attempt history; the plan is
        # redrawn from the same seed (and is hence the same draw).
        assert web.fetch_attempts == 0
        assert web.plan_of(url).dead

    def test_web_interface_passthrough(self):
        inner = tiny_web()
        web = FaultyWeb(inner, get_profile("none"), seed=0)
        assert len(web) == len(inner)
        assert web.has(FRONT_PAGE_URL)
        assert web.graph is inner.graph
        assert len(web.documents) == len(inner.documents)
