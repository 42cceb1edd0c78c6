"""Chaos matrix: the full pipeline under every shipped fault profile.

The degradation invariant this suite pins down:

- under **transient-only** profiles (retries always win eventually) the
  alert set is *identical* to the fault-free run's;
- under **lossy** profiles (dead links, host flaps, corrupted pages)
  the alert set is a *subset* of the fault-free run's — degraded input
  may lose alerts but must never mint new ones;
- under *no* profile does the pipeline raise: crawls complete around
  failures and report them instead.

The same invariant holds for an alert poll after the web evolves, where
the crawler fetches only navigation pages and pages it does not yet
know healthy.

Classifiers are trained once on the fault-free corpus and reused for
every profile, so any alert-set difference is attributable to the
gather stage alone.
"""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertService
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog, validate_record
from repro.obs.tracer import Tracer
from repro.robustness.faults import PROFILES, FaultyWeb, get_profile

SEED = 13
FAULT_SEED = 5
CONFIG = EtapConfig(top_k_per_query=40, negative_sample_size=600)

FAULT_PROFILES = sorted(name for name in PROFILES if name != "none")
#: Documents published between the initial gather and the poll.
NEW_DOCS = 30


def alert_set(etap: Etap) -> set[tuple[str, str]]:
    events = etap.extract_trigger_events()
    return {
        (driver_id, event.snippet_id)
        for driver_id, ranked in events.items()
        for event in ranked
    }


@pytest.fixture(scope="module")
def baseline():
    """Fault-free pipeline run: the reference alert set + classifiers."""
    web = build_web(250, CorpusConfig(seed=SEED))
    etap = Etap.from_web(web, config=CONFIG)
    etap.gather()
    etap.train()
    alerts = alert_set(etap)
    assert alerts, "baseline produced no alerts; the matrix tests nothing"
    return web, etap, alerts


@pytest.mark.parametrize("profile_name", FAULT_PROFILES)
def test_degradation_invariant_holds(profile_name, baseline):
    base_web, base_etap, base_alerts = baseline
    profile = get_profile(profile_name)
    web = FaultyWeb(base_web, profile, seed=FAULT_SEED)
    log = EventLog()
    etap = Etap.from_web(web, config=CONFIG, tracer=Tracer(recorder=log))
    report = etap.gather()  # must not raise, whatever the profile
    # Reuse the fault-free classifiers: differences are gather-only.
    etap.classifiers = base_etap.classifiers
    alerts = alert_set(etap)

    if profile.lossy:
        assert alerts <= base_alerts, (
            f"{profile_name}: lossy profile minted alerts absent from "
            f"the fault-free run: {sorted(alerts - base_alerts)[:5]}"
        )
    else:
        assert alerts == base_alerts, (
            f"{profile_name}: transient-only profile changed the alert "
            "set (retries should have recovered every page)"
        )

    # The run reported its degradation instead of hiding it.
    injected = (
        report.pages_retried
        + report.pages_failed
        + report.pages_degraded
        + report.dead_letters
    )
    assert injected > 0, (
        f"{profile_name}: profile injected no observable faults"
    )
    for record in log.events():
        assert not validate_record(record.to_dict())


def test_lossy_profiles_actually_lose_something(baseline):
    """At least one lossy profile produces a *strict* subset.

    Guards the matrix against vacuous passes: if every lossy run were
    identical to the baseline, the subset assertions above would be
    testing nothing.
    """
    base_web, base_etap, base_alerts = baseline
    strict = []
    for name in FAULT_PROFILES:
        profile = get_profile(name)
        if not profile.lossy:
            continue
        web = FaultyWeb(base_web, profile, seed=FAULT_SEED)
        etap = Etap.from_web(web, config=CONFIG)
        etap.gather()
        etap.classifiers = base_etap.classifiers
        if alert_set(etap) < base_alerts:
            strict.append(name)
    assert strict, "no lossy profile dropped a single alert"


def polled_alert_set(profile_name: str, classifiers) -> set[tuple[str, str]]:
    """Alerts of one poll after the (fresh) web evolves under a profile."""
    inner = build_web(250, CorpusConfig(seed=SEED))
    web = FaultyWeb(inner, get_profile(profile_name), seed=FAULT_SEED)
    etap = Etap.from_web(web, config=CONFIG)
    etap.gather()
    etap.classifiers = classifiers
    service = AlertService(etap)
    WebEvolver(inner, CorpusConfig(seed=SEED + 1)).advance(NEW_DOCS)
    return {
        (alert.driver_id, alert.event.snippet_id)
        for alert in service.poll().alerts
    }


@pytest.fixture(scope="module")
def polled(baseline):
    """Per-profile poll alert sets; ``"none"`` is the fault-free poll."""
    _, base_etap, _ = baseline
    alerts = {
        name: polled_alert_set(name, base_etap.classifiers)
        for name in ("none", *FAULT_PROFILES)
    }
    assert alerts["none"], "fault-free poll minted no alerts"
    return alerts


@pytest.mark.parametrize("profile_name", FAULT_PROFILES)
def test_poll_after_evolution_degrades_to_a_subset(profile_name, polled):
    alerts, reference = polled[profile_name], polled["none"]
    if get_profile(profile_name).lossy:
        assert alerts <= reference, (
            f"{profile_name}: poll minted alerts absent from the "
            f"fault-free poll: {sorted(alerts - reference)[:5]}"
        )
    else:
        assert alerts == reference, (
            f"{profile_name}: transient-only profile changed the poll's "
            "alert set"
        )


def test_some_lossy_poll_loses_an_alert(polled):
    assert any(
        polled[name] < polled["none"]
        for name in FAULT_PROFILES
        if get_profile(name).lossy
    ), "no lossy profile dropped a single poll alert"
