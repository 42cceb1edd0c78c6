"""Regression: recorders passed to constructors are never null-swapped.

A fresh ``EventLog()`` has zero events and a fresh ``Tracer()`` has no
spans; if either were falsy, the common wiring idiom
``self.event_log = event_log or NULL_EVENT_LOG`` would silently replace
a caller's empty-but-real recorder with the null object and the first
events of a run would vanish.  ``EventLog.__bool__``/``Tracer`` are
truthy by contract — this suite pins both the contract and every
constructor that relies on it.
"""

from __future__ import annotations

import inspect

import pytest

import repro.cli  # noqa: F401 -- force-import the full package tree
import repro.queries  # noqa: F401 -- cli imports the planner lazily
from repro.core.alerts import AlertService
from repro.core.classifier import TriggerEventClassifier
from repro.core.etap import Etap, EtapConfig
from repro.core.ranking import CompanyRanker
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.gather.dedup import NearDuplicateIndex
from repro.gather.ingest import ShardedIngester
from repro.gather.pipeline import DataGatherer
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.health import HealthMonitor
from repro.obs.slo import SloEngine, default_slos
from repro.obs.timeseries import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.robustness.fetcher import ResilientFetcher
from repro.search.crawler import FocusedCrawler
from repro.search.engine import SearchEngine


def test_fresh_recorders_are_truthy():
    assert EventLog(), "an empty EventLog must be truthy"
    assert Tracer(), "a fresh Tracer must be truthy"
    assert len(EventLog()) == 0  # falsy-prone without __bool__
    assert Telemetry(), "a fresh Telemetry must be truthy"
    assert NULL_TELEMETRY, "NULL_TELEMETRY shares the truthy contract"
    assert not NULL_TELEMETRY.enabled  # gate on .enabled, not bool()


WEB = build_web(30, CorpusConfig(seed=2))


def recorder_keepers():
    """(name, factory) for every constructor taking tracer/event_log."""
    gatherer = DataGatherer(WEB)
    etap = Etap.from_web(build_web(30, CorpusConfig(seed=2)))
    yield "FocusedCrawler", lambda t, e: FocusedCrawler(
        WEB, tracer=t, event_log=e
    )
    yield "DataGatherer", lambda t, e: DataGatherer(
        WEB, tracer=t, event_log=e
    )
    yield "Etap", lambda t, e: Etap.from_web(
        WEB, tracer=t, event_log=e
    )
    yield "SearchEngine", lambda t, e: SearchEngine(
        tracer=t, event_log=e
    )
    yield "TriggerEventClassifier", lambda t, e: TriggerEventClassifier(
        driver_id="revenue_growth", tracer=t, event_log=e
    )
    yield "CompanyRanker", lambda t, e: CompanyRanker(
        tracer=t, event_log=e
    )
    yield "NearDuplicateIndex", lambda t, e: NearDuplicateIndex(
        event_log=e
    )
    yield "TrainingDataGenerator", lambda t, e: _training_generator(
        gatherer, t
    )
    yield "ResilientFetcher", lambda t, e: ResilientFetcher(
        WEB, tracer=t, event_log=e
    )
    yield "ShardedIngester", lambda t, e: ShardedIngester(
        tracer=t, event_log=e
    )
    yield "AlertService", lambda t, e: _alert_service(etap, e)
    yield "ShardedIndex", lambda t, e: _sharded_index(t, e)
    yield "WorkerPool", lambda t, e: _worker_pool(t)
    yield "AdmissionController", lambda t, e: _admission(t)
    yield "AlertPortal", lambda t, e: _portal(etap, t, e)
    yield "QueryCache", lambda t, e: _query_cache(e)
    yield "ReplicaSet", lambda t, e: _replica_set(t, e)
    yield "HedgedRouter", lambda t, e: _hedged_router(t, e)
    yield "StreamProcessor", lambda t, e: _stream_processor(etap, t, e)
    yield "SloEngine", lambda t, e: SloEngine(
        default_slos(), Telemetry(), event_log=e
    )
    yield "HealthMonitor", lambda t, e: HealthMonitor(event_log=e)
    yield "CandidateGenerator", lambda t, e: _candidate_generator(t)
    yield "QueryEvaluator", lambda t, e: _query_evaluator(
        gatherer, t, e
    )
    yield "PortfolioPlanner", lambda t, e: _portfolio_planner(t, e)


def _training_generator(gatherer, tracer):
    from repro.core.snippets import SnippetGenerator
    from repro.core.training import TrainingDataGenerator

    return TrainingDataGenerator(
        store=gatherer.store,
        engine=gatherer.engine,
        snippet_generator=SnippetGenerator(),
        tracer=tracer,
    )


def _candidate_generator(tracer):
    from repro.queries.generate import CandidateGenerator

    return CandidateGenerator(tracer=tracer)


def _query_evaluator(gatherer, tracer, event_log):
    from repro.queries.evaluate import QueryEvaluator, StoreGroundTruth

    return QueryEvaluator(
        gatherer.engine,
        StoreGroundTruth(gatherer.store),
        tracer=tracer,
        event_log=event_log,
    )


def _portfolio_planner(tracer, event_log):
    from repro.queries.planner import PortfolioPlanner

    return PortfolioPlanner(tracer=tracer, event_log=event_log)


def _alert_service(etap, event_log):
    # AlertService only checks that classifiers exist; a stub is enough
    # for a wiring test and avoids training a real model here.
    etap.classifiers.setdefault("stub", object())
    return AlertService(etap, event_log=event_log)


def _sharded_index(tracer, event_log):
    from repro.serve.shards import ShardedIndex

    return ShardedIndex(n_shards=2, tracer=tracer, event_log=event_log)


def _worker_pool(tracer):
    from repro.serve.workers import WorkerPool

    pool = WorkerPool(lambda key: key, max_workers=1, tracer=tracer)
    pool.shutdown()
    return pool


def _admission(tracer):
    from repro.serve.admission import AdmissionController

    return AdmissionController(tracer=tracer)


def _query_cache(event_log):
    from repro.serve.cache import QueryCache

    return QueryCache(event_log=event_log)


def _replica_set(tracer, event_log):
    from repro.serve.replication import ReplicaSet

    return ReplicaSet(
        n_shards=1, n_replicas=2, tracer=tracer, event_log=event_log
    )


def _hedged_router(tracer, event_log):
    from repro.serve.replication import ReplicaSet
    from repro.serve.router import HedgedRouter

    return HedgedRouter(
        ReplicaSet(n_shards=1, n_replicas=2),
        tracer=tracer,
        event_log=event_log,
    )


def _stream_processor(etap, tracer, event_log):
    from repro.stream import StreamProcessor

    # Streaming needs trained classifiers; a stub satisfies the guard
    # (see _alert_service) and the empty store keeps the rebuild cheap.
    etap.classifiers.setdefault("stub", object())
    return StreamProcessor(etap, tracer=tracer, event_log=event_log)


def _portal(etap, tracer, event_log):
    from repro.serve.portal import AlertPortal

    portal = AlertPortal(
        etap.store, n_shards=1, tracer=tracer, event_log=event_log
    )
    portal.close()
    return portal


@pytest.mark.parametrize(
    "name,factory", list(recorder_keepers()), ids=lambda v: v
    if isinstance(v, str) else ""
)
def test_constructors_keep_fresh_recorders(name, factory):
    tracer, log = Tracer(), EventLog()
    obj = factory(tracer, log)
    kept_tracer = getattr(obj, "tracer", None)
    kept_log = getattr(obj, "event_log", None)
    assert kept_tracer is not NULL_TRACER or kept_log is not NULL_EVENT_LOG, (
        f"{name} null-swapped both recorders"
    )
    if kept_tracer is not None:
        assert kept_tracer is tracer, (
            f"{name} replaced a fresh Tracer with {kept_tracer!r}"
        )
    if kept_log is not None:
        assert kept_log is log, (
            f"{name} replaced a fresh EventLog with {kept_log!r}"
        )


def test_every_recorder_constructor_is_covered():
    """Inspect-scan the package so new constructors join the audit.

    Walks every class reachable from the imported ``repro`` modules and
    collects those whose ``__init__`` takes a ``tracer`` or
    ``event_log`` parameter; each must appear in the explicit audit
    list above (or be a recorder/null-object itself).
    """
    import sys

    audited = {name for name, _ in recorder_keepers()}
    exempt = {
        # The recorders themselves and their null twins.
        "EventLog", "NullEventLog", "Tracer", "NullTracer",
        # Thin report/export helpers that receive a recorder to *read*.
        "MetricsExporter", "StageReport",
        # Internal context managers handed an already-wired recorder.
        "_SpanContext", "_TimedContext",
    }
    found = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module_name:
                continue
            try:
                params = inspect.signature(cls.__init__).parameters
            except (TypeError, ValueError):  # pragma: no cover
                continue
            if "tracer" in params or "event_log" in params:
                found.add(cls.__name__)
    unaudited = found - audited - exempt
    assert not unaudited, (
        f"constructors taking tracer/event_log missing from this "
        f"audit: {sorted(unaudited)} — add them to recorder_keepers() "
        "(or exempt with a reason)"
    )


# -- telemetry wiring ---------------------------------------------------------
#
# The windowed-telemetry hub follows the same contract: a fresh
# ``Telemetry()`` (no observations yet) is truthy, so ``telemetry or
# NULL_TELEMETRY`` keeps it; sites that skip recording must gate on
# ``.enabled``, never on truthiness.


def telemetry_keepers():
    """(name, factory) for every constructor taking ``telemetry``."""
    etap = Etap.from_web(build_web(30, CorpusConfig(seed=2)))
    yield "ResilientFetcher", lambda tel: ResilientFetcher(
        WEB, telemetry=tel
    )
    yield "DataGatherer", lambda tel: DataGatherer(WEB, telemetry=tel)
    yield "Etap", lambda tel: Etap.from_web(WEB, telemetry=tel)
    yield "AlertPortal", lambda tel: _portal_with_telemetry(etap, tel)
    yield "StreamProcessor", lambda tel: _stream_with_telemetry(
        etap, tel
    )
    yield "SloEngine", lambda tel: SloEngine(default_slos(), tel)


def _portal_with_telemetry(etap, telemetry):
    from repro.serve.portal import AlertPortal

    portal = AlertPortal(etap.store, n_shards=1, telemetry=telemetry)
    portal.close()
    return portal


def _stream_with_telemetry(etap, telemetry):
    from repro.stream import StreamProcessor

    etap.classifiers.setdefault("stub", object())
    return StreamProcessor(etap, telemetry=telemetry)


@pytest.mark.parametrize(
    "name,factory", list(telemetry_keepers()), ids=lambda v: v
    if isinstance(v, str) else ""
)
def test_constructors_keep_fresh_telemetry(name, factory):
    telemetry = Telemetry()
    obj = factory(telemetry)
    kept = getattr(obj, "telemetry", None)
    assert kept is telemetry, (
        f"{name} replaced a fresh Telemetry with {kept!r}"
    )


@pytest.mark.parametrize(
    "name,factory", list(telemetry_keepers()), ids=lambda v: v
    if isinstance(v, str) else ""
)
def test_constructors_default_to_null_telemetry(name, factory):
    if name == "SloEngine":
        pytest.skip("SloEngine requires a real telemetry hub")
    obj = factory(None)
    assert obj.telemetry is NULL_TELEMETRY, (
        f"{name} without telemetry= must wire NULL_TELEMETRY, "
        f"got {obj.telemetry!r}"
    )


def test_every_telemetry_constructor_is_covered():
    """Inspect-scan mirror of the recorder audit for ``telemetry``."""
    import sys

    audited = {name for name, _ in telemetry_keepers()}
    exempt = {
        # The hub and its null twin take no telemetry themselves.
        "Telemetry", "NullTelemetry",
    }
    found = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module_name:
                continue
            try:
                params = inspect.signature(cls.__init__).parameters
            except (TypeError, ValueError):  # pragma: no cover
                continue
            if "telemetry" in params:
                found.add(cls.__name__)
    unaudited = found - audited - exempt
    assert not unaudited, (
        f"constructors taking telemetry missing from this audit: "
        f"{sorted(unaudited)} — add them to telemetry_keepers()"
    )
