"""Every instrumented constructor keeps the one handle it is given.

``tracer=`` is the only observability parameter in the package: a real
:class:`~repro.obs.tracer.Tracer` (carrying spans, counters, events and
windowed telemetry) must be kept by identity, and ``None`` must map to
:data:`~repro.obs.tracer.NULL_TRACER` by an ``is None`` test, never by
truthiness.  Components built from an ``Etap`` inherit ``etap.tracer``,
so their factories hand the tracer to the Etap.  An inspect-scan makes
new constructors join the audit, and holds the package to one clock:
the tracer's.
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

import pytest

import repro
import repro.cli  # noqa: F401 -- force-import the full package tree
import repro.queries  # noqa: F401 -- cli imports the planner lazily
from repro.core.alerts import AlertService
from repro.core.classifier import TriggerEventClassifier
from repro.core.etap import Etap
from repro.core.ranking import CompanyRanker
from repro.core.snippets import SnippetGenerator
from repro.core.training import TrainingDataGenerator
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.gather.ingest import ShardedIngester
from repro.gather.pipeline import DataGatherer
from repro.obs.events import EventLog
from repro.obs.health import HealthMonitor
from repro.obs.slo import SloEngine, default_slos
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.queries.evaluate import QueryEvaluator, StoreGroundTruth
from repro.queries.generate import CandidateGenerator
from repro.queries.planner import PortfolioPlanner
from repro.robustness.fetcher import ResilientFetcher
from repro.search.crawler import FocusedCrawler
from repro.search.engine import SearchEngine
from repro.serve.admission import AdmissionController
from repro.serve.cache import QueryCache
from repro.serve.portal import AlertPortal
from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter
from repro.serve.shards import ShardedIndex
from repro.serve.workers import WorkerPool
from repro.stream import StreamProcessor

WEB = build_web(30, CorpusConfig(seed=2))


def _trained_etap(tracer) -> Etap:
    # Alerting and streaming only check that classifiers exist; a stub
    # is enough for a wiring test, and the ungathered store keeps the
    # portal's first snapshot build cheap.
    etap = Etap.from_web(WEB, tracer=tracer)
    etap.classifiers["stub"] = object()
    return etap


def _closed(component):
    component.close()
    return component


def _shut_down(pool):
    pool.shutdown()
    return pool


def recorder_keepers():
    """(name, factory) for every constructor taking ``tracer``."""
    gatherer = DataGatherer(WEB)
    yield "FocusedCrawler", lambda t: FocusedCrawler(WEB, tracer=t)
    yield "DataGatherer", lambda t: DataGatherer(WEB, tracer=t)
    yield "Etap", lambda t: Etap.from_web(WEB, tracer=t)
    yield "SearchEngine", lambda t: SearchEngine(tracer=t)
    yield "TriggerEventClassifier", lambda t: TriggerEventClassifier(
        driver_id="revenue_growth", tracer=t
    )
    yield "CompanyRanker", lambda t: CompanyRanker(tracer=t)
    yield "TrainingDataGenerator", lambda t: TrainingDataGenerator(
        store=gatherer.store,
        engine=gatherer.engine,
        snippet_generator=SnippetGenerator(),
        tracer=t,
    )
    yield "ResilientFetcher", lambda t: ResilientFetcher(WEB, tracer=t)
    yield "ShardedIngester", lambda t: ShardedIngester(tracer=t)
    yield "AlertService", lambda t: AlertService(_trained_etap(t))
    yield "ShardedIndex", lambda t: ShardedIndex(n_shards=2, tracer=t)
    yield "WorkerPool", lambda t: _shut_down(
        WorkerPool(lambda key: key, tracer=t)
    )
    yield "AdmissionController", lambda t: AdmissionController(tracer=t)
    yield "AlertPortal", lambda t: _closed(
        AlertPortal.from_etap(_trained_etap(t), n_shards=1)
    )
    yield "QueryCache", lambda t: QueryCache(tracer=t)
    yield "ReplicaSet", lambda t: ReplicaSet(
        n_shards=1, n_replicas=2, tracer=t
    )
    yield "HedgedRouter", lambda t: HedgedRouter(
        ReplicaSet(n_shards=1, n_replicas=2), tracer=t
    )
    yield "StreamProcessor", lambda t: StreamProcessor(_trained_etap(t))
    yield "SloEngine", lambda t: SloEngine(default_slos(), t)
    yield "HealthMonitor", lambda t: HealthMonitor(tracer=t)
    yield "CandidateGenerator", lambda t: CandidateGenerator(tracer=t)
    yield "QueryEvaluator", lambda t: QueryEvaluator(
        gatherer.engine, StoreGroundTruth(gatherer.store), tracer=t
    )
    yield "PortfolioPlanner", lambda t: PortfolioPlanner(tracer=t)


@pytest.mark.parametrize(
    "name,factory", list(recorder_keepers()), ids=lambda v: v
    if isinstance(v, str) else ""
)
def test_constructors_keep_fresh_recorders(name, factory):
    tracer = Tracer(recorder=EventLog(), windows=Telemetry())
    assert factory(tracer).tracer is tracer, (
        f"{name} replaced the tracer it was given"
    )
    if name == "SloEngine":
        # The SLO engine reads windows, so it refuses the null handle.
        with pytest.raises(ValueError):
            factory(NULL_TRACER)
    else:
        assert factory(None).tracer is NULL_TRACER, (
            f"{name} without a tracer must keep NULL_TRACER"
        )


#: Constructors that may take ``clock``: the tracer (where a run picks
#: its one clock), the primitives it hands the clock to, the clock
#: itself, and the write-ahead log, built before any tracer exists.
CLOCK_TAKERS = {
    "Tracer", "TokenBucket", "TimeSeries", "WriteAheadLog", "FakeClock",
}

#: Direct reads of the wall clock; only ``repro.obs.clock`` may make them.
WALL_CLOCK_READ = re.compile(
    r"\btime\.(perf_counter|monotonic|time)\b"
    r"|\bfrom time import\b.*\b(perf_counter|monotonic|time)\b"
)


def test_every_recorder_constructor_is_covered():
    """Inspect-scan the package so new constructors join the audit.

    Walks every class and function reachable from the imported
    ``repro`` modules.  A constructor taking ``tracer`` must appear in
    the audit list above (or be one of the tracer's own helpers); no
    signature may take the retired ``event_log`` or ``telemetry``
    parameters.  Time has one source per run, the tracer's clock: only
    :data:`CLOCK_TAKERS` may take ``clock``, and only
    ``repro.obs.clock`` may read the wall clock.
    """
    audited = {name for name, _ in recorder_keepers()}
    # Internal context managers handed an already-wired tracer.
    exempt = {"_SpanContext", "_TimedContext"}
    found: set[str] = set()
    retired: set[str] = set()
    clocked: set[str] = set()
    wall_readers: set[str] = set()
    package = Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path != package / "obs" / "clock.py" and WALL_CLOCK_READ.search(
            source
        ):
            wall_readers.add(str(path.relative_to(package)))
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for _, member in inspect.getmembers(module):
            if getattr(member, "__module__", None) != module_name:
                continue
            if inspect.isclass(member):
                target, label = member.__init__, member.__name__
            elif inspect.isfunction(member):
                target, label = member, f"{module_name}.{member.__name__}"
            else:
                continue
            try:
                params = inspect.signature(target).parameters
            except (TypeError, ValueError):  # pragma: no cover
                continue
            if inspect.isclass(member) and "tracer" in params:
                found.add(label)
            if {"event_log", "telemetry"} & set(params):
                retired.add(label)
            if inspect.isclass(member) and "clock" in params:
                clocked.add(label)
    unaudited = found - audited - exempt
    assert not unaudited, (
        f"constructors taking tracer missing from this audit: "
        f"{sorted(unaudited)} — add them to recorder_keepers()"
    )
    assert not retired, (
        f"signatures taking event_log/telemetry: {sorted(retired)} — "
        "pass the one tracer instead"
    )
    assert not clocked - CLOCK_TAKERS, (
        f"constructors taking clock: {sorted(clocked - CLOCK_TAKERS)} — "
        "read self.tracer.clock instead"
    )
    assert not wall_readers, (
        f"modules reading the wall clock directly: {sorted(wall_readers)}"
        " — read the tracer's clock instead"
    )


# -- telemetry wiring ---------------------------------------------------------
#
# Windowed telemetry travels on the tracer as ``tracer.windows``.  The
# components that record into (or read) the windows must reach the very
# hub the caller attached, and without a tracer they must see no windows
# at all, so their recording sites stay no-ops.


def telemetry_keepers():
    """(name, factory) for every component using ``tracer.windows``."""
    yield "ResilientFetcher", lambda t: ResilientFetcher(WEB, tracer=t)
    yield "DataGatherer", lambda t: DataGatherer(WEB, tracer=t)
    yield "Etap", lambda t: Etap.from_web(WEB, tracer=t)
    yield "AlertPortal", lambda t: _closed(
        AlertPortal.from_etap(_trained_etap(t), n_shards=1)
    )
    yield "StreamProcessor", lambda t: StreamProcessor(_trained_etap(t))
    yield "SloEngine", lambda t: SloEngine(default_slos(), t)


@pytest.mark.parametrize(
    "name,factory", list(telemetry_keepers()), ids=lambda v: v
    if isinstance(v, str) else ""
)
def test_constructors_keep_fresh_telemetry(name, factory):
    telemetry = Telemetry()
    obj = factory(Tracer(windows=telemetry))
    kept = obj.tracer.windows
    assert kept is telemetry, (
        f"{name} replaced a fresh Telemetry with {kept!r}"
    )


@pytest.mark.parametrize(
    "name,factory",
    [(n, f) for n, f in telemetry_keepers() if n != "SloEngine"],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_constructors_default_to_null_telemetry(name, factory):
    # SloEngine has no default: it refuses a tracer without windows
    # (checked in test_constructors_keep_fresh_recorders).
    obj = factory(None)
    assert obj.tracer is NULL_TRACER and obj.tracer.windows is None, (
        f"{name} without a tracer must see no windows, "
        f"got {obj.tracer.windows!r}"
    )


def test_every_telemetry_constructor_is_covered():
    """Inspect-scan mirror of the recorder audit for ``tracer.windows``.

    Every class whose source reaches ``tracer.windows`` must appear in
    :func:`telemetry_keepers`, and no constructor may take the retired
    ``telemetry`` parameter.
    """
    audited = {name for name, _ in telemetry_keepers()}
    found: set[str] = set()
    retired: set[str] = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module_name:
                continue
            try:
                source = inspect.getsource(cls)
                params = inspect.signature(cls.__init__).parameters
            except (OSError, TypeError, ValueError):  # pragma: no cover
                continue
            if "tracer.windows" in source:
                found.add(cls.__name__)
            if "telemetry" in params:
                retired.add(cls.__name__)
    unaudited = found - audited
    assert not unaudited, (
        f"classes using tracer.windows missing from this audit: "
        f"{sorted(unaudited)} — add them to telemetry_keepers()"
    )
    assert not retired, (
        f"constructors taking telemetry: {sorted(retired)} — "
        "attach the hub to the tracer instead"
    )
