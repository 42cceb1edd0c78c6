"""The benchmark's four workloads.

A workload makes its inputs from the seed (``prepare``, untimed), sets the
system up from them (``setup``, timed as set-up), runs a fixed number of
its operations in a closed loop (``measure``, timed on a
:class:`hostclock.HostClock`) and checks the program's outputs
(``verify``, which raises :class:`GateFailure`).  It reaches the program
only through its public API and hands it only the generated inputs.

Every workload gathers with ``EtapConfig(workers=2)``: the reference
machine has two cores, and no workload runs more than two load threads.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.alerts import AlertService
from repro.core.drivers import builtin_drivers
from repro.core.etap import Etap, EtapConfig
from repro.core.persistence import CheckpointStore, WriteAheadLog
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.vocab import build_org_names
from repro.corpus.web import build_web
from repro.queries.evaluate import StoreGroundTruth
from repro.serve import AdmissionController, AlertPortal
from repro.stream import EvolvingWebStream, StreamProcessor

WORKERS = 2


class GateFailure(Exception):
    """The program produced a wrong result."""


@dataclass
class Measured:
    """What one measured phase counted besides its timings."""

    attempted: int = 0
    failed: int = 0
    #: Domain counts for the per-layer ledger.
    counters: dict[str, float] = field(default_factory=dict)
    #: Reported alongside the metrics (digests, quality, side latencies).
    info: dict = field(default_factory=dict)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


def analyst_queries() -> list[str]:
    """The 20-query analyst mix: every smart query plus loose keywords."""
    queries = [
        query for driver in builtin_drivers() for query in driver.smart_queries
    ]
    return queries + [
        "acquisition",
        "revenue growth",
        "new ceo appointment",
        "quarterly earnings",
        "merger agreement",
    ]


def non_binding_admission() -> AdmissionController:
    """Admission that never refuses: the benchmark measures the happy path."""
    return AdmissionController(rate=1e9, burst=1e9, max_pending=64)


def count_etap(measured: Measured, etap: Etap) -> None:
    """Add the pipeline's annotation-cache and store counts to the ledger."""
    stats = etap.text_engine.stats()
    measured.count("text.hits", stats.hits)
    measured.count("text.lookups", stats.hits + stats.misses)
    measured.counters["store.bytes_per_doc"] = (
        etap.store.memory_bytes() / len(etap.store)
    )


class Workload:
    """Shared plumbing; subclasses define the four workloads."""

    name = ""
    #: Pages in the synthetic web the workload starts from.
    n_docs = 0
    #: Operations per second on the reference machine; a run of
    #: ``--seconds`` performs ``seconds x rate`` operations.
    rate = 1.0
    #: Interval kinds whose seconds make up the throughput's base.
    busy = ("op",)

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        #: A ``repro.obs.tracer.Tracer`` in traced runs, else ``None``.
        self.tracer = tracer

    def prepare(self) -> None:
        """Make the inputs from the seed (not timed)."""
        self.web = build_web(self.n_docs, CorpusConfig(seed=self.seed))

    def etap(self, web) -> Etap:
        return Etap.from_web(
            web, config=EtapConfig(workers=WORKERS), tracer=self.tracer
        )

    def close(self, system) -> None:
        pass


class Pipeline(Workload):
    """Batch lead generation: corpus in, ranked lead list out."""

    name = "pipeline"
    n_docs = 1500
    rate = 0.5
    #: Doc-level macro F1 below this means the pipeline broke.
    min_lead_f1 = 0.6

    def setup(self) -> Etap:
        return self.etap(self.web)

    def measure(self, etap, n_ops, clock) -> Measured:
        measured = Measured()
        digests, scores = [], []
        for i in range(n_ops):
            if i:
                # Each run starts from an empty pipeline, like a user's.
                etap = None
                gc.collect()
                clock.probe()
                with clock.time("setup"):
                    etap = self.setup()
            clock.pace()
            measured.attempted += 1
            with clock.time("op", i) as run:
                etap.gather()
                run.split()
                etap.train()
                run.split()
                events = etap.extract_trigger_events()
                run.split()
                leads = etap.company_report(events)
            digests.append(result_digest(events, leads))
            scores.append(lead_f1(etap, events))
            count_etap(measured, etap)
        measured.info.update(
            digest=digests[0], digests=len(set(digests)),
            lead_f1=min(scores), docs=len(etap.store),
        )
        return measured

    def verify(self, etap, measured) -> None:
        if measured.info["digests"] != 1:
            raise GateFailure("pipeline runs on one corpus disagree")
        if measured.info["lead_f1"] < self.min_lead_f1:
            raise GateFailure(
                f"lead F1 {measured.info['lead_f1']:.3f} < {self.min_lead_f1}"
            )


def result_digest(events, leads) -> str:
    """sha256 over the sorted (driver, snippet, score) events + ranking."""
    digest = hashlib.sha256()
    for driver_id in sorted(events):
        for event in sorted(events[driver_id], key=lambda e: e.snippet_id):
            digest.update(
                f"{driver_id}|{event.snippet_id}|{event.score!r}\n".encode()
            )
    for lead in leads:
        digest.update(f"{lead.company}|{lead.mrr!r}\n".encode())
    return digest.hexdigest()


def lead_f1(etap: Etap, events) -> float:
    """Doc-level macro F1 of the flagged documents against the corpus labels."""
    truth = StoreGroundTruth(etap.store)
    scores = []
    for driver in etap.drivers:
        flagged = {event.doc_id for event in events[driver.driver_id]}
        relevant = truth.relevant_docs(driver.driver_id)
        hits = len(flagged & relevant)
        if not hits:
            scores.append(0.0)
            continue
        precision, recall = hits / len(flagged), hits / len(relevant)
        scores.append(2 * precision * recall / (precision + recall))
    return sum(scores) / len(scores)


class Stream(Workload):
    """Micro-batches through the streaming processor, WAL and checkpoints."""

    name = "stream"
    n_docs = 2000
    rate = 10.0
    batch_docs = 20
    #: Batches the uninterrupted and the resumed processor both run after
    #: the measured phase; their alerts must agree.
    extra_batches = 3

    def source(self, web) -> EvolvingWebStream:
        return EvolvingWebStream(
            web,
            config=CorpusConfig(seed=self.seed + 1),
            docs_per_cycle=self.batch_docs,
        )

    def setup(self) -> StreamProcessor:
        etap = self.etap(self.web)
        etap.gather()
        etap.train()
        live = self.workdir / "live"
        return StreamProcessor(
            etap,
            wal=WriteAheadLog(live / "wal.jsonl"),
            checkpoints=CheckpointStore(live / "checkpoints"),
        )

    def measure(self, processor, n_ops, clock) -> Measured:
        measured = Measured()
        self.stream = self.source(self.web)
        for i in range(n_ops):
            batch = self.stream.next_batch()
            clock.pace()
            measured.attempted += 1
            with clock.time("op", i):
                report = processor.process_batch(batch)
            if report.n_ingested + report.n_deduped + report.n_late != len(
                batch.documents
            ):
                measured.failed += 1
            measured.count("stream.late", report.n_late)
        measured.count("alerts.minted", len(processor.alerts))
        count_etap(measured, processor.etap)
        self.clock = clock
        return measured

    def verify(self, processor, measured) -> None:
        """Resume a copy of the state on a rebuilt base; alerts must agree."""
        live, copy = self.workdir / "live", self.workdir / "resumed"
        (copy / "checkpoints").mkdir(parents=True)
        shutil.copy2(live / "wal.jsonl", copy / "wal.jsonl")
        checkpoints = CheckpointStore(live / "checkpoints")
        latest = checkpoints.path_of(checkpoints.checkpoint_ids()[-1])
        shutil.copy2(latest, copy / "checkpoints" / latest.name)

        stopped_at = processor.cycle
        target = stopped_at + self.extra_batches
        while self.stream.cycle < target:
            processor.process_batch(self.stream.next_batch())
        expected = [alert.alert_id for alert in processor.alerts]
        if not expected:
            raise GateFailure("the stream minted no alerts")

        web = build_web(self.n_docs, CorpusConfig(seed=self.seed))
        base = self.etap(web)
        base.gather()
        base.classifiers = processor.etap.classifiers
        self.clock.probe()
        with self.clock.time("resume"):
            resumed, info = StreamProcessor.resume(
                base,
                WriteAheadLog(copy / "wal.jsonl"),
                CheckpointStore(copy / "checkpoints"),
            )
        self.clock.probe()
        measured.info["resume_s"] = self.clock.seconds("resume")[0]
        with resumed:
            if info.cycle != stopped_at:
                raise GateFailure(
                    f"resumed at cycle {info.cycle}, stopped at {stopped_at}"
                )
            stream = self.source(web)
            stream.seek(info.cycle)
            while stream.cycle < target:
                resumed.process_batch(stream.next_batch())
            got = [alert.alert_id for alert in resumed.alerts]
        if got != expected:
            raise GateFailure(
                f"resumed processor minted {len(got)} alerts, "
                f"uninterrupted {len(expected)}"
            )
        measured.info["alerts"] = len(expected)

    def close(self, processor) -> None:
        processor.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class ServeCold(Workload):
    """Distinct analyst queries: the cache never hits."""

    name = "serve-cold"
    n_docs = 5000
    rate = 150.0
    busy = ("round",)
    clients = 2
    #: Queries each client sends per round; the host is probed between
    #: rounds, while no client runs.
    round_queries = 16
    #: Every n-th answer is recomputed on the snapshot and compared.
    check_every = 25

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.seed)
        self.templates = analyst_queries()
        self.orgs = build_org_names(400)
        rng.shuffle(self.orgs)
        # Every block of 20 queries holds each analyst query once, in a
        # seeded order, so every run sends the same mix.
        self.orders = [
            rng.sample(range(len(self.templates)), len(self.templates))
            for _ in self.orgs
        ]

    def query(self, i: int) -> str:
        """The i-th query; distinct for every i, so no answer is cached."""
        block, position = divmod(i, len(self.templates))
        lap, block = divmod(block, len(self.orgs))
        template = self.templates[self.orders[block][position]]
        query = f"{template} {self.orgs[block]}"
        if lap == 0:
            return query
        return f"{query} {self.orgs[lap % len(self.orgs)]}"

    def setup(self) -> AlertPortal:
        etap = self.etap(self.web)
        etap.gather()
        return AlertPortal.from_etap(
            etap, n_shards=4, admission=non_binding_admission()
        )

    def measure(self, portal, n_ops, clock) -> Measured:
        measured = Measured()
        per_round = self.clients * self.round_queries
        rounds = max(1, -(-n_ops // per_round))
        start = threading.Barrier(self.clients + 1, timeout=120)
        done = threading.Barrier(self.clients + 1, timeout=120)
        answers: list[tuple] = []
        errors: list[Exception] = []

        def client(k: int) -> None:
            for r in range(rounds):
                start.wait()
                first = r * per_round + k * self.round_queries
                for i in range(first, first + self.round_queries):
                    if errors:
                        break
                    query = self.query(i)
                    try:
                        with clock.time("op", i):
                            response = portal.query(f"analyst-{k}", query)
                    except Exception as exc:  # re-raised after the phase
                        errors.append(exc)
                        break
                    answers.append((i, query, response))
                done.wait()

        threads = [
            threading.Thread(target=client, args=(k,), name=f"client-{k}")
            for k in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for _ in range(rounds):
            clock.probe()
            with clock.time("round"):
                start.wait()
                done.wait()
        clock.probe()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        answers.sort(key=lambda answer: answer[0])
        self.answers = answers
        for _, _, response in answers:
            measured.attempted += 1
            if response.status != "ok":
                measured.failed += 1
                measured.count("serve.admission.refused")
        stats = portal.cache.stats()
        measured.counters.update({
            "serve.cache.hits": stats.hits,
            "serve.cache.lookups": stats.hits + stats.misses,
            "serve.cache.invalidated": stats.invalidations,
            "store.bytes_per_doc": portal.store.memory_bytes()
            / len(portal.store),
        })
        measured.info["cache_hits"] = stats.hits
        return measured

    def verify(self, portal, measured) -> None:
        cached = sum(response.cached for _, _, response in self.answers)
        if cached:
            raise GateFailure(f"{cached} cold queries were served from cache")
        snapshot = portal.shards.snapshot
        for _, query, response in self.answers[:: self.check_every]:
            expected = snapshot.search(query, top_k=10)
            if [(r.doc_key, r.score) for r in response.results] != [
                (r.doc_key, r.score) for r in expected
            ]:
                raise GateFailure(f"portal answer differs for {query!r}")

    def close(self, portal) -> None:
        portal.close()


class Monitor(Workload):
    """Analyst reads between alert cycles on an evolving web."""

    name = "monitor"
    n_docs = 3000
    rate = 4.0
    busy = ("op", "query")
    new_docs = 20
    queries_per_round = 40
    zipf_s = 1.1

    def setup(self):
        etap = self.etap(self.web)
        etap.gather()
        etap.train()
        service = AlertService(etap)
        portal = AlertPortal.from_etap(
            etap,
            alert_service=service,
            n_shards=4,
            admission=non_binding_admission(),
        )
        subscription = portal.subscribe("analyst")
        # The first poll re-crawls every page and fills the annotation
        # caches; a deployment pays that once, before its first alert.
        self.cycle(service, portal, subscription)
        return service, portal, subscription

    @staticmethod
    def cycle(service, portal, subscription):
        report = service.poll()
        portal.refresh()
        portal.publish(report.alerts)
        return report, portal.poll_alerts(subscription)

    def measure(self, system, n_ops, clock) -> Measured:
        service, portal, subscription = system
        measured = Measured()
        rng = random.Random(self.seed)
        queries = analyst_queries()
        weights = [1 / rank**self.zipf_s for rank in range(1, len(queries) + 1)]
        evolver = WebEvolver(self.web, CorpusConfig(seed=self.seed + 1))
        delivered_ever: set[str] = set()
        before = portal.cache.stats()
        for i in range(n_ops):
            clock.pace()
            checked = False
            for j, query in enumerate(
                rng.choices(queries, weights, k=self.queries_per_round)
            ):
                measured.attempted += 1
                with clock.time("query", f"{i}.q{j}"):
                    response = portal.query("analyst", query)
                if response.status != "ok":
                    measured.failed += 1
                elif response.cached and not checked:
                    checked = True
                    self.check_cached(portal, query, response)
            published = {doc.doc_id for doc in evolver.advance(self.new_docs)}
            clock.pace()
            measured.attempted += 1
            with clock.time("op", i):
                report, delivered = self.cycle(service, portal, subscription)
            self.check_cycle(report, delivered, published, delivered_ever)
            measured.count("alerts.new_docs", report.new_documents)
            measured.count("alerts.minted", len(report.alerts))
        after = portal.cache.stats()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        measured.counters.update({
            "serve.cache.hits": hits,
            "serve.cache.lookups": lookups,
            "serve.cache.invalidated": after.invalidations
            - before.invalidations,
        })
        count_etap(measured, service.etap)
        clock.probe()
        queries = sorted(clock.seconds("query"))
        measured.info.update(
            cache_hit_rate=hits / lookups if lookups else 0.0,
            alerts=len(delivered_ever),
            query_p50_ms=1e3 * statistics.median(queries),
            query_p99_ms=1e3 * queries[int(0.99 * (len(queries) - 1))],
        )
        return measured

    @staticmethod
    def check_cached(portal, query, response) -> None:
        """A cache hit must equal a fresh search of the current snapshot."""
        fresh = portal.shards.snapshot.search(query, top_k=10)
        if [(r.doc_key, r.score) for r in response.results] != [
            (r.doc_key, r.score) for r in fresh
        ]:
            raise GateFailure(f"stale cached answer for {query!r}")

    @staticmethod
    def check_cycle(report, delivered, published, delivered_ever) -> None:
        minted = [alert.alert_id for alert in report.alerts]
        got = [alert.alert_id for alert in delivered]
        if sorted(got) != sorted(minted) or len(set(got)) != len(got):
            raise GateFailure(
                f"cycle {report.cycle}: delivered {len(got)} alerts, "
                f"published {len(minted)}"
            )
        if delivered_ever.intersection(got):
            raise GateFailure(f"cycle {report.cycle}: alert delivered twice")
        delivered_ever.update(got)
        stale = [a.alert_id for a in delivered if a.event.doc_id not in published]
        if stale:
            raise GateFailure(
                f"cycle {report.cycle}: {len(stale)} alerts on old pages"
            )

    def verify(self, system, measured) -> None:
        if not measured.info["alerts"]:
            raise GateFailure("the monitor delivered no alerts")

    def close(self, system) -> None:
        system[1].close()


WORKLOADS = {
    workload.name: workload
    for workload in (Pipeline, Stream, ServeCold, Monitor)
}
