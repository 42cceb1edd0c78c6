"""Command-line interface: the ETAP pipeline as a workspace tool.

A *workspace* directory holds the gathered document collection
(``store.jsonl``) and the trained per-driver classifiers
(``models/*.classifier.json``), so each stage can run as a separate
process::

    python -m repro gather  --workspace ws --docs 1500
    python -m repro train   --workspace ws
    python -m repro extract --workspace ws --top 10
    python -m repro report  --workspace ws

``python -m repro demo`` runs everything in one go on a small corpus.

Every subcommand takes ``--profile``, which traces the run and prints a
per-stage tree (wall-time, items, throughput) to stderr; ``repro
trace`` replays the demo pipeline and emits the same data as JSON.

Pipeline subcommands also take ``--record FILE``, which turns on the
flight recorder and writes every pipeline event as JSONL.  The recorded
log feeds three observability subcommands::

    repro demo --record events.jsonl --cycles 2
    repro explain <alert-id> --events events.jsonl
    repro events --file events.jsonl --type alert_emitted --tail 5
    repro events --validate events.jsonl
    repro metrics --docs 500
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.core.drivers import builtin_drivers
from repro.core.etap import Etap, EtapConfig
from repro.core.persistence import load_classifiers, save_classifiers
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.evaluation.reporting import ascii_table, format_float
from repro.gather.store import DocumentStore
from repro.obs import (
    EXIT_CODES,
    NULL_TRACER,
    AnyTracer,
    EventLog,
    HealthMonitor,
    ProvenanceGraph,
    SloEngine,
    StageReport,
    Telemetry,
    Tracer,
    default_slos,
    derive_gauges,
    fetcher_probe,
    gather_probe,
    load_slo_config,
    parse_prometheus_text,
    portal_probe,
    processor_probe,
    prometheus_text,
    read_events,
    validate_jsonl,
)
from repro.robustness import FaultyWeb, get_profile, profile_names
from repro.search.engine import SearchEngine

STORE_FILE = "store.jsonl"
INDEX_FILE = "index.npz"
MODELS_DIR = "models"


def _workspace(path: str) -> Path:
    workspace = Path(path)
    workspace.mkdir(parents=True, exist_ok=True)
    return workspace


def _handle(args: argparse.Namespace) -> AnyTracer:
    """The run's one observability handle.

    Real when the run profiles, records, or is a subcommand that reads
    its own counters and windows (``observed``); the null handle
    otherwise.
    """
    recording = getattr(args, "record", None)
    if not (
        getattr(args, "profile", False)
        or recording
        or getattr(args, "observed", False)
    ):
        return NULL_TRACER
    return Tracer(
        recorder=EventLog(sink=recording) if recording else None,
        windows=Telemetry(),
    )


def _load_etap(
    workspace: Path, config: EtapConfig, tracer: AnyTracer
) -> Etap:
    """Rebuild an Etap from a workspace: store + (cached) index."""
    store_path = workspace / STORE_FILE
    if not store_path.exists():
        raise SystemExit(
            f"no gathered collection at {store_path}; run "
            f"`repro gather` first"
        )
    store = DocumentStore.load_jsonl(store_path)
    index_path = workspace / INDEX_FILE
    if index_path.exists():
        from repro.search.index import InvertedIndex

        engine = SearchEngine(
            index=InvertedIndex.load(index_path), tracer=tracer
        )
    else:
        engine = SearchEngine(tracer=tracer)
        engine.add_documents(
            (document.doc_id, document.text, document.title)
            for document in store
        )
    return Etap(store=store, engine=engine, config=config, tracer=tracer)


def _maybe_faulty(web, args: argparse.Namespace):
    """Wrap the web in seeded fault injection when requested."""
    name = getattr(args, "fault_profile", "none")
    if name == "none":
        return web
    return FaultyWeb(web, get_profile(name), seed=args.seed)


def _degradation_note(report) -> str:
    """One-line fetch-degradation summary for a gather report."""
    if not (report.pages_retried or report.pages_failed
            or report.pages_degraded):
        return ""
    return (
        f" [degraded: {report.pages_retried} retries, "
        f"{report.pages_failed} failed, "
        f"{report.pages_degraded} degraded pages, "
        f"{report.dead_letters} dead-lettered]"
    )


def _load_slos(value: str | None):
    """SLO specs from a config path, or the committed defaults."""
    if not value or value == "default":
        return default_slos()
    return load_slo_config(value)


def _serve_queries() -> list[str]:
    """The portal query mix every load-driving subcommand uses."""
    return [
        query
        for driver in builtin_drivers()
        for query in driver.smart_queries
    ] + ["acquisition", "revenue growth", "new ceo appointment"]


def _health_monitor(
    specs,
    tracer,
    etap=None,
    gather_report=None,
    portal=None,
    processor=None,
) -> HealthMonitor:
    """Assemble the standard monitor: SLO engine + component probes."""
    engine = SloEngine(specs, tracer)
    monitor = HealthMonitor(engine, tracer=tracer)
    if gather_report is not None:
        monitor.register("ingest", gather_probe(gather_report))
    gatherer = getattr(etap, "_gatherer", None) if etap else None
    if gatherer is not None and gatherer.fetcher is not None:
        monitor.register("fetch", fetcher_probe(gatherer.fetcher))
    if portal is not None:
        monitor.register("serve", portal_probe(portal))
    if processor is not None:
        monitor.register("stream", processor_probe(processor))
    return monitor


def _config_from_args(args: argparse.Namespace) -> EtapConfig:
    return EtapConfig(
        top_k_per_query=getattr(args, "top_k", 200),
        negative_sample_size=getattr(args, "negatives", 6000),
        workers=getattr(args, "workers", 1),
    )


# -- subcommands --------------------------------------------------------------

def cmd_gather(args: argparse.Namespace) -> int:
    workspace = _workspace(args.workspace)
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web, config=EtapConfig(workers=args.workers), tracer=args.tracer
    )
    report = etap.gather()
    etap.store.save_jsonl(workspace / STORE_FILE)
    etap.engine.index.save(workspace / INDEX_FILE)
    print(f"gathered {report.documents_stored} documents "
          f"({report.pages_fetched} pages) -> "
          f"{workspace / STORE_FILE}"
          f"{_degradation_note(report)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    workspace = _workspace(args.workspace)
    etap = _load_etap(workspace, _config_from_args(args), args.tracer)
    summaries = etap.train()
    paths = save_classifiers(etap.classifiers, workspace / MODELS_DIR)
    rows = [
        [
            summary.driver_id,
            summary.n_noisy_positive,
            summary.n_noisy_kept,
            summary.n_negative,
            summary.n_features,
        ]
        for summary in summaries.values()
    ]
    print(ascii_table(
        ["Driver", "Noisy+", "Kept", "Negatives", "Features"], rows
    ))
    print(f"saved {len(paths)} classifiers -> {workspace / MODELS_DIR}")
    return 0


def _load_trained_etap(args: argparse.Namespace) -> Etap:
    workspace = _workspace(args.workspace)
    etap = _load_etap(workspace, _config_from_args(args), args.tracer)
    classifiers = load_classifiers(
        workspace / MODELS_DIR, etap.text_engine
    )
    if not classifiers:
        raise SystemExit(
            f"no trained classifiers in {workspace / MODELS_DIR}; run "
            f"`repro train` first"
        )
    etap.classifiers = classifiers
    return etap


def cmd_extract(args: argparse.Namespace) -> int:
    etap = _load_trained_etap(args)
    events = etap.extract_trigger_events(threshold=args.threshold)
    driver_ids = (
        [args.driver] if args.driver else sorted(events)
    )
    for driver_id in driver_ids:
        if driver_id not in events:
            raise SystemExit(f"unknown driver {driver_id!r}; "
                             f"trained: {sorted(events)}")
        print(f"\n== {driver_id} "
              f"({len(events[driver_id])} trigger events) ==")
        rows = [
            [
                event.rank,
                format_float(event.score),
                ", ".join(event.companies) or "-",
                event.text[:70],
            ]
            for event in events[driver_id][: args.top]
        ]
        print(ascii_table(["Rank", "Score", "Companies", "Snippet"],
                          rows))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    etap = _load_trained_etap(args)
    events = etap.extract_trigger_events()
    industry = None
    if args.industry:
        from repro.core.industry import get_industry

        industry = get_industry(args.industry)
    leads = etap.company_report(events, industry=industry)
    rows = [
        [
            position,
            etap.normalizer.display_name(lead.company),
            format_float(lead.mrr),
            lead.n_trigger_events,
        ]
        for position, lead in enumerate(leads[: args.top], start=1)
    ]
    print(ascii_table(["#", "Company", "MRR", "Trigger events"], rows))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=args.tracer,
    )
    report = etap.gather()
    note = _degradation_note(report)
    if note:
        print(f"gathered {report.documents_stored} documents{note}")
    etap.train()
    events = etap.extract_trigger_events()
    print("trigger events per driver:")
    for driver in builtin_drivers():
        driver_events = events[driver.driver_id]
        best = driver_events[0].text[:60] if driver_events else "-"
        print(f"  {driver.name:24s} {len(driver_events):4d}  "
              f"top: {best}")
    print("\ntop leads (Equation 2 MRR):")
    for position, lead in enumerate(
        etap.company_report(events)[:5], start=1
    ):
        print(f"  {position}. "
              f"{etap.normalizer.display_name(lead.company):24s}"
              f" MRR={lead.mrr:.3f} ({lead.n_trigger_events} events)")
    if args.cycles > 0:
        _demo_alert_cycles(args, etap, web)
    return 0


def _demo_alert_cycles(
    args: argparse.Namespace, etap: Etap, web
) -> int:
    """Evolve the web and poll the alert service ``--cycles`` times."""
    from repro.core.alerts import AlertService
    from repro.corpus.evolve import WebEvolver

    service = AlertService(etap, threshold=args.alert_threshold)
    evolver = WebEvolver(web, CorpusConfig(seed=args.seed + 1))
    print("\nalert cycles:")
    for cycle in range(1, args.cycles + 1):
        evolver.advance(args.new_docs)
        report = service.poll()
        print(f"  cycle {cycle}: {report.new_documents} new docs -> "
              f"{len(report.alerts)} alerts")
        for alert in report.alerts[:5]:
            companies = ", ".join(alert.event.companies) or "-"
            print(f"    {alert.alert_id}  [{alert.score:.2f}] "
                  f"{alert.driver_id}  ({companies})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.corpus.stats import compute_stats, render_stats

    generator = CorpusGenerator(CorpusConfig(seed=args.seed))
    stats = compute_stats(generator.generate(args.docs))
    print(render_stats(stats))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.evaluation.datasets import DatasetSpec
    from repro.evaluation.report import write_report

    spec = (
        DatasetSpec() if args.scale == "full" else DatasetSpec.small()
    )
    fault_profile = getattr(args, "fault_profile", "none")
    if fault_profile != "none":
        spec = dataclasses.replace(spec, fault_profile=fault_profile)
    workers = getattr(args, "workers", 1)
    if workers != 1:
        spec = dataclasses.replace(
            spec,
            config=dataclasses.replace(spec.config, workers=workers),
        )
    path = write_report(args.out, spec=spec)
    print(f"wrote reproduction report -> {path}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Render one alert's provenance chain from a recorded event log."""
    path = Path(args.events)
    if not path.exists():
        raise SystemExit(f"no event log at {path}; record one with "
                         f"`repro demo --record {path} --cycles 1`")
    graph = ProvenanceGraph.from_events(read_events(path))
    try:
        chain = graph.explain(args.alert_id)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from None
    print(chain.render())
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Tail/filter a recorded event log, or schema-validate it."""
    if not args.validate and not args.file:
        raise SystemExit("pass --file LOG to read or --validate LOG "
                         "to schema-check")
    path = Path(args.validate if args.validate else args.file)
    if not path.exists():
        raise SystemExit(f"no event log at {path}")
    if args.validate:
        with path.open("r", encoding="utf-8") as handle:
            problems = validate_jsonl(handle)
        if problems:
            for lineno, error in problems:
                print(f"{path}:{lineno}: {error}", file=sys.stderr)
            print(f"{len(problems)} schema problem(s)", file=sys.stderr)
            return 1
        n_lines = sum(
            1 for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        )
        print(f"{path}: {n_lines} events OK (schema v1)")
        return 0
    events = read_events(path)
    if args.type:
        events = [e for e in events if e.event_type == args.type]
    if args.tail:
        events = events[-args.tail:]
    for event in events:
        print(event.to_json())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the demo pipeline and dump Prometheus-format metrics.

    With ``--watch N`` the command keeps the pipeline alive after the
    first dump: every N seconds (for ``--rounds`` rounds) it evolves
    the web, polls the alert service, and re-renders — so a live run is
    inspectable without a separate exporter.  Windowed-rate/quantile
    gauges and stream/serve rollups ride along via
    :func:`~repro.obs.export.derive_gauges`.
    """
    tracer = args.tracer
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=tracer,
    )
    etap.gather()
    etap.train()
    events = etap.extract_trigger_events()
    etap.company_report(events)

    def render() -> None:
        text = prometheus_text(
            tracer.registry,
            gauges=derive_gauges(tracer.registry, tracer=tracer),
        )
        parse_prometheus_text(text)  # self-check: must be parseable
        print(text, end="")

    render()
    if args.watch is None:
        return 0

    import time

    from repro.core.alerts import AlertService
    from repro.corpus.evolve import WebEvolver

    service = AlertService(etap)
    evolver = WebEvolver(web, CorpusConfig(seed=args.seed + 1))
    for round_no in range(1, args.rounds + 1):
        if args.watch > 0:
            time.sleep(args.watch)
        evolver.advance(args.new_docs)
        report = service.poll()
        tracer.windows.record("metrics.alerts", n=len(report.alerts))
        print(f"# watch round {round_no}: {report.new_documents} new "
              f"docs, {len(report.alerts)} alerts")
        render()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Gather a corpus, stand up the portal, and drive seeded load."""
    from repro.serve import AlertPortal, LoadGenerator

    tracer = args.tracer
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web, config=EtapConfig(workers=args.workers), tracer=tracer
    )
    report = etap.gather()
    note = _degradation_note(report)
    print(f"gathered {report.documents_stored} documents{note}")
    with AlertPortal.from_etap(
        etap,
        n_shards=args.shards,
        n_replicas=args.replicas,
        hedge_after=args.hedge_after,
        hedging=not args.no_hedging,
    ) as portal:
        for spec in args.kill_replica:
            try:
                shard_text, replica_text = spec.split(":", 1)
                shard, replica = int(shard_text), int(replica_text)
            except ValueError:
                print(f"bad --kill-replica {spec!r}; expected S:R")
                return 2
            if args.replicas <= 1:
                print("--kill-replica requires --replicas > 1")
                return 2
            portal.kill_replica(shard, replica)
            print(f"killed replica shard{shard}/r{replica}")
        queries = _serve_queries()
        generator = LoadGenerator(
            portal,
            queries,
            n_clients=args.clients,
            n_queries=args.queries,
            seed=args.seed,
        )
        load = generator.run()
        payload = load.to_dict()
        # A replicated portal times queries in the router's simulated
        # ticks, not wall time.
        unit = "ms, simulated ticks" if portal.router is not None else "ms"
        print(ascii_table(
            ["Metric", "Value"],
            [
                ["queries served", payload["n_queries"]],
                ["clients", payload["n_clients"]],
                ["QPS", payload["qps"]],
                [f"p50 latency ({unit})", payload["p50_ms"]],
                [f"p99 latency ({unit})", payload["p99_ms"]],
                ["cache hit rate",
                 format_float(payload["cache_hit_rate"])],
                ["shard docs",
                 "/".join(str(n) for n in payload["shard_docs"])],
                ["shard balance (max/mean)",
                 format_float(payload["shard_balance"])],
                ["index generation", payload["generation"]],
                ["statuses",
                 ", ".join(f"{status}={count}" for status, count
                           in payload["statuses"].items())],
            ],
        ))
        if portal.replicas is not None:
            replica_stats = portal.replicas.stats()
            print("\nreplica groups:")
            for group in replica_stats["groups"]:
                print(
                    f"  shard{group['shard']}: "
                    f"{group['up']}/{group['n_replicas']} up, "
                    f"gen {group['latest_generation']}, "
                    f"max lag {group['max_lag']}, "
                    f"breakers open {group['breakers_open']}"
                )
        slo_statuses = None
        if args.slo_config:
            monitor = _health_monitor(
                _load_slos(args.slo_config), tracer,
                etap=etap, gather_report=report, portal=portal,
            )
            health = monitor.rollup()
            slo_statuses = health.slos
            print("\n" + health.render())
            breaching = [s.name for s in health.slos if s.breaching]
            if breaching:
                print(f"slo breach(es): {', '.join(breaching)}")
        text = prometheus_text(
            tracer.registry,
            gauges=derive_gauges(
                tracer.registry, tracer=tracer, portal=portal,
                slo_statuses=slo_statuses,
            ),
        )
        parse_prometheus_text(text)  # self-check
        serve_lines = [
            line for line in text.splitlines()
            if "serve" in line and not line.startswith("#")
        ]
        if serve_lines:
            print("\nserve.* metrics:")
            for line in serve_lines:
                print(f"  {line}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the continuous streaming processor with WAL + checkpoints.

    The checkpoint directory is the unit of recovery: it holds the
    trained classifiers, the write-ahead log and the numbered
    checkpoints.  Re-running the command with the same corpus
    parameters and the same directory resumes where the previous
    process stopped — including after a ``--kill-after`` simulated
    crash (exit code 3).  See docs/STREAMING.md.
    """
    from repro.core.persistence import CheckpointStore, WriteAheadLog
    from repro.stream import (
        EvolvingWebStream,
        SimulatedCrash,
        StreamProcessor,
    )

    tracer = args.tracer
    checkpoint_dir = Path(args.checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    models_dir = checkpoint_dir / MODELS_DIR
    wal_path = checkpoint_dir / "wal.jsonl"
    checkpoints = CheckpointStore(checkpoint_dir / "checkpoints")

    # The base pipeline is a pure function of (--docs, --seed): the
    # resumed process rebuilds it deterministically, and classifiers
    # are persisted so resumes never retrain.
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=tracer,
    )
    gather_report = etap.gather()
    classifiers = load_classifiers(models_dir, etap.text_engine)
    if classifiers:
        etap.classifiers = classifiers
        print(f"loaded {len(classifiers)} classifiers "
              f"from {models_dir}")
    else:
        etap.train()
        save_classifiers(etap.classifiers, models_dir)
        print(f"trained and saved {len(etap.classifiers)} "
              f"classifiers -> {models_dir}")

    source = EvolvingWebStream(
        web,
        config=CorpusConfig(seed=args.seed + 1),
        docs_per_cycle=args.docs_per_cycle,
    )
    lateness = (
        None if args.allowed_lateness < 0 else args.allowed_lateness
    )
    wal = WriteAheadLog(wal_path, kill_after=args.kill_after)
    resuming = wal.last_seq >= 0 or checkpoints.latest() is not None
    if resuming:
        processor, info = StreamProcessor.resume(
            etap, wal, checkpoints,
            allowed_lateness=lateness,
            checkpoint_every=args.checkpoint_every,
            threshold=args.alert_threshold,
        )
        print(f"resumed from checkpoint "
              f"{info.checkpoint_id if info.checkpoint_id is not None else '-'} "
              f"at cycle {info.cycle} "
              f"({info.wal_records_replayed} WAL records replayed, "
              f"{len(info.recovered_alert_keys)} alerts already durable)")
        source.seek(info.cycle)
    else:
        processor = StreamProcessor(
            etap, wal=wal, checkpoints=checkpoints,
            allowed_lateness=lateness,
            checkpoint_every=args.checkpoint_every,
            threshold=args.alert_threshold,
        )
    with processor:
        try:
            while source.cycle < args.cycles:
                report = processor.process_batch(source.next_batch())
                marker = " [checkpoint]" if report.checkpointed else ""
                print(f"  cycle {report.cycle}: "
                      f"{report.n_ingested} ingested, "
                      f"{report.n_late} late, "
                      f"{len(report.alerts)} alerts, "
                      f"gen {report.generation}, "
                      f"watermark {report.watermark}{marker}")
                for alert in report.alerts[:3]:
                    companies = ", ".join(alert.companies) or "-"
                    recovered = " (recovered)" if alert.recovered else ""
                    print(f"    {alert.alert_id}  [{alert.score:.2f}] "
                          f"{alert.driver_id}  ({companies}){recovered}")
        except SimulatedCrash as crash:
            print(f"simulated crash after WAL record "
                  f"{crash.records_written}; re-run with the same "
                  f"--checkpoint-dir to resume", file=sys.stderr)
            return 3
    recovered = sum(1 for a in processor.alerts if a.recovered)
    print(f"stream done: cycle {processor.cycle}, "
          f"{len(processor.alerts)} alerts "
          f"({recovered} recovered), "
          f"{len(processor.late_arrivals)} late arrivals, "
          f"watermark {processor.watermark}, "
          f"index gen {processor.generation}")
    if source.dropped or source.degraded:
        print(f"  fetch degradation: {source.dropped} dropped, "
              f"{source.degraded} degraded pages excluded")
    if args.slo_config:
        monitor = _health_monitor(
            _load_slos(args.slo_config), tracer,
            etap=etap, gather_report=gather_report,
            processor=processor,
        )
        health = monitor.rollup()
        print("\n" + health.render())
        breaching = [s.name for s in health.slos if s.breaching]
        if breaching:
            print(f"slo breach(es): {', '.join(breaching)}")
    return 0


def _stand_up_portal(args: argparse.Namespace):
    """Gather a (possibly faulty) corpus and open a portal over it.

    Shared by ``repro health`` and ``repro top``: search-only serving
    needs no trained classifiers, so this is gather + index + portal.
    Returns ``(etap, gather report, portal)``; caller closes the
    portal.
    """
    from repro.serve import AlertPortal

    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed)), args
    )
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=args.tracer,
    )
    report = etap.gather()
    portal = AlertPortal.from_etap(etap, n_shards=args.shards)
    return etap, report, portal


def cmd_health(args: argparse.Namespace) -> int:
    """One-shot health rollup: gather, serve a load slice, evaluate.

    Exit code mirrors the overall status: 0 ok, 1 degraded,
    2 critical — scriptable as a readiness/chaos check.
    """
    import json as json_module

    from repro.serve import LoadGenerator

    etap, report, portal = _stand_up_portal(args)
    with portal:
        LoadGenerator(
            portal,
            _serve_queries(),
            n_clients=args.clients,
            n_queries=args.queries,
            seed=args.seed,
        ).run()
        monitor = _health_monitor(
            _load_slos(args.slo_config), args.tracer,
            etap=etap, gather_report=report, portal=portal,
        )
        health = monitor.rollup()
    if args.json:
        print(json_module.dumps(health.to_dict(), indent=2))
    else:
        print(health.render())
    return EXIT_CODES[health.status]


def _top_frame(
    round_no: int, windows, engine, portal, fetcher
) -> str:
    """One rendered console frame: QPS, latency, budgets, breakers."""
    stats = portal.stats()
    sketch = windows.sketch("serve.latency")
    budgets = engine.budgets()
    lines = [
        f"repro top — round {round_no}",
        f"  qps(60s): {windows.rate('serve.requests', 60.0):8.1f}   "
        f"p50: {sketch.quantile(0.5) * 1000:7.2f} ms   "
        f"p99: {sketch.quantile(0.99) * 1000:7.2f} ms",
        f"  cache hit rate: {stats['cache_hit_rate']:.2f}   "
        f"queue depth: {stats['queue_depth']}   "
        f"generation: {stats['generation']}",
        "  budgets remaining: "
        + "  ".join(
            f"{name}={remaining * 100:.0f}%"
            for name, remaining in budgets.items()
        ),
    ]
    if fetcher is not None:
        states = fetcher.breaker_states()
        open_hosts = sum(
            1 for state in states.values() if state == "open"
        )
        lines.append(
            f"  breakers: {len(states)} host(s), {open_hosts} open   "
            f"dead letters: {len(fetcher.dead_letters)}"
        )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live health console: periodic load + telemetry re-render."""
    import time

    from repro.serve import LoadGenerator

    etap, _, portal = _stand_up_portal(args)
    gatherer = getattr(etap, "_gatherer", None)
    fetcher = gatherer.fetcher if gatherer is not None else None
    engine = SloEngine(_load_slos(args.slo_config), args.tracer)
    clear = not args.no_clear and sys.stdout.isatty()
    queries = _serve_queries()
    with portal:
        for round_no in range(1, args.rounds + 1):
            LoadGenerator(
                portal,
                queries,
                n_clients=args.clients,
                n_queries=args.queries_per_round,
                seed=args.seed + round_no,
            ).run()
            engine.evaluate()
            frame = _top_frame(
                round_no, args.tracer.windows, engine, portal, fetcher
            )
            if clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            if args.refresh > 0 and round_no < args.rounds:
                time.sleep(args.refresh)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay the demo pipeline under a tracer; emit the report as JSON."""
    tracer = args.tracer
    web = build_web(args.docs, CorpusConfig(seed=args.seed))
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=tracer,
    )
    etap.gather()
    etap.train()
    events = etap.extract_trigger_events()
    etap.company_report(events)
    print(StageReport.from_tracer(tracer).to_json())
    return 0


# -- parser -------------------------------------------------------------------

def cmd_queries_plan(args: argparse.Namespace) -> int:
    """Plan smart-query portfolios against a gathered synthetic web."""
    from repro.core.drivers import available_driver_ids, get_driver
    from repro.queries.recipes import PlannerSettings, plan_portfolios

    driver_ids = args.drivers or available_driver_ids()
    try:
        drivers = [get_driver(driver_id) for driver_id in driver_ids]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    mix = dict(CorpusConfig().mix)
    from repro.corpus.generator import DOC_TYPE_FOR_DRIVER

    for driver in drivers:
        mix.setdefault(DOC_TYPE_FOR_DRIVER[driver.driver_id], 0.07)
    web = _maybe_faulty(
        build_web(args.docs, CorpusConfig(seed=args.seed, mix=mix)),
        args,
    )
    etap = Etap.from_web(
        web,
        drivers=drivers,
        config=EtapConfig(top_k_per_query=args.top_k),
        tracer=args.tracer,
    )
    report = etap.gather()
    print(f"gathered {report.documents_stored} documents "
          f"({report.pages_fetched} pages fetched)")
    plans = plan_portfolios(
        etap,
        PlannerSettings(
            budget=args.budget,
            top_k=args.top_k,
            max_queries=args.max_queries,
        ),
        tracer=args.tracer,
    )
    for plan in plans.values():
        planned, baseline = plan.planned, plan.baseline
        print(f"\n{plan.driver_id}  "
              f"(budget {planned.budget} pages, "
              f"{plan.n_candidates} candidates)")
        rows = [
            (
                item.evaluation.candidate.query,
                item.evaluation.candidate.source,
                format_float(item.marginal_gain, 1),
                str(item.marginal_cost),
                format_float(item.gain_per_page, 3),
                str(item.cumulative_cost),
            )
            for item in planned.selected
        ]
        print(ascii_table(
            ("query", "source", "gain", "cost", "gain/page", "cum"),
            rows,
        ))
        print(f"  planned:  {len(planned.selected)} queries, "
              f"cost {planned.total_cost}, "
              f"coverage {planned.coverage}, "
              f"P@B {planned.precision_at_budget:.3f}")
        print(f"  seeds:    {len(baseline.selected)} queries, "
              f"cost {baseline.total_cost}, "
              f"coverage {baseline.coverage}, "
              f"P@B {baseline.precision_at_budget:.3f}")
    return 0


def _load_recipe_or_exit(path: str):
    from repro.queries.recipes import RecipeError, load_recipe

    try:
        return load_recipe(path)
    except RecipeError as exc:
        print(str(exc), file=sys.stderr)
        return None


def cmd_recipe_run(args: argparse.Namespace) -> int:
    from repro.queries.recipes import run_recipe

    recipe = _load_recipe_or_exit(args.file)
    if recipe is None:
        return 2
    result = run_recipe(recipe, tracer=args.tracer, n_docs=args.docs)
    print(result.render())
    return 0


def cmd_recipe_validate(args: argparse.Namespace) -> int:
    recipe = _load_recipe_or_exit(args.file)
    if recipe is None:
        return 2
    print(f"recipe {recipe.name!r} is valid: "
          f"drivers={list(recipe.drivers)}, n_docs={recipe.n_docs}, "
          f"fault_profile={recipe.fault_profile}, "
          f"budget={recipe.planner.budget}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETAP: automatic sales lead generation "
                    "(ICDE 2006 reproduction)",
    )
    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile", action="store_true",
        help="trace the run and print a per-stage tree "
             "(wall-time, items, throughput) to stderr",
    )
    profiled.add_argument(
        "--record", metavar="FILE", default=None,
        help="turn on the flight recorder and write every pipeline "
             "event to FILE as JSONL",
    )
    faulty = argparse.ArgumentParser(add_help=False)
    faulty.add_argument(
        "--fault-profile", dest="fault_profile", default="none",
        choices=profile_names(),
        help="inject seeded fetch faults into the synthetic web "
             "(deterministic per seed; see docs/ROBUSTNESS.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gather = sub.add_parser("gather", parents=[profiled, faulty],
                            help="crawl a synthetic web into "
                                 "a workspace")
    gather.add_argument("--workspace", required=True)
    gather.add_argument("--docs", type=int, default=1500)
    gather.add_argument("--seed", type=int, default=7)
    gather.add_argument(
        "--workers", type=int, default=1,
        help="shard-owning ingestion processes (content-hash "
             "partitioned, deterministic merge); output is "
             "bit-identical for any value (see docs/PERFORMANCE.md)",
    )
    gather.set_defaults(func=cmd_gather)

    train = sub.add_parser("train", parents=[profiled],
                           help="train per-driver classifiers")
    train.add_argument("--workspace", required=True)
    train.add_argument("--top-k", type=int, default=200,
                       dest="top_k",
                       help="documents per smart query")
    train.add_argument("--negatives", type=int, default=6000)
    train.set_defaults(func=cmd_train)

    extract = sub.add_parser("extract", parents=[profiled],
                             help="extract + rank trigger events")
    extract.add_argument("--workspace", required=True)
    extract.add_argument("--driver", default=None)
    extract.add_argument("--top", type=int, default=10)
    extract.add_argument("--threshold", type=float, default=None)
    extract.set_defaults(func=cmd_extract)

    report = sub.add_parser("report", parents=[profiled],
                            help="company-level lead list "
                                 "(Equation 2)")
    report.add_argument("--workspace", required=True)
    report.add_argument("--top", type=int, default=15)
    report.add_argument(
        "--industry", default=None,
        help="weight drivers per industry profile (it, steel)",
    )
    report.set_defaults(func=cmd_report)

    demo = sub.add_parser("demo", parents=[profiled, faulty],
                          help="end-to-end demo, no workspace")
    demo.add_argument("--docs", type=int, default=800)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--cycles", type=int, default=0,
        help="after training, evolve the web and poll the alert "
             "service this many times (alerts land in --record)",
    )
    demo.add_argument("--new-docs", type=int, default=30,
                      dest="new_docs",
                      help="fresh documents published per cycle")
    demo.add_argument("--alert-threshold", type=float, default=0.9,
                      dest="alert_threshold")
    demo.set_defaults(func=cmd_demo)

    stats = sub.add_parser(
        "stats", parents=[profiled],
        help="corpus statistics of a generated web",
    )
    stats.add_argument("--docs", type=int, default=2000)
    stats.add_argument("--seed", type=int, default=7)
    stats.set_defaults(func=cmd_stats)

    reproduce = sub.add_parser(
        "reproduce", parents=[profiled, faulty],
        help="regenerate every paper table/figure into a Markdown "
             "report",
    )
    reproduce.add_argument("--out", required=True)
    reproduce.add_argument(
        "--scale", choices=["small", "full"], default="small",
        help="corpus scale: 'full' matches the paper's test counts",
    )
    reproduce.add_argument(
        "--workers", type=int, default=1,
        help="shard-owning ingestion processes; the report is "
             "bit-identical for any value",
    )
    reproduce.set_defaults(func=cmd_reproduce)

    serve = sub.add_parser(
        "serve", parents=[profiled, faulty],
        help="stand up the alert portal over a gathered corpus and "
             "drive seeded closed-loop query load (see "
             "docs/SERVING.md)",
    )
    serve.add_argument("--docs", type=int, default=800)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--queries", type=int, default=400,
                       help="total queries issued across all clients")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent closed-loop client threads")
    serve.add_argument(
        "--slo-config", default=None,
        help="evaluate SLOs after the stress run and print a health "
             "rollup ('default' for built-ins, or a yaml/json path)",
    )
    serve.add_argument("--shards", type=int, default=4,
                       help="doc-id hash partitions of the index "
                       "(one replica group each with --replicas > 1)")
    serve.add_argument(
        "--workers", type=int, default=1,
        help="shard-owning ingestion processes during gathering; "
             "served results are bit-identical for any value",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard group; >1 serves through the hedged "
             "router (docs/SERVING.md, replication section)",
    )
    serve.add_argument(
        "--hedge-after", type=float, default=0.05,
        help="hedge deadline in simulated ticks before a second "
             "replica is tried (requires --replicas > 1)",
    )
    serve.add_argument(
        "--no-hedging", action="store_true",
        help="disable hedged requests (tail latencies eat timeouts)",
    )
    serve.add_argument(
        "--kill-replica", action="append", default=[],
        metavar="SHARD:REPLICA",
        help="kill a replica before the load run (repeatable), e.g. "
             "--kill-replica 0:1",
    )
    serve.set_defaults(func=cmd_serve, observed=True)

    stream = sub.add_parser(
        "stream", parents=[profiled, faulty],
        help="continuously ingest an evolving web with WAL + "
             "checkpoint recovery (see docs/STREAMING.md)",
    )
    stream.add_argument("--docs", type=int, default=800,
                        help="base corpus size gathered before "
                             "streaming starts")
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument("--cycles", type=int, default=5,
                        help="publication cycles (micro-batches) to "
                             "consume, counted from cycle 1 — a resume "
                             "continues toward the same total")
    stream.add_argument("--docs-per-cycle", type=int, default=20,
                        dest="docs_per_cycle")
    stream.add_argument("--checkpoint-dir", required=True,
                        dest="checkpoint_dir",
                        help="durability root: classifiers, WAL and "
                             "checkpoints; re-run with the same "
                             "directory to resume")
    stream.add_argument("--checkpoint-every", type=int, default=1,
                        dest="checkpoint_every",
                        help="checkpoint every N committed cycles")
    stream.add_argument("--allowed-lateness", type=int, default=2,
                        dest="allowed_lateness",
                        help="watermark slack in days; late docs go to "
                             "the side channel (negative disables the "
                             "watermark entirely)")
    stream.add_argument("--kill-after", type=int, default=None,
                        dest="kill_after",
                        help="simulate a crash after N WAL records "
                             "(exit code 3; resume by re-running)")
    stream.add_argument("--alert-threshold", type=float, default=0.9,
                        dest="alert_threshold")
    stream.add_argument(
        "--slo-config", default=None,
        help="evaluate SLOs after the streaming run and print a "
             "health rollup ('default' for built-ins, or a path)",
    )
    stream.set_defaults(func=cmd_stream, observed=True)

    trace = sub.add_parser(
        "trace", parents=[profiled],
        help="replay the demo pipeline under a tracer and emit the "
             "stage report as JSON",
    )
    trace.add_argument("--docs", type=int, default=800)
    trace.add_argument("--seed", type=int, default=7)
    trace.set_defaults(func=cmd_trace, observed=True)

    explain = sub.add_parser(
        "explain",
        help="render an alert's full provenance chain (URL -> doc -> "
             "snippet -> features -> score -> rank) from an event log",
    )
    explain.add_argument("alert_id",
                         help="alert id printed by `repro demo --cycles`")
    explain.add_argument("--events", required=True,
                         help="JSONL event log written via --record")
    explain.set_defaults(func=cmd_explain)

    events = sub.add_parser(
        "events",
        help="tail/filter a recorded JSONL event log, or validate it "
             "against the event schema",
    )
    events.add_argument("--file", default=None,
                        help="JSONL event log to read")
    events.add_argument("--type", default=None,
                        help="only events of this type")
    events.add_argument("--tail", type=int, default=0,
                        help="only the last N matching events")
    events.add_argument("--validate", metavar="FILE", default=None,
                        help="schema-check FILE and exit non-zero on "
                             "any invalid record")
    events.set_defaults(func=cmd_events)

    metrics = sub.add_parser(
        "metrics", parents=[profiled, faulty],
        help="run the demo pipeline and dump its metrics in "
             "Prometheus text format",
    )
    metrics.add_argument("--docs", type=int, default=800)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="after the first dump, keep evolving the corpus and "
             "re-dump every SECONDS (0 to skip sleeping)",
    )
    metrics.add_argument("--rounds", type=int, default=2,
                         help="watch rounds to run before exiting")
    metrics.add_argument("--new-docs", type=int, default=30,
                         help="documents added to the corpus per "
                              "watch round")
    metrics.set_defaults(func=cmd_metrics, observed=True)

    health = sub.add_parser(
        "health", parents=[profiled, faulty],
        help="gather, serve a load slice, and print a one-shot "
             "ok/degraded/critical health rollup (exit code "
             "0/1/2 mirrors the status)",
    )
    health.add_argument("--docs", type=int, default=400)
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--queries", type=int, default=60,
                        help="portal queries to issue before the "
                             "rollup")
    health.add_argument("--clients", type=int, default=2)
    health.add_argument("--shards", type=int, default=2)
    health.add_argument(
        "--slo-config", default="default",
        help="'default' for built-in SLOs, or a yaml/json path",
    )
    health.add_argument("--json", action="store_true",
                        help="emit the rollup as JSON instead of text")
    health.set_defaults(func=cmd_health, observed=True)

    top = sub.add_parser(
        "top", parents=[profiled, faulty],
        help="live health console: per-round QPS, latency "
             "quantiles, cache hit rate, error budgets, breakers",
    )
    top.add_argument("--docs", type=int, default=400)
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--rounds", type=int, default=3,
                     help="frames to render before exiting")
    top.add_argument("--refresh", type=float, default=1.0,
                     help="seconds between frames (0 = no sleep)")
    top.add_argument("--queries-per-round", type=int, default=40,
                     help="portal queries issued per frame")
    top.add_argument("--clients", type=int, default=2)
    top.add_argument("--shards", type=int, default=2)
    top.add_argument(
        "--slo-config", default="default",
        help="'default' for built-in SLOs, or a yaml/json path",
    )
    top.add_argument("--no-clear", action="store_true",
                     help="never emit ANSI clear codes between frames")
    top.set_defaults(func=cmd_top, observed=True)

    queries = sub.add_parser(
        "queries",
        help="smart-query planner: candidate portfolios under a "
             "crawl budget (docs/QUERIES.md)",
    )
    queries_sub = queries.add_subparsers(
        dest="queries_command", required=True
    )
    plan = queries_sub.add_parser(
        "plan", parents=[profiled, faulty],
        help="generate, evaluate, and select query portfolios "
             "per driver",
    )
    plan.add_argument("--docs", type=int, default=600)
    plan.add_argument("--seed", type=int, default=7)
    plan.add_argument(
        "--driver", action="append", dest="drivers", default=None,
        metavar="DRIVER_ID",
        help="driver to plan (repeatable; default: all registered)",
    )
    plan.add_argument("--budget", type=int, default=200,
                      help="portfolio crawl budget in pages")
    plan.add_argument("--top-k", type=int, default=40, dest="top_k",
                      help="results fetched per candidate query")
    plan.add_argument("--max-queries", type=int, default=None,
                      dest="max_queries",
                      help="cap on portfolio size")
    plan.set_defaults(func=cmd_queries_plan)

    recipe = sub.add_parser(
        "recipe",
        help="saved scenario configs under configs/recipes/ "
             "(docs/QUERIES.md)",
    )
    recipe_sub = recipe.add_subparsers(
        dest="recipe_command", required=True
    )
    recipe_run = recipe_sub.add_parser(
        "run", parents=[profiled],
        help="execute a recipe end to end: gather, plan, train, "
             "extract, mint alerts",
    )
    recipe_run.add_argument("file", help="path to a recipe .yaml/.json")
    recipe_run.add_argument(
        "--docs", type=int, default=None,
        help="override the recipe's corpus size",
    )
    recipe_run.set_defaults(func=cmd_recipe_run)
    recipe_validate = recipe_sub.add_parser(
        "validate",
        help="schema-check a recipe file and report every problem",
    )
    recipe_validate.add_argument("file")
    recipe_validate.set_defaults(func=cmd_recipe_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    profiling = getattr(args, "profile", False)
    args.tracer = tracer = _handle(args)
    tracer.emit("run_started", command=args.command)
    try:
        # Only a profiled run wraps the command in a root span, so the
        # stage tree ``trace`` prints is the same with or without
        # ``--record``.
        with tracer.span(args.command) if profiling else nullcontext():
            code = args.func(args)
    finally:
        if tracer.recorder is not None:
            tracer.recorder.close()
    if tracer.recorder is not None:
        print(
            f"recorded {tracer.recorder.total_emitted} events -> "
            f"{args.record}",
            file=sys.stderr,
        )
    if profiling:
        print(
            StageReport.from_tracer(args.tracer).render(),
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
