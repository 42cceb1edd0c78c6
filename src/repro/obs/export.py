"""Prometheus text-format export of the pipeline's metrics.

Turns a :class:`~repro.obs.metrics.Registry` (counters + histograms)
plus derived gauges into the Prometheus exposition text format, so a
long-running deployment can be scraped — or a one-shot run dumped with
``repro metrics`` — without any metrics-server dependency.

Counters export as ``counter``; histograms as ``summary`` (quantiles +
``_sum`` + ``_count``); everything else as ``gauge``.  Gauge names may
carry a label suffix (``positive_rate{driver="mergers"}``), which is
passed through verbatim after name sanitization.

:func:`parse_prometheus_text` is the inverse used by tests and the
``repro metrics`` self-check: a small strict parser of the exposition
format that rejects malformed lines.
"""

from __future__ import annotations

import re

from repro.obs.metrics import Registry
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import AnyTracer

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name to a legal Prometheus name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _split_labels(name: str) -> tuple[str, str]:
    """Split ``name{label="x"}`` into (bare name, label suffix)."""
    brace = name.find("{")
    if brace == -1:
        return name, ""
    return name[:brace], name[brace:]


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    registry: Registry,
    gauges: dict[str, float] | None = None,
    prefix: str = "repro",
) -> str:
    """Render the registry (and extra gauges) as exposition text."""
    lines: list[str] = []

    for name, value in registry.counters.items():
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, histogram in registry.histograms.items():
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for quantile in (50, 95):
            lines.append(
                f'{metric}{{quantile="0.{quantile}"}} '
                f"{_format_value(histogram.percentile(quantile))}"
            )
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {_format_value(histogram.count)}")

    for name, value in sorted((gauges or {}).items()):
        bare, labels = _split_labels(name)
        metric = f"{prefix}_{sanitize_metric_name(bare)}"
        type_line = f"# TYPE {metric} gauge"
        if type_line not in lines:
            lines.append(type_line)
        lines.append(f"{metric}{labels} {_format_value(value)}")

    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    Raises :class:`ValueError` on any line that is neither a comment
    nor a well-formed sample — the validation ``repro metrics`` relies
    on.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise ValueError(
                f"line {lineno}: not a valid sample: {line!r}"
            )
        labels: tuple[tuple[str, str], ...] = ()
        label_text = match.group("labels")
        if label_text:
            inner = label_text[1:-1].strip()
            if inner:
                parsed = _LABEL_RE.findall(inner)
                reconstructed = ",".join(
                    f'{k}="{v}"' for k, v in parsed
                )
                if reconstructed != inner.rstrip(","):
                    raise ValueError(
                        f"line {lineno}: malformed labels: {line!r}"
                    )
                labels = tuple(parsed)
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value: {line!r}"
            ) from exc
        samples[(match.group("name"), labels)] = value
    return samples


def telemetry_gauges(
    hub: Telemetry,
    windows: tuple[float, ...] = (60.0, 300.0),
) -> dict[str, float]:
    """Windowed-rate + quantile gauges from a Telemetry hub.

    * ``window_rate{series="...",window="60s"}`` — per-second event
      rate over each trailing window;
    * ``window_mean{series="...",window="60s"}`` — windowed mean value;
    * ``quantile{sketch="...",q="0.99"}`` — lifetime sketch quantiles.
    """
    gauges: dict[str, float] = {}
    now = hub.clock.now()
    for name in hub.series_names:
        series = hub.series(name)
        for seconds in windows:
            aggregate = series.window(seconds, now=now)
            suffix = f'series="{name}",window="{int(seconds)}s"'
            gauges[f"window_rate{{{suffix}}}"] = aggregate.rate
            if aggregate.count:
                gauges[f"window_mean{{{suffix}}}"] = aggregate.mean
    for name in hub.sketch_names:
        sketch = hub.sketch(name)
        for q in sketch.quantiles:
            gauges[f'quantile{{sketch="{name}",q="{q:g}"}}'] = (
                sketch.quantile(q)
            )
    return gauges


def slo_gauges(statuses) -> dict[str, float]:
    """Budget/burn gauges from :class:`~repro.obs.slo.SloStatus` list.

    * ``slo_budget_remaining{slo="..."}`` — error budget fraction left;
    * ``slo_burn_fast`` / ``slo_burn_slow{slo="..."}`` — burn rates;
    * ``slo_breaching{slo="..."}`` — 1 when paging, else 0.
    """
    gauges: dict[str, float] = {}
    for status in statuses:
        label = f'{{slo="{status.name}"}}'
        gauges[f"slo_budget_remaining{label}"] = status.budget_remaining
        gauges[f"slo_burn_fast{label}"] = status.burn_fast
        gauges[f"slo_burn_slow{label}"] = status.burn_slow
        gauges[f"slo_breaching{label}"] = 1.0 if status.breaching else 0.0
    return gauges


def derive_gauges(
    registry: Registry,
    tracer: AnyTracer | None = None,
    portal=None,
    slo_statuses=None,
    portfolios=None,
) -> dict[str, float]:
    """Pipeline-level gauges computed from recorded counters.

    * ``dedup_ratio`` — fraction of crawled article pages the store's
      exact content-hash dedup dropped;
    * ``ingest_memory_bytes_per_doc`` — resident store bytes per
      stored document, from the ``ingest.memory_bytes`` counter;
    * ``ingest_shard_docs{shard="..."}`` — documents owned by each
      ingestion shard worker (see :mod:`repro.gather.ingest`);
    * ``positive_rate{driver="..."}`` — flagged / scored snippets per
      driver, the classifier-drift headline number;
    * ``events_emitted`` — flight-recorder volume, when ``tracer``
      carries a recorder;
    * ``serve_cache_hit_rate`` / ``serve_rejection_rate`` — serving-
      layer health, from the ``serve.*`` counters;
    * ``serve_queue_depth`` / ``serve_generation`` /
      ``serve_shard_docs{shard="..."}`` — live portal state, when an
      :class:`~repro.serve.portal.AlertPortal` is provided;
    * ``stream_late_ratio`` / ``stream_dedup_ratio`` /
      ``stream_alerts_per_batch`` — streaming rollups from the
      ``stream.*`` counters;
    * ``queries_selection_rate`` — portfolio members per evaluated
      candidate, from the ``queries.*`` counters;
    * ``queries_portfolio_*{driver="..."}`` — per-driver planner
      results, when an iterable of
      :class:`~repro.queries.planner.Portfolio` is provided;
    * plus :func:`telemetry_gauges` when ``tracer`` carries windows
      and :func:`slo_gauges` when ``slo_statuses`` is given.
    """
    counters = registry.counters
    gauges: dict[str, float] = {}

    stored = counters.get("gather.documents_stored", 0)
    skipped = counters.get("gather.duplicates_skipped", 0)
    seen = stored + skipped
    if seen:
        gauges["dedup_ratio"] = skipped / seen

    memory = counters.get("ingest.memory_bytes", 0)
    if stored and memory:
        gauges["ingest_memory_bytes_per_doc"] = memory / stored

    for name, docs in counters.items():
        match = re.match(r"ingest\.shard_docs\[(.+)\]$", name)
        if match:
            gauges[f'ingest_shard_docs{{shard="{match.group(1)}"}}'] = (
                float(docs)
            )

    for name, flagged in counters.items():
        match = re.match(r"extract\.flagged\[(.+)\]$", name)
        if not match:
            continue
        driver_id = match.group(1)
        scored = counters.get(f"extract.scored[{driver_id}]", 0)
        if scored:
            gauges[f'positive_rate{{driver="{driver_id}"}}'] = (
                flagged / scored
            )

    recorder = None if tracer is None else tracer.recorder
    if recorder is not None:
        gauges["events_emitted"] = float(recorder.total_emitted)

    hits = counters.get("serve.cache_hits", 0)
    misses = counters.get("serve.cache_misses", 0)
    if hits + misses:
        gauges["serve_cache_hit_rate"] = hits / (hits + misses)
    admitted = counters.get("serve.admitted", 0)
    rejected = counters.get("serve.rejected", 0)
    if admitted + rejected:
        gauges["serve_rejection_rate"] = rejected / (
            admitted + rejected
        )

    if portal is not None:
        stats = portal.stats()
        gauges["serve_queue_depth"] = float(stats["queue_depth"])
        gauges["serve_generation"] = float(stats["generation"])
        for shard, n_docs in enumerate(stats["shard_docs"]):
            gauges[f'serve_shard_docs{{shard="{shard}"}}'] = float(
                n_docs
            )
        replicas = stats.get("replicas")
        if replicas:
            gauges["serve_replicas_per_shard"] = float(
                replicas["n_replicas"]
            )
            for group in replicas["groups"]:
                label = f'{{shard="{group["shard"]}"}}'
                gauges[f"serve_replicas_up{label}"] = float(
                    group["up"]
                )
                gauges[f"serve_replica_lag{label}"] = float(
                    group["max_lag"]
                )
                gauges[f"serve_replica_breakers_open{label}"] = float(
                    group["breakers_open"]
                )

    ingested = counters.get("stream.docs_ingested", 0)
    deduped = counters.get("stream.docs_deduped", 0)
    late = counters.get("stream.late_arrivals", 0)
    arrived = ingested + deduped + late
    if arrived:
        gauges["stream_late_ratio"] = late / arrived
        gauges["stream_dedup_ratio"] = deduped / arrived
    batches = counters.get("stream.batches", 0)
    if batches:
        gauges["stream_alerts_per_batch"] = (
            counters.get("stream.alerts_minted", 0) / batches
        )

    evaluated = counters.get("queries.candidates_evaluated", 0)
    if evaluated:
        gauges["queries_selection_rate"] = (
            counters.get("queries.queries_selected", 0) / evaluated
        )
    if portfolios is not None:
        for portfolio in portfolios:
            label = f'{{driver="{portfolio.driver_id}"}}'
            gauges[f"queries_portfolio_size{label}"] = float(
                len(portfolio.selected)
            )
            gauges[f"queries_portfolio_cost{label}"] = float(
                portfolio.total_cost
            )
            gauges[f"queries_portfolio_budget{label}"] = float(
                portfolio.budget
            )
            gauges[f"queries_portfolio_precision{label}"] = (
                portfolio.precision_at_budget
            )

    hub = None if tracer is None else tracer.windows
    if hub is not None:
        gauges.update(telemetry_gauges(hub))
    if slo_statuses is not None:
        gauges.update(slo_gauges(slo_statuses))

    return gauges
