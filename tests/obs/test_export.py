"""Prometheus exporter tests: render, parse, and derived gauges."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.obs.export import (
    derive_gauges,
    parse_prometheus_text,
    prometheus_text,
    sanitize_metric_name,
)
from repro.obs.metrics import Registry
from repro.obs.tracer import Tracer


class TestSanitize:
    def test_passthrough_for_legal_names(self):
        assert sanitize_metric_name("gather_docs_total") == (
            "gather_docs_total"
        )

    def test_dots_and_brackets_become_underscores(self):
        assert sanitize_metric_name("train.fit[mergers]") == (
            "train_fit_mergers_"
        )

    def test_leading_digit_gets_prefixed(self):
        name = sanitize_metric_name("9lives")
        assert name.startswith("_")
        assert parse_prometheus_text(f"{name} 1")


class TestRenderAndParse:
    def test_counter_round_trip(self):
        registry = Registry()
        registry.count("gather.documents_stored", 42)
        text = prometheus_text(registry)
        samples = parse_prometheus_text(text)
        assert samples[("repro_gather_documents_stored", ())] == 42.0
        assert "# TYPE repro_gather_documents_stored counter" in text

    def test_histogram_exports_as_summary(self):
        registry = Registry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("fetch_seconds", value)
        text = prometheus_text(registry)
        samples = parse_prometheus_text(text)
        assert samples[("repro_fetch_seconds_sum", ())] == 10.0
        assert samples[("repro_fetch_seconds_count", ())] == 4.0
        quantile_keys = [
            key for key in samples if key[0] == "repro_fetch_seconds"
        ]
        assert {labels for _, labels in quantile_keys} == {
            (("quantile", "0.50"),),
            (("quantile", "0.95"),),
        }
        assert "# TYPE repro_fetch_seconds summary" in text

    def test_labeled_gauges_round_trip(self):
        text = prometheus_text(
            Registry(),
            gauges={
                'positive_rate{driver="mergers"}': 0.25,
                'positive_rate{driver="change_in_management"}': 0.5,
                "dedup_ratio": 0.1,
            },
        )
        samples = parse_prometheus_text(text)
        assert samples[
            ("repro_positive_rate", (("driver", "mergers"),))
        ] == 0.25
        assert samples[
            ("repro_positive_rate", (("driver", "change_in_management"),))
        ] == 0.5
        assert samples[("repro_dedup_ratio", ())] == 0.1
        # One TYPE line per metric family, not per sample.
        assert text.count("# TYPE repro_positive_rate gauge") == 1

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_prometheus_text("this is { not metrics\n")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus_text("ok_name not_a_number\n")
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus_text('name{driver=unquoted} 1\n')

    def test_parser_skips_comments_and_blanks(self):
        assert parse_prometheus_text("# HELP x y\n\n# TYPE x counter\n") == {}


class TestDeriveGauges:
    def test_dedup_ratio_from_counters(self):
        registry = Registry()
        registry.count("gather.documents_stored", 80)
        registry.count("gather.duplicates_skipped", 20)
        gauges = derive_gauges(registry)
        assert gauges["dedup_ratio"] == pytest.approx(0.2)

    def test_no_dedup_ratio_without_traffic(self):
        assert "dedup_ratio" not in derive_gauges(Registry())

    def test_per_driver_positive_rate(self):
        registry = Registry()
        registry.count("extract.scored[mergers]", 200)
        registry.count("extract.flagged[mergers]", 10)
        registry.count("extract.scored[revenue_growth]", 100)
        registry.count("extract.flagged[revenue_growth]", 25)
        gauges = derive_gauges(registry)
        assert gauges['positive_rate{driver="mergers"}'] == 0.05
        assert gauges['positive_rate{driver="revenue_growth"}'] == 0.25

    def test_ingest_memory_per_doc_gauge(self):
        registry = Registry()
        registry.count("gather.documents_stored", 50)
        registry.count("ingest.memory_bytes", 125_000)
        gauges = derive_gauges(registry)
        assert gauges["ingest_memory_bytes_per_doc"] == pytest.approx(
            2500.0
        )

    def test_no_memory_gauge_without_counters(self):
        registry = Registry()
        registry.count("gather.documents_stored", 50)
        assert "ingest_memory_bytes_per_doc" not in derive_gauges(
            registry
        )

    def test_per_shard_doc_gauges(self):
        registry = Registry()
        registry.count("ingest.shard_docs[0]", 26)
        registry.count("ingest.shard_docs[1]", 24)
        gauges = derive_gauges(registry)
        assert gauges['ingest_shard_docs{shard="0"}'] == 26.0
        assert gauges['ingest_shard_docs{shard="1"}'] == 24.0

    def test_event_log_gauge(self):
        log = EventLog()
        log.emit("run_started", command="demo")
        gauges = derive_gauges(Registry(), tracer=Tracer(recorder=log))
        assert gauges["events_emitted"] == 1.0

    def test_everything_renders_and_parses(self):
        registry = Registry()
        registry.count("extract.scored[mergers]", 10)
        registry.count("extract.flagged[mergers]", 1)
        registry.count("gather.documents_stored", 9)
        registry.count("gather.duplicates_skipped", 1)
        text = prometheus_text(registry, gauges=derive_gauges(registry))
        samples = parse_prometheus_text(text)
        assert ("repro_dedup_ratio", ()) in samples
        assert (
            "repro_positive_rate",
            (("driver", "mergers"),),
        ) in samples
