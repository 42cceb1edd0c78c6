"""CLI tests: the gather -> train -> extract -> report workflow."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("etap-ws")
    code = main([
        "gather", "--workspace", str(ws), "--docs", "500",
        "--seed", "3",
    ])
    assert code == 0
    code = main([
        "train", "--workspace", str(ws),
        "--top-k", "60", "--negatives", "1000",
    ])
    assert code == 0
    return ws


class TestGather:
    def test_store_written(self, workspace):
        assert (workspace / "store.jsonl").exists()

    def test_gather_output(self, workspace, capsys):
        main(["gather", "--workspace", str(workspace), "--docs", "100"])
        out = capsys.readouterr().out
        assert "gathered 100 documents" in out
        # Restore the 500-doc store for the later stages.
        main([
            "gather", "--workspace", str(workspace), "--docs", "500",
            "--seed", "3",
        ])


class TestTrain:
    def test_models_written(self, workspace):
        models = list((workspace / "models").glob("*.classifier.json"))
        assert len(models) == 3

    def test_train_before_gather_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--workspace", str(tmp_path / "empty")])


class TestExtract:
    def test_extract_all_drivers(self, workspace, capsys):
        code = main([
            "extract", "--workspace", str(workspace), "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mergers_acquisitions" in out
        assert "change_in_management" in out
        assert "Rank" in out

    def test_extract_single_driver(self, workspace, capsys):
        code = main([
            "extract", "--workspace", str(workspace),
            "--driver", "revenue_growth", "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "revenue_growth" in out
        assert "mergers_acquisitions" not in out

    def test_unknown_driver_fails(self, workspace):
        with pytest.raises(SystemExit):
            main([
                "extract", "--workspace", str(workspace),
                "--driver", "steel_output",
            ])

    def test_extract_before_train_fails(self, tmp_path, capsys):
        ws = tmp_path / "fresh"
        main(["gather", "--workspace", str(ws), "--docs", "50"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["extract", "--workspace", str(ws)])


class TestReport:
    def test_company_report(self, workspace, capsys):
        code = main([
            "report", "--workspace", str(workspace), "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        assert "Company" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--docs", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trigger events per driver" in out
        assert "top leads" in out


class TestParser:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_available(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestStats:
    def test_stats_output(self, capsys):
        code = main(["stats", "--docs", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "documents:           200" in out
        assert "trigger documents:" in out


class TestReproduce:
    def test_reproduce_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main([
            "reproduce", "--out", str(out_path), "--scale", "small",
        ])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert "Table 1" in text
        assert "Figure 8" in text


class TestTrace:
    def test_trace_emits_valid_json(self, capsys):
        import json

        code = main(["trace", "--docs", "300"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        span_names = [span["name"] for span in payload["spans"]]
        assert "gather" in span_names
        assert "train" in span_names
        assert "extract" in span_names
        for span in payload["spans"]:
            assert span["seconds"] > 0
        assert payload["counters"]["crawl.pages_fetched"] > 0
        assert "engine.search_seconds" in payload["histograms"]


class TestProfileFlag:
    """``--profile`` prints a per-stage tree to stderr, everywhere."""

    @staticmethod
    def _stderr_tree(capsys):
        err = capsys.readouterr().err
        assert err.startswith("stage"), err
        assert "wall s" in err
        assert "items/s" in err
        return err

    def test_demo_profile_prints_stage_tree(self, capsys):
        code = main(["demo", "--docs", "300", "--profile"])
        assert code == 0
        tree = self._stderr_tree(capsys)
        for stage in (
            "gather.crawl",
            "train.negative_sample",
            "extract.annotate",
            "rank.companies",
        ):
            assert stage in tree

    def test_gather_profile(self, tmp_path, capsys):
        code = main([
            "gather", "--workspace", str(tmp_path / "ws"),
            "--docs", "100", "--profile",
        ])
        assert code == 0
        tree = self._stderr_tree(capsys)
        assert "gather.crawl" in tree
        assert "crawl.pages_fetched" in tree

    def test_train_extract_report_profile(self, workspace, capsys):
        code = main([
            "train", "--workspace", str(workspace),
            "--top-k", "60", "--negatives", "1000", "--profile",
        ])
        assert code == 0
        assert "train.fit[" in self._stderr_tree(capsys)

        code = main([
            "extract", "--workspace", str(workspace), "--top", "2",
            "--profile",
        ])
        assert code == 0
        assert "extract.score[" in self._stderr_tree(capsys)

        code = main([
            "report", "--workspace", str(workspace), "--top", "3",
            "--profile",
        ])
        assert code == 0
        assert "rank.companies" in self._stderr_tree(capsys)

    def test_stats_profile(self, capsys):
        code = main(["stats", "--docs", "200", "--profile"])
        assert code == 0
        assert "stats" in self._stderr_tree(capsys)

    def test_trace_profile_tree_and_json(self, capsys):
        import json

        code = main(["trace", "--docs", "300", "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("stage")
        assert json.loads(captured.out)["spans"]

    def test_reproduce_accepts_profile_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "reproduce", "--out", "r.md", "--profile",
        ])
        assert args.profile is True
        assert args.scale == "small"

    def test_without_profile_stderr_is_clean(self, capsys):
        code = main(["stats", "--docs", "100"])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestIndexCache:
    def test_gather_writes_index_cache(self, workspace):
        assert (workspace / "index.npz").exists()

    def test_report_with_industry(self, workspace, capsys):
        code = main([
            "report", "--workspace", str(workspace),
            "--industry", "steel", "--top", "3",
        ])
        assert code == 0
        assert "MRR" in capsys.readouterr().out

    def test_report_with_unknown_industry(self, workspace):
        with pytest.raises(KeyError):
            main([
                "report", "--workspace", str(workspace),
                "--industry", "buggy-whips",
            ])


class TestFlightRecorder:
    """--record, events, explain, and metrics commands."""

    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rec") / "events.jsonl"
        code = main([
            "demo", "--docs", "300", "--seed", "7",
            "--cycles", "2", "--new-docs", "25",
            "--alert-threshold", "0.7",
            "--record", str(path),
        ])
        assert code == 0
        return path

    def test_recorded_log_validates(self, recording):
        from repro.obs.events import validate_jsonl

        lines = recording.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 100
        assert validate_jsonl(lines) == []

    def test_recorded_log_covers_the_pipeline(self, recording):
        from collections import Counter

        from repro.obs.events import read_events

        counts = Counter(e.event_type for e in read_events(recording))
        for event_type in (
            "run_started",
            "page_crawled",
            "doc_indexed",
            "search_executed",
            "model_trained",
            "snippet_scored",
            "trigger_classified",
            "company_ranked",
            "alert_emitted",
        ):
            assert counts[event_type] > 0, event_type

    def test_events_validate_command(self, recording, capsys):
        code = main(["events", "--validate", str(recording)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_events_validate_rejects_bad_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event_type": "nope"}\n', encoding="utf-8")
        code = main(["events", "--validate", str(bad)])
        assert code == 1
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_events_listing_and_filter(self, recording, capsys):
        code = main([
            "events", "--file", str(recording),
            "--type", "alert_emitted", "--tail", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(out) <= 5
        assert all("alert_emitted" in line for line in out)

    def test_events_without_source_fails(self):
        with pytest.raises(SystemExit):
            main(["events"])

    def test_explain_renders_full_chain(self, recording, capsys):
        from repro.obs.events import read_events

        alerts = [
            e for e in read_events(recording)
            if e.event_type == "alert_emitted"
        ]
        assert alerts, "demo run with cycles must emit alerts"
        alert_id = alerts[0].payload["alert_id"]
        code = main([
            "explain", alert_id, "--events", str(recording),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"alert {alert_id}" in out
        assert "driver" in out
        assert "snippet" in out
        assert "url http" in out

    def test_explain_unknown_alert_fails(self, recording):
        with pytest.raises(SystemExit):
            main(["explain", "bogus", "--events", str(recording)])

    def test_explain_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "explain", "x",
                "--events", str(tmp_path / "absent.jsonl"),
            ])

    def test_metrics_emits_prometheus_text(self, capsys):
        from repro.obs.export import parse_prometheus_text

        code = main(["metrics", "--docs", "300", "--seed", "7"])
        assert code == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        names = {name for name, _ in samples}
        assert "repro_crawl_pages_fetched" in names
        assert "repro_dedup_ratio" in names
        assert any(
            name == "repro_positive_rate" and labels
            for name, labels in samples
        )

    def test_metrics_includes_windowed_telemetry(self, capsys):
        from repro.obs.export import parse_prometheus_text

        code = main(["metrics", "--docs", "200", "--seed", "7"])
        assert code == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        windowed = {
            dict(labels).get("series")
            for name, labels in samples
            if name == "repro_window_rate"
        }
        assert "ingest.docs" in windowed
        assert "ingest.pages" in windowed

    def test_metrics_watch_redumps_each_round(self, capsys):
        code = main([
            "metrics", "--docs", "200", "--seed", "7",
            "--watch", "0", "--rounds", "2", "--new-docs", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# watch round") == 2
        # Each dump must still parse; the counters grow monotonically.
        from repro.obs.export import parse_prometheus_text

        dumps = out.split("# watch round")
        assert len(dumps) == 3
        first = parse_prometheus_text(dumps[0])
        last = parse_prometheus_text(
            "\n".join(dumps[-1].splitlines()[1:])
        )
        key = ("repro_gather_documents_stored", ())
        assert last[key] >= first[key]


class TestHealthCommand:
    """Verdicts on a FakeClock handle: a GC pause cannot decide p99."""

    def test_health_text_rollup(self, fake_clock_cli, capsys):
        code = main([
            "health", "--docs", "200", "--seed", "7",
            "--queries", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out
        assert "fetch-availability" in out

    def test_health_accepts_committed_yaml_config(
        self, fake_clock_cli, capsys
    ):
        code = main([
            "health", "--docs", "200", "--seed", "7",
            "--queries", "20", "--slo-config", "configs/slos.yaml",
        ])
        assert code == 0
        assert "stream-freshness" in capsys.readouterr().out


class TestServeSloConfig:
    def test_serve_prints_rollup_and_slo_gauges(self, capsys):
        from repro.obs.export import parse_prometheus_text

        code = main([
            "serve", "--docs", "150", "--seed", "7",
            "--queries", "30", "--clients", "2",
            "--slo-config", "default",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall:" in out
        # The serve.* metric dump carries the SLO budget/burn gauges.
        block = out.split("serve.* metrics:")[1]
        samples = parse_prometheus_text(block)
        slo_names = {
            dict(labels).get("slo")
            for name, labels in samples
            if name == "repro_slo_budget_remaining"
        }
        assert "serve-latency-p99" in slo_names


class TestReplicatedServe:
    def test_killed_replica_loses_no_query(self, capsys):
        code = main([
            "serve", "--docs", "200", "--queries", "60",
            "--replicas", "3", "--kill-replica", "0:1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "killed replica shard0/r1" in out
        assert "ok=60" in out
        # The router answers in simulated ticks, and the table says so.
        assert "p50 latency (ms, simulated ticks)" in out
        assert "p99 latency (ms, simulated ticks)" in out
        groups = out.split("replica groups:")[1].split("serve.* metrics:")[0]
        assert "shard0: 2/3 up" in groups
        assert groups.count("3/3 up") == groups.count("shard") - 1
        assert "repro_serve_replica_kills 1" in out


class TestTopCommand:
    def test_top_renders_frames(self, capsys):
        code = main([
            "top", "--docs", "200", "--seed", "7", "--rounds", "2",
            "--refresh", "0", "--queries-per-round", "15",
            "--no-clear",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top — round") == 2
        assert "qps(60s):" in out
        assert "p99:" in out
        assert "budgets remaining:" in out
        assert "cache hit rate:" in out


class TestFaultProfile:
    """End-to-end `--fault-profile`: gather, validate events, metrics."""

    def test_gather_under_hostile_profile_completes_and_reports(
        self, tmp_path, capsys
    ):
        ws = tmp_path / "chaos-ws"
        log = tmp_path / "events.jsonl"
        code = main([
            "gather", "--workspace", str(ws), "--docs", "200",
            "--seed", "7", "--fault-profile", "hostile",
            "--record", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gathered" in out
        assert "[degraded:" in out, (
            "hostile gather printed no degradation note"
        )
        assert (ws / "store.jsonl").exists()
        # Every recorded event — including the new fetch_retry /
        # breaker_* / fetch_dead_letter kinds — passes schema checks.
        code = main(["events", "--validate", str(log)])
        assert code == 0
        assert "events OK" in capsys.readouterr().out

    def test_fault_events_appear_in_the_recording(self, tmp_path):
        from repro.obs.events import read_events

        ws = tmp_path / "chaos-ws"
        log = tmp_path / "events.jsonl"
        main([
            "gather", "--workspace", str(ws), "--docs", "200",
            "--seed", "7", "--fault-profile", "hostile",
            "--record", str(log),
        ])
        kinds = {event.event_type for event in read_events(log)}
        assert "fetch_retry" in kinds
        assert "fetch_dead_letter" in kinds

    def test_metrics_exports_fetch_counters(self, capsys):
        from repro.obs.export import parse_prometheus_text

        code = main([
            "metrics", "--docs", "200", "--seed", "7",
            "--fault-profile", "flaky",
        ])
        assert code == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        names = {name for name, _ in samples}
        assert "repro_fetch_attempts" in names
        assert "repro_fetch_retries" in names

    def test_unknown_profile_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "gather", "--workspace", str(tmp_path / "ws"),
                "--docs", "50", "--fault-profile", "nope",
            ])
