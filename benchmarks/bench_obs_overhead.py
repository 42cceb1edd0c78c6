"""Flight-recorder overhead bench: pipeline with recorder on vs. off.

The recorder's contract is "zero overhead when off": every instrumented
call site emits through its tracer, which defaults to ``NULL_TRACER``,
whose ``emit`` is a single no-op method call.  This bench runs the same
seeded demo pipeline with the recorder off (the null tracer) and on (a
tracer carrying an :class:`~repro.obs.events.EventLog`, so spans and
counters ride along), records per-stage event counts and the wall
overhead of turning it on, and emits ``BENCH_obs.json`` so the claim is
tracked across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog
from repro.obs.tracer import NULL_TRACER, Tracer

#: Committed artifact; regenerating it is the point of the bench.
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_obs.json"

_CONFIG = dict(top_k_per_query=80, negative_sample_size=1500)


def _run_pipeline(n_docs: int, seed: int, tracer) -> float:
    """One full gather -> train -> extract -> rank run; returns wall s."""
    web = build_web(n_docs, CorpusConfig(seed=seed))
    start = time.perf_counter()
    etap = Etap.from_web(
        web, config=EtapConfig(**_CONFIG), tracer=tracer
    )
    etap.gather()
    etap.train()
    events = etap.extract_trigger_events()
    etap.company_report(events)
    return time.perf_counter() - start


def _null_emit_seconds(calls: int = 100_000) -> float:
    """Per-call cost of the recorder-off path (a no-op emit)."""
    start = time.perf_counter()
    for _ in range(calls):
        NULL_TRACER.emit("page_crawled", url="u", depth=0)
    return (time.perf_counter() - start) / calls


def measure(
    n_docs: int = 800,
    seed: int = 7,
    rounds: int = 3,
    out: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Run the comparison and (optionally) write ``BENCH_obs.json``."""
    off_times = []
    on_times = []
    recorder = None
    for round_ in range(rounds):
        off_times.append(_run_pipeline(n_docs, seed, NULL_TRACER))
        recorder = EventLog()
        on_times.append(
            _run_pipeline(n_docs, seed, Tracer(recorder=recorder))
        )

    off_s = min(off_times)
    on_s = min(on_times)
    payload = {
        "bench": "recorder_overhead",
        "n_docs": n_docs,
        "seed": seed,
        "rounds": rounds,
        "recorder_off_seconds": round(off_s, 4),
        "recorder_on_seconds": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s - 1.0, 4),
        "null_emit_seconds_per_call": _null_emit_seconds(),
        "events_emitted": recorder.total_emitted,
        "event_counts": recorder.counts(),
    }
    if out is not None:
        Path(out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return payload


def bench_recorder_overhead(benchmark):
    payload = benchmark.pedantic(
        measure, kwargs={"rounds": 1}, rounds=1, iterations=1
    )
    print(f"\nrecorder off: {payload['recorder_off_seconds']:.2f}s  "
          f"on: {payload['recorder_on_seconds']:.2f}s  "
          f"overhead: {payload['overhead_ratio'] * 100:+.1f}%")
    print(f"events emitted: {payload['events_emitted']}")
    for event_type, count in payload["event_counts"].items():
        print(f"  {event_type:20s} {count}")
    benchmark.extra_info.update(payload)
    # The recorder must stay cheap even when on; the off path is the
    # baseline itself (every call site defaults to the null tracer).
    assert payload["overhead_ratio"] < 0.5
    assert payload["null_emit_seconds_per_call"] < 5e-6


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
