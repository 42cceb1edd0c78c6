"""What observability costs: per-call floors, sketch memory, event counts."""

from __future__ import annotations

import sys
import time

from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram
from repro.obs.timeseries import QuantileSketch, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer


def per_call_seconds(func, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        func()
    return (time.perf_counter() - start) / calls


def deep_bytes(obj, seen: set[int] | None = None) -> int:
    """Recursive ``sys.getsizeof`` over containers, slots and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_bytes(key, seen) + deep_bytes(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_bytes(item, seen) for item in obj)
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                size += deep_bytes(getattr(obj, slot), seen)
    if hasattr(obj, "__dict__"):
        size += deep_bytes(vars(obj), seen)
    return size


def record(tracer, name: str) -> None:
    """The instrumented call-site idiom: record only when windows are on."""
    windows = tracer.windows
    if windows is not None:
        windows.record(name)


def test_recorder_off_emit_is_a_no_op():
    assert per_call_seconds(
        lambda: NULL_TRACER.emit("page_crawled", url="u", depth=0), 100_000
    ) < 5e-6


def test_windows_off_record_is_a_no_op():
    assert per_call_seconds(
        lambda: record(NULL_TRACER, "fetch.outcomes"), 20_000
    ) < 5e-6


def test_windows_on_record_and_observe_stay_cheap():
    telemetry = Telemetry()
    tracer = Tracer(windows=telemetry)
    assert per_call_seconds(
        lambda: record(tracer, "fetch.outcomes"), 20_000
    ) < 5e-5
    assert per_call_seconds(
        lambda: telemetry.observe("serve.latency", 0.01), 2_000
    ) < 2e-4


def test_sketch_and_histogram_stay_constant_size():
    values = [float(i % 997) / 1000.0 for i in range(10_000)]
    small, large = QuantileSketch(), QuantileSketch()
    histogram = Histogram("h")
    for value in values[:1_000]:
        small.observe(value)
    for value in values:
        large.observe(value)
        histogram.observe(value)
    assert deep_bytes(large) <= 1.01 * deep_bytes(small)
    assert deep_bytes(large) <= 0.05 * deep_bytes(values)
    assert deep_bytes(histogram) <= 4 * deep_bytes(large)


def test_recorded_gather_and_train_emit_every_stage():
    recorder = EventLog()
    etap = Etap.from_web(
        build_web(200, CorpusConfig(seed=7)),
        config=EtapConfig(top_k_per_query=80, negative_sample_size=1500),
        tracer=Tracer(recorder=recorder),
    )
    etap.gather()
    etap.train()
    counts = recorder.counts()
    assert counts["page_crawled"] > 0
    assert counts["model_trained"] == 3
    assert recorder.total_emitted == sum(counts.values())
