"""SLO telemetry overhead bench: recording cost and sketch memory.

The windowed-telemetry contract mirrors the flight recorder's: when
telemetry is off (a tracer without windows, e.g. the default
:data:`~repro.obs.tracer.NULL_TRACER`) a record costs one
``tracer.windows is not None`` check; when on, a record is a couple of dict lookups
and float adds — cheap enough for per-request call sites.  The second
claim is memory: a :class:`QuantileSketch` must stay constant-size no
matter how many observations arrive, where the raw list it replaces
grows without bound.

Emits ``BENCH_slo.json`` with the measured per-call costs, the sketch
footprint at 1k vs 1M observations, and the raw-list footprint the
bounded :class:`~repro.obs.metrics.Histogram` avoids, so both claims
are tracked across PRs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.obs.metrics import Histogram
from repro.obs.slo import SloEngine, default_slos
from repro.obs.timeseries import QuantileSketch, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer

#: Committed artifact; regenerating it is the point of the bench.
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_slo.json"

#: Declared per-call floors (seconds) — validate_payload enforces them.
NULL_RECORD_FLOOR = 5e-6
REAL_RECORD_FLOOR = 5e-5
OBSERVE_FLOOR = 2e-4

#: A sketch may not grow measurably between 1k and 1M observations.
SKETCH_GROWTH_LIMIT = 1.01


def _per_call(func, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        func()
    return (time.perf_counter() - start) / calls


def _deep_bytes(obj, seen: set[int] | None = None) -> int:
    """Recursive ``sys.getsizeof`` over dicts/lists/tuples/slots."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_bytes(key, seen) + _deep_bytes(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_bytes(item, seen)
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                size += _deep_bytes(getattr(obj, slot), seen)
    if hasattr(obj, "__dict__"):
        size += _deep_bytes(vars(obj), seen)
    return size


def _record(tracer, name: str) -> None:
    """The instrumented call-site idiom: record only when windows are on."""
    windows = tracer.windows
    if windows is not None:
        windows.record(name)


def _sketch_bytes(n_observations: int) -> int:
    sketch = QuantileSketch()
    for i in range(n_observations):
        sketch.observe(float(i % 997) / 1000.0)
    return _deep_bytes(sketch)


def _raw_list_bytes(n_observations: int) -> int:
    """What the pre-spill ``Histogram.values`` idiom would hold."""
    values = [float(i % 997) / 1000.0 for i in range(n_observations)]
    return _deep_bytes(values)


def measure(
    n_observations: int = 1_000_000,
    timing_calls: int = 200_000,
    out: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Run the comparison and (optionally) write ``BENCH_slo.json``."""
    telemetry = Telemetry()
    tracer = Tracer(windows=telemetry)
    null_record = _per_call(
        lambda: _record(NULL_TRACER, "fetch.outcomes"), timing_calls
    )
    real_record = _per_call(
        lambda: _record(tracer, "fetch.outcomes"), timing_calls
    )
    observe_calls = max(1, timing_calls // 10)
    real_observe = _per_call(
        lambda: telemetry.observe("serve.latency", 0.01), observe_calls
    )

    # SLO evaluation cost over the populated hub (per render frame).
    engine = SloEngine(default_slos(), tracer)
    evaluate_seconds = _per_call(lambda: engine.evaluate(), 200)

    small_n = min(1_000, n_observations)
    sketch_small = _sketch_bytes(small_n)
    sketch_large = _sketch_bytes(n_observations)
    raw_large = _raw_list_bytes(n_observations)

    histogram = Histogram("bench")
    for i in range(n_observations):
        histogram.observe(float(i % 997))
    histogram_bytes = _deep_bytes(histogram)

    payload = {
        "bench": "slo_overhead",
        "n_observations": n_observations,
        "timing_calls": timing_calls,
        "null_record_seconds_per_call": null_record,
        "real_record_seconds_per_call": real_record,
        "real_observe_seconds_per_call": real_observe,
        "slo_evaluate_seconds_per_call": evaluate_seconds,
        "sketch_bytes_small": sketch_small,
        "sketch_bytes_large": sketch_large,
        "sketch_growth_ratio": round(sketch_large / sketch_small, 4),
        "raw_list_bytes_large": raw_large,
        "sketch_vs_raw_ratio": round(sketch_large / raw_large, 6),
        "histogram_bytes_large": histogram_bytes,
        "floors": {
            "null_record_seconds_per_call": NULL_RECORD_FLOOR,
            "real_record_seconds_per_call": REAL_RECORD_FLOOR,
            "real_observe_seconds_per_call": OBSERVE_FLOOR,
            "sketch_growth_limit": SKETCH_GROWTH_LIMIT,
        },
    }
    if out is not None:
        Path(out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return payload


def validate_payload(payload: dict) -> list[str]:
    """Floor checks shared by the bench, smoke tests, and CI."""
    errors = []
    if payload["null_record_seconds_per_call"] >= NULL_RECORD_FLOOR:
        errors.append(
            "telemetry-off record is not a no-op: "
            f"{payload['null_record_seconds_per_call']:.2e}s/call"
        )
    if payload["real_record_seconds_per_call"] >= REAL_RECORD_FLOOR:
        errors.append(
            "telemetry-on record too slow: "
            f"{payload['real_record_seconds_per_call']:.2e}s/call"
        )
    if payload["real_observe_seconds_per_call"] >= OBSERVE_FLOOR:
        errors.append(
            "telemetry-on observe too slow: "
            f"{payload['real_observe_seconds_per_call']:.2e}s/call"
        )
    if payload["sketch_growth_ratio"] > SKETCH_GROWTH_LIMIT:
        errors.append(
            "sketch is not constant-size: grew "
            f"{payload['sketch_growth_ratio']:.3f}x from "
            f"{payload['n_observations']} observations"
        )
    if payload["sketch_vs_raw_ratio"] > 0.05:
        errors.append(
            "sketch footprint is not small next to the raw list: "
            f"ratio {payload['sketch_vs_raw_ratio']:.4f}"
        )
    if (
        payload["histogram_bytes_large"]
        > 4 * payload["sketch_bytes_large"]
    ):
        errors.append(
            "bounded Histogram leaks memory past its spill threshold"
        )
    return errors


def bench_slo_recording_overhead(benchmark):
    payload = benchmark.pedantic(
        measure, kwargs={"out": None}, rounds=1, iterations=1
    )
    print(
        f"\nrecord: null {payload['null_record_seconds_per_call']:.2e}s"
        f"  real {payload['real_record_seconds_per_call']:.2e}s"
        f"  observe {payload['real_observe_seconds_per_call']:.2e}s"
    )
    print(
        f"sketch: {payload['sketch_bytes_large']} B at "
        f"{payload['n_observations']} obs "
        f"(raw list {payload['raw_list_bytes_large']} B, "
        f"ratio {payload['sketch_vs_raw_ratio']:.5f})"
    )
    benchmark.extra_info.update(payload)
    assert validate_payload(payload) == []


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
