"""Tier-1 smoke test for the paper-figure benches.

The ``benchmarks/`` scripts only run under ``pytest-benchmark`` against
session-scoped paper/medium datasets, so tier-1 runs never import them
— a refactor can silently break every bench.  This smoke test imports
every script and drives one at toy scale through a stub ``benchmark``
fixture, so the bench's imports, plumbing, and assertions stay honest.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Bench scripts import siblings (corpus_shape) by bare name, as
    # they do when pytest collects benchmarks/ directly.
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))
    return module


class StubBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture."""

    def __init__(self) -> None:
        self.extra_info: dict = {}

    def pedantic(self, func, args=(), kwargs=None, rounds=1,
                 iterations=1):
        return func(*args, **(kwargs or {}))

    def __call__(self, func, *args, **kwargs):
        return func(*args, **kwargs)


def test_fig8_bench_runs_at_toy_scale(trained_etap, small_dataset):
    module = _load_bench_module("bench_fig8_semantic_orientation")
    stub = StubBenchmark()
    # ``trained_etap`` is ``small_dataset.etap`` post-training, so the
    # bench runs the real extraction + re-ranking path at toy scale.
    module.bench_figure8_orientation(stub, small_dataset)
    assert stub.extra_info["n_events"] > 0


def test_all_benchmark_scripts_importable():
    """Every bench script must at least import against current APIs."""
    scripts = sorted(BENCHMARKS_DIR.glob("bench_*.py"))
    assert scripts, "no benchmark scripts found"
    for path in scripts:
        _load_bench_module(path.stem)
