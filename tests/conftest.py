"""Shared fixtures.

Expensive artifacts (synthetic web, gathered ETAP, evaluation dataset)
are session-scoped: integration tests across files reuse one instance.
"""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.evaluation.datasets import DatasetSpec, build_evaluation_dataset
from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer
from repro.text.annotator import Annotator


@pytest.fixture(scope="session")
def small_web():
    return build_web(300, CorpusConfig(seed=11))


@pytest.fixture(scope="session")
def annotator():
    return Annotator()


@pytest.fixture(scope="session")
def small_dataset():
    """The DatasetSpec.small() evaluation setup, built once per session."""
    return build_evaluation_dataset(DatasetSpec.small())


@pytest.fixture(scope="session")
def trained_etap(small_dataset):
    """ETAP with classifiers trained for all three drivers."""
    etap = small_dataset.etap
    if not etap.classifiers:
        etap.train(pure_positive=small_dataset.pure_positive)
    return etap


@pytest.fixture
def fake_clock_cli(monkeypatch):
    """Run ``repro.cli.main`` on a hand-cranked clock.

    The CLI's one handle becomes a FakeClock :class:`Tracer` with
    windows (and the flight recorder under ``--record``), so every
    latency, window and verdict of the run sits on a clock no
    wall-clock pause can move.  Returns the clock.
    """
    clock = FakeClock()

    def handle(args):
        recording = getattr(args, "record", None)
        return Tracer(
            clock=clock,
            recorder=EventLog(sink=recording) if recording else None,
            windows=Telemetry(),
        )

    monkeypatch.setattr("repro.cli._handle", handle)
    return clock
