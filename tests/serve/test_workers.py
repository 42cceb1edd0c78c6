"""WorkerPool: coalescing, deadlines, and error containment."""

from __future__ import annotations

import threading

import pytest

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.workers import DEADLINE_EXCEEDED, ERROR, OK, WorkerPool


class TestExecution:
    def test_runs_the_worker_fn(self):
        with WorkerPool(lambda key: key * 2, max_workers=2) as pool:
            outcome = pool.execute("ab")
            assert outcome.ok
            assert outcome.value == "abab"

    def test_errors_become_outcomes(self):
        def boom(key):
            raise ValueError("bad query")

        tracer = Tracer()
        with WorkerPool(boom, max_workers=1, tracer=tracer) as pool:
            outcome = pool.execute("k")
            assert outcome.status == ERROR
            assert "ValueError: bad query" in outcome.error
        assert tracer.registry.counters["serve.worker_errors"] == 1

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(lambda key: key)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("k")


class TestDeadlines:
    def test_past_deadline_skips_work(self):
        clock = FakeClock(start=100.0)
        ran = []

        def worker(key):
            ran.append(key)
            return key

        with WorkerPool(worker, tracer=Tracer(clock=clock)) as pool:
            outcome = pool.execute("k", deadline=99.0)
        assert outcome.status == DEADLINE_EXCEEDED
        assert ran == []

    def test_future_deadline_runs(self):
        clock = FakeClock(start=100.0)
        with WorkerPool(
            lambda key: key, tracer=Tracer(clock=clock)
        ) as pool:
            outcome = pool.execute("k", deadline=101.0)
        assert outcome.status == OK


class TestCoalescing:
    def test_identical_inflight_keys_share_one_execution(self):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_worker(key):
            calls.append(key)
            started.set()
            release.wait(timeout=5.0)
            return key

        tracer = Tracer()
        pool = WorkerPool(slow_worker, max_workers=4, tracer=tracer)
        try:
            first = pool.submit("same")
            assert started.wait(timeout=5.0)
            second = pool.submit("same")
            third = pool.submit("same")
            assert second is first and third is first
            release.set()
            outcome = first.result(timeout=5.0)
            assert outcome.ok
            assert outcome.joiners == 3
            assert calls == ["same"]
            assert tracer.registry.counters["serve.coalesced"] == 2
        finally:
            pool.shutdown()

    def test_distinct_keys_do_not_coalesce(self):
        with WorkerPool(lambda key: key, max_workers=2) as pool:
            first = pool.submit("a")
            second = pool.submit("b")
            assert first is not second
            assert first.result().value == "a"
            assert second.result().value == "b"

    def test_completed_key_runs_again(self):
        counter = {"n": 0}

        def worker(key):
            counter["n"] += 1
            return counter["n"]

        with WorkerPool(worker, max_workers=1) as pool:
            assert pool.execute("k").value == 1
            assert pool.execute("k").value == 2  # not coalesced
