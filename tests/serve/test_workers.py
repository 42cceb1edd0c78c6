"""WorkerPool: coalescing, deadlines, and error containment."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.workers import DEADLINE_EXCEEDED, ERROR, OK, WorkerPool


def wait_for_coalesced(tracer: Tracer, count: int) -> None:
    """Block until ``count`` callers have joined an in-flight key."""
    give_up = time.monotonic() + 5.0
    while tracer.registry.counters.get("serve.coalesced", 0) < count:
        assert time.monotonic() < give_up, "joiners never arrived"
        time.sleep(0.001)


class TestExecution:
    def test_runs_the_worker_fn(self):
        with WorkerPool(lambda key: key * 2) as pool:
            outcome = pool.execute("ab")
            assert outcome.ok
            assert outcome.value == "abab"

    def test_errors_become_outcomes(self):
        def boom(key):
            raise ValueError("bad query")

        tracer = Tracer()
        with WorkerPool(boom, tracer=tracer) as pool:
            outcome = pool.execute("k")
            assert outcome.status == ERROR
            assert "ValueError: bad query" in outcome.error
        assert tracer.registry.counters["serve.worker_errors"] == 1

    def test_execute_after_shutdown_raises(self):
        pool = WorkerPool(lambda key: key)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.execute("k")

    def test_runs_on_the_calling_thread(self):
        with WorkerPool(lambda key: threading.current_thread()) as pool:
            assert pool.execute("k").value is threading.current_thread()


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
        outcomes = []
        with WorkerPool(slow_worker, tracer=tracer) as pool:

            def call():
                outcomes.append(pool.execute("same"))

            leader = threading.Thread(target=call)
            leader.start()
            assert started.wait(timeout=5.0)
            joiners = [threading.Thread(target=call) for _ in range(2)]
            for thread in joiners:
                thread.start()
            # Both joiners are counted before the leader is released.
            wait_for_coalesced(tracer, 2)
            release.set()
            for thread in [leader, *joiners]:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        assert len(outcomes) == 3
        assert all(outcome is outcomes[0] for outcome in outcomes)
        assert outcomes[0].ok and outcomes[0].value == "same"
        assert outcomes[0].joiners == 3
        assert calls == ["same"]
        assert tracer.registry.counters["serve.coalesced"] == 2

    def test_joiners_of_a_failing_leader_get_its_error(self):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def worker(key):
            calls.append(key)
            if len(calls) == 1:
                started.set()
                release.wait(timeout=5.0)
                raise ValueError("bad query")
            return key

        tracer = Tracer()
        outcomes = []
        with WorkerPool(worker, tracer=tracer) as pool:

            def call():
                outcomes.append(pool.execute("k"))

            leader = threading.Thread(target=call)
            leader.start()
            assert started.wait(timeout=5.0)
            joiner = threading.Thread(target=call)
            joiner.start()
            wait_for_coalesced(tracer, 1)
            release.set()
            for thread in (leader, joiner):
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert [outcome.status for outcome in outcomes] == [ERROR, ERROR]
            assert outcomes[0] is outcomes[1]
            assert outcomes[0].joiners == 2
            assert "ValueError: bad query" in outcomes[0].error
            # The failed flight is gone: the next call runs again.
            again = pool.execute("k")
        assert again.ok and again.value == "k" and again.joiners == 1
        assert calls == ["k", "k"]

    def test_distinct_keys_do_not_coalesce(self):
        started = threading.Event()
        release = threading.Event()

        def worker(key):
            if key == "a":
                started.set()
                release.wait(timeout=5.0)
            return key

        tracer = Tracer()
        outcomes = {}
        with WorkerPool(worker, tracer=tracer) as pool:
            first = threading.Thread(
                target=lambda: outcomes.update(a=pool.execute("a"))
            )
            first.start()
            assert started.wait(timeout=5.0)
            # "b" runs while "a" is still in flight.
            outcomes["b"] = pool.execute("b")
            release.set()
            first.join(timeout=5.0)
            assert not first.is_alive()
        assert outcomes["a"].value == "a" and outcomes["a"].joiners == 1
        assert outcomes["b"].value == "b" and outcomes["b"].joiners == 1
        assert "serve.coalesced" not in tracer.registry.counters

    def test_completed_key_runs_again(self):
        counter = {"n": 0}

        def worker(key):
            counter["n"] += 1
            return counter["n"]

        with WorkerPool(worker) as pool:
            assert pool.execute("k").value == 1
            assert pool.execute("k").value == 2  # not coalesced


def test_every_call_is_led_or_joined_once_under_contention():
    """8 threads on 2-core hosts, a tiny switch interval, 3 hot keys:
    each call is counted in exactly one execution's ``joiners``, and
    every execution of a key returns that key's value."""
    executions = {"n": 0}
    count_lock = threading.Lock()

    def worker(key):
        with count_lock:
            executions["n"] += 1
        time.sleep(0)
        return key * 2

    tracer = Tracer()
    outcomes = []
    errors = []
    n_threads, n_calls = 8, 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(worker, tracer=tracer) as pool:

            def hammer(seed):
                try:
                    for i in range(n_calls):
                        key = (seed + i) % 3
                        outcome = pool.execute(key)
                        assert outcome.ok and outcome.value == key * 2
                        outcomes.append(outcome)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(outcomes) == n_threads * n_calls
    distinct = {id(outcome): outcome for outcome in outcomes}.values()
    assert len(distinct) == executions["n"]
    assert sum(outcome.joiners for outcome in distinct) == len(outcomes)
    assert (
        tracer.registry.counters.get("serve.coalesced", 0)
        == len(outcomes) - executions["n"]
    )


def test_only_a_joined_flight_makes_an_event(monkeypatch):
    """An uncontended call builds no ``threading.Event``; the first
    joiner of an in-flight key makes the one its flight's callers wait
    on, and every joiner wakes with the leader's outcome."""
    started = threading.Event()
    release = threading.Event()

    def worker(key):
        if key == "hot":
            started.set()
            release.wait(timeout=5.0)
        return key

    made = []

    class CountingEvent(threading.Event):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    tracer = Tracer()
    outcomes = []
    with WorkerPool(worker, tracer=tracer) as pool:

        def call():
            outcomes.append(pool.execute("hot"))

        # Threads are built before the patch: a Thread makes Events too.
        leader = threading.Thread(target=call)
        joiners = [threading.Thread(target=call) for _ in range(2)]
        monkeypatch.setattr(threading, "Event", CountingEvent)
        for key in range(50):
            assert pool.execute(key).value == key
        assert made == []
        leader.start()
        assert started.wait(timeout=5.0)
        for thread in joiners:
            thread.start()
        wait_for_coalesced(tracer, 2)
        release.set()
        for thread in [leader, *joiners]:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
    assert len(made) == 1
    assert len(outcomes) == 3
    assert all(outcome is outcomes[0] for outcome in outcomes)
    assert outcomes[0].value == "hot" and outcomes[0].joiners == 3
