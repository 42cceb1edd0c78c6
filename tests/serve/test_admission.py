"""Admission control: token-bucket bounds and queue backpressure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.admission import (
    QUEUE_FULL,
    RATE_LIMITED,
    AdmissionController,
    TokenBucket,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=FakeClock())
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_with_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # +1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1, clock=FakeClock())
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0.5, clock=FakeClock())

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=50.0),
        burst=st.floats(min_value=1.0, max_value=20.0),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=1, max_size=50,
        ),
    )
    def test_never_admits_above_rate_plus_burst(self, rate, burst,
                                                steps):
        """Over any window: admissions <= burst + rate * elapsed."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted = 0
        elapsed = 0.0
        for step in steps:
            clock.advance(step)
            elapsed += step
            if bucket.try_acquire():
                admitted += 1
            # The bound must hold at every instant, not just the end.
            assert admitted <= burst + rate * elapsed + 1e-6


class TestAdmissionController:
    def test_admit_release_cycle(self):
        controller = AdmissionController(
            rate=100.0, burst=10.0, max_pending=2,
            tracer=Tracer(clock=FakeClock()),
        )
        first = controller.admit("c1")
        second = controller.admit("c1")
        assert first and second
        assert controller.pending == 2
        third = controller.admit("c1")
        assert not third
        assert third.reason == QUEUE_FULL
        controller.release()
        assert controller.admit("c1")

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate=1.0, burst=2.0, max_pending=100,
            tracer=Tracer(clock=clock),
        )
        assert controller.admit("a") and controller.admit("a")
        rejected = controller.admit("a")
        assert not rejected and rejected.reason == RATE_LIMITED
        # A different tenant still has its own full bucket.
        assert controller.admit("b")

    def test_rejection_is_a_value_not_an_exception(self):
        controller = AdmissionController(
            rate=100.0, burst=100.0, max_pending=0,
            tracer=Tracer(clock=FakeClock()),
        )
        for _ in range(50):  # bounded: pending never grows
            decision = controller.admit("c")
            assert not decision.admitted
            assert decision.reason == QUEUE_FULL
        assert controller.pending == 0

    def test_rejection_counters(self):
        tracer = Tracer(clock=FakeClock())
        controller = AdmissionController(
            rate=100.0, burst=1.0, max_pending=0, tracer=tracer,
        )
        controller.admit("c")  # queue_full
        controller.admit("c")  # rate_limited
        counters = tracer.registry.counters
        assert counters["serve.rejected"] == 2
        assert counters[f"serve.rejected[{QUEUE_FULL}]"] == 1
        assert counters[f"serve.rejected[{RATE_LIMITED}]"] == 1

    def test_unbalanced_release_raises(self):
        controller = AdmissionController(tracer=Tracer(clock=FakeClock()))
        with pytest.raises(RuntimeError):
            controller.release()

    @settings(max_examples=50, deadline=None)
    @given(
        max_pending=st.integers(min_value=0, max_value=5),
        ops=st.lists(st.booleans(), min_size=1, max_size=60),
    )
    def test_pending_never_exceeds_bound(self, max_pending, ops):
        """admit/release interleavings keep pending in [0, max]."""
        controller = AdmissionController(
            rate=1e6, burst=1e6, max_pending=max_pending,
            tracer=Tracer(clock=FakeClock()),
        )
        held = 0
        for is_admit in ops:
            if is_admit:
                if controller.admit("c"):
                    held += 1
            elif held:
                controller.release()
                held -= 1
            assert 0 <= controller.pending <= max_pending
            assert controller.pending == held


class TestQuotas:
    def make(self, quotas, max_pending=8):
        return AdmissionController(
            rate=1e9, burst=1e9, max_pending=max_pending,
            tracer=Tracer(clock=FakeClock()), quotas=quotas,
        )

    def test_quota_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            self.make({"a": 1.5})
        with pytest.raises(ValueError):
            self.make({"a": -0.1})

    def test_reservations_must_fit_the_queue(self):
        with pytest.raises(ValueError):
            self.make({"a": 1.0, "b": 1.0})

    def test_reservations_round_down_to_slots(self):
        controller = self.make({"a": 0.25, "b": 0.3})
        # a and b reserve 2 slots each (floor(0.3 * 8) == 2), so a
        # client without a quota gets the other 4 and no more.
        admitted = {
            client: sum(1 for _ in range(20) if controller.admit(client))
            for client in ("nobody", "a", "b")
        }
        assert admitted == {"nobody": 4, "a": 2, "b": 2}

    def test_majority_cannot_take_the_reserved_floor(self):
        """One tenant fills shared + its own slots; the other tenant's
        reservation is still there for it."""
        controller = self.make({"a": 0.25, "b": 0.25})
        admitted_b = sum(
            1 for _ in range(20) if controller.admit("b")
        )
        # b fills its 2 reserved slots plus all 4 shared ones.
        assert admitted_b == 6
        assert controller.pending == 6
        # a's two reserved slots survived the flood.
        assert controller.admit("a")
        assert controller.admit("a")
        assert not controller.admit("a")

    def test_release_frees_the_right_tenant_slot(self):
        controller = self.make({"a": 0.25, "b": 0.25})
        for _ in range(6):
            assert controller.admit("b")
        assert not controller.admit("b")
        controller.release("b")
        assert controller.pending == 5
        assert controller.admit("b")

    def test_unquotaed_clients_share_the_unreserved_slots(self):
        controller = self.make({"a": 0.5})  # 4 reserved, 4 shared
        admitted = sum(1 for _ in range(10) if controller.admit("c"))
        assert admitted == 4
        # The reserved tenant is untouched by the stranger's burst.
        assert all(controller.admit("a") for _ in range(4))
