"""Concurrency stress for the *replicated* portal under chaos.

Reader threads hammer a replicated portal (cache-busting queries, so
every request actually routes) and poll their subscriptions while the
main thread kills and restores a rotating replica of every shard
group, publishes overlapping alert batches, and swaps whole store
generations mid-load.  The invariants:

* no reader ever sees an exception or a non-ok status;
* no subscription is ever delivered the same alert twice;
* every response is a whole generation — results never mix documents
  from two different store generations (the doc-id marker prefix is
  the witness);
* responses carry a consistent generation tag (> 0 once indexed).

Null event log throughout: ``EventLog.emit`` is not thread-safe and
these tests hunt races in the serve layer, not the recorder.
"""

from __future__ import annotations

import threading

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve import AdmissionController, AlertPortal, QueryCache

from tests.serve.test_stress import build_store, make_alert

N_READERS = 5
N_ROUNDS = 8
N_REPLICAS = 3
ALERTS_PER_BATCH = 5


def test_kill_restore_under_load_keeps_every_invariant():
    tracer = Tracer(clock=FakeClock())
    portal = AlertPortal(
        build_store(30, "alpha"),
        n_shards=2,
        n_replicas=N_REPLICAS,
        tracer=tracer,
        admission=AdmissionController(
            rate=1e9, burst=1e9, max_pending=256, tracer=tracer
        ),
        cache=QueryCache(ttl=1e9, tracer=tracer),
    )
    portal.refresh()

    subscriptions = [
        portal.subscribe(f"analyst-{i}") for i in range(N_READERS)
    ]
    errors: list[BaseException] = []
    bad_statuses: list[str] = []
    torn: list[set] = []
    bad_generations: list[int] = []
    delivered: dict[str, list[str]] = {
        sub: [] for sub in subscriptions
    }
    stop = threading.Event()

    def reader(sub: str) -> None:
        try:
            turn = 0
            while not stop.is_set():
                turn += 1
                # Unique per turn: a cache hit would skip the router,
                # and the router is what this test is aiming at.
                response = portal.query(
                    sub, f"acquire merger {sub} t{turn}", top_k=50
                )
                if response.status not in ("ok", "stale"):
                    bad_statuses.append(response.status)
                if response.results and response.generation < 1:
                    bad_generations.append(response.generation)
                prefixes = {
                    result.doc_key.split("-")[0]
                    for result in response.results
                }
                if len(prefixes) > 1:
                    torn.append(prefixes)
                delivered[sub].extend(
                    alert.alert_id
                    for alert in portal.poll_alerts(sub)
                )
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(sub,))
        for sub in subscriptions
    ]
    with portal:
        for thread in threads:
            thread.start()
        try:
            counter = 0
            for round_n in range(N_ROUNDS):
                victim = round_n % N_REPLICAS
                for shard in range(2):
                    portal.kill_replica(shard, victim)
                # Overlapping batches: half of each repeats the last,
                # so publish() must dedupe under reader contention.
                batch = [
                    make_alert(counter - 2 + j)
                    for j in range(ALERTS_PER_BATCH)
                    if counter - 2 + j >= 0
                ]
                counter += ALERTS_PER_BATCH - 2
                portal.publish(batch)
                # A whole new store generation ships while one
                # replica of every group is down and readers route.
                marker = "alpha" if round_n % 2 else "beta"
                portal.store = build_store(30, marker)
                portal.refresh()
                for shard in range(2):
                    portal.replicas.restore(shard, victim)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    assert errors == []
    assert bad_statuses == []
    assert bad_generations == []
    assert torn == []
    for sub, alert_ids in delivered.items():
        assert len(alert_ids) == len(set(alert_ids)), (
            f"duplicate alert delivered to {sub}"
        )
    # Every kill was healed: the run ends with the cluster whole.
    for group in portal.replicas.stats()["groups"]:
        assert group["up"] == group["n_replicas"]
        assert group["max_lag"] == 0
