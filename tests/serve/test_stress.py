"""Concurrency stress: readers hammer the portal through snapshot swaps.

Marked ``serve`` so CI can run the serving suite on its own. Uses the
null event log throughout: ``EventLog.emit`` is not thread-safe, and
these tests exist to catch races in the serve layer, not to time the
recorder.
"""

from __future__ import annotations

import threading

from repro.core.alerts import Alert, idempotency_key
from repro.core.ranking import TriggerEvent
from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.gather.store import DocumentStore, StoredDocument
from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve import AdmissionController, AlertPortal, QueryCache
from repro.text.annotator import AnnotatedText

N_READERS = 6
N_SWAPS = 8
ALERT_BATCHES = 10
ALERTS_PER_BATCH = 5


def make_alert(n: int) -> Alert:
    snippet = Snippet(
        doc_id=f"doc-{n:04d}", index=0,
        sentences=(f"Acme acquired unit {n}.",),
    )
    item = AnnotatedSnippet(
        snippet=snippet,
        annotated=AnnotatedText(
            text=snippet.text, tokens=(), entities=()
        ),
    )
    return Alert(
        cycle=1,
        driver_id="mergers_acquisitions",
        alert_id=idempotency_key(
            "mergers_acquisitions", snippet.snippet_id
        ),
        event=TriggerEvent(
            driver_id="mergers_acquisitions", item=item,
            score=0.9, companies=("acme",),
        ),
    )


def build_store(n: int, generation_marker: str = "alpha"):
    store = DocumentStore()
    for i in range(n):
        store.add(StoredDocument(
            doc_id=f"{generation_marker}-{i:04d}",
            url=f"http://site-{i % 5}.example/{i}",
            title=f"story {i}",
            text=(f"Acme {generation_marker} agreed to acquire "
                  f"Widgets unit {i} in a merger"),
        ))
    return store


class TestPortalUnderSwap:
    def test_polling_during_snapshot_swap(self):
        """N threads query + poll while re-indexing; no dupes, no raises.

        Every alert id must be delivered to each subscription at most
        once (the idempotency keys hold under contention), and every
        query must resolve to a whole generation — never an exception.
        """
        tracer = Tracer(clock=FakeClock())
        store = build_store(40)
        portal = AlertPortal(
            store,
            n_shards=4,
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
        delivered: dict[str, list[str]] = {
            sub: [] for sub in subscriptions
        }
        stop = threading.Event()

        def reader(sub: str) -> None:
            try:
                turn = 0
                while not stop.is_set():
                    turn += 1
                    response = portal.query(sub, f"merger {turn % 7}")
                    if response.status not in ("ok", "stale"):
                        bad_statuses.append(response.status)
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
                for round_n in range(N_SWAPS):
                    # Overlapping batches: half of each batch repeats
                    # the previous one, so publish() must dedupe.
                    batch = [
                        make_alert(counter - 2 + j)
                        for j in range(ALERTS_PER_BATCH)
                        if counter - 2 + j >= 0
                    ]
                    counter += ALERTS_PER_BATCH - 2
                    portal.publish(batch)
                    marker = "alpha" if round_n % 2 else "beta"
                    portal.store = build_store(40, marker)
                    portal.refresh()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()

        assert errors == []
        assert bad_statuses == []
        for sub, alert_ids in delivered.items():
            assert len(alert_ids) == len(set(alert_ids)), (
                f"duplicate alert delivered to {sub}"
            )

    def test_queries_during_swap_see_whole_generations(self):
        """The portal-level view of the shards' atomicity guarantee."""
        tracer = Tracer(clock=FakeClock())
        portal = AlertPortal(
            build_store(30, "alpha"),
            n_shards=4,
            tracer=tracer,
            admission=AdmissionController(
                rate=1e9, burst=1e9, max_pending=256, tracer=tracer
            ),
            # Tiny TTL is irrelevant on a fake clock; disable caching
            # effects by keying every query uniquely below instead.
            cache=QueryCache(ttl=1e9, tracer=tracer),
        )
        portal.refresh()

        torn: list[set] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    response = portal.query(
                        "c", '"agreed to acquire"', top_k=100
                    )
                    prefixes = {
                        result.doc_key.split("-")[0]
                        for result in response.results
                    }
                    if len(prefixes) > 1:
                        torn.append(prefixes)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader) for _ in range(N_READERS)
        ]
        with portal:
            for thread in threads:
                thread.start()
            try:
                for round_n in range(N_SWAPS):
                    marker = "beta" if round_n % 2 == 0 else "alpha"
                    portal.store = build_store(30, marker)
                    portal.refresh()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()

        assert errors == []
        assert torn == []
