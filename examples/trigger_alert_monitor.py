"""The Electronic Trigger Alert Program doing what its name says.

Trains ETAP once, then watches an evolving web: each simulated day new
pages are published, the service re-gathers (fetching only new and
navigation pages), and only *new* trigger events raise alerts — the workflow a sales team would wire to email or
a CRM.

Run:  python examples/trigger_alert_monitor.py
"""

from __future__ import annotations

from collections import Counter

from repro import Etap, EtapConfig, build_web
from repro.core.alerts import AlertService
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig


def main() -> None:
    print("Bootstrapping: crawl + train on the initial web ...")
    web = build_web(1000)
    etap = Etap.from_web(
        web,
        config=EtapConfig(top_k_per_query=80, negative_sample_size=2000),
    )
    etap.gather()
    etap.train()

    service = AlertService(etap, threshold=0.9)
    evolver = WebEvolver(web, CorpusConfig(seed=20060403))

    for day in range(1, 6):
        published = evolver.advance(30)
        report = service.poll()
        fresh_triggers = sum(
            d.doc_type in ("ma_news", "cim_news", "rg_news")
            for d in published
        )
        print(f"\n--- day {day}: {report.new_documents} new pages "
              f"({fresh_triggers} trigger articles) -> "
              f"{len(report.alerts)} alerts")
        by_driver = Counter(alert.driver_id for alert in report.alerts)
        for driver_id, count in by_driver.most_common():
            print(f"    {driver_id}: {count}")
        for alert in report.alerts[:3]:
            companies = ", ".join(alert.event.companies) or "?"
            print(f"    [{alert.score:.2f}] ({companies}) "
                  f"{alert.text[:80]}")

    quiet = service.poll()
    print(f"\nNo new pages published since the last poll -> "
          f"{len(quiet.alerts)} alerts (deduplicated as expected).")


if __name__ == "__main__":
    main()
