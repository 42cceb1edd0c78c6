"""Component health rollup: ok / degraded / critical, with reasons.

The :class:`HealthMonitor` composes two signal sources into one
answer to "is the system healthy right now?":

* **probes** — callables registered per component (ingest, stream,
  serve, fetch) that inspect live objects (breaker states,
  dead-letter queues, queue depths) and return a
  :class:`ComponentHealth`;
* **SLOs** — every :class:`~repro.obs.slo.SloStatus` from an attached
  :class:`~repro.obs.slo.SloEngine` maps onto its spec's component: a
  paging breach forces the component ``critical``, a single-window
  warn forces at least ``degraded``.

The overall status is the worst component status; transitions emit a
``health_transition`` flight-recorder event so a soak run's log shows
exactly when (and why) the system left ``ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.slo import SloEngine, SloStatus
from repro.obs.tracer import NULL_TRACER, AnyTracer

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_CRITICAL = "critical"

#: Severity order for rollups (index = badness).
STATUS_ORDER = (STATUS_OK, STATUS_DEGRADED, STATUS_CRITICAL)

_RANK = {status: rank for rank, status in enumerate(STATUS_ORDER)}

#: ``repro health`` exit codes by overall status.
EXIT_CODES = {STATUS_OK: 0, STATUS_DEGRADED: 1, STATUS_CRITICAL: 2}


def worst(*statuses: str) -> str:
    """The most severe of the given statuses (``ok`` when none)."""
    rank = max((_RANK[status] for status in statuses), default=0)
    return STATUS_ORDER[rank]


@dataclass(frozen=True)
class ComponentHealth:
    """One component's verdict with a human-readable reason."""

    component: str
    status: str
    reason: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in _RANK:
            raise ValueError(
                f"unknown status {self.status!r}; "
                f"expected one of {STATUS_ORDER}"
            )

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "status": self.status,
            "reason": self.reason,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class HealthReport:
    """The full rollup: overall status, components, SLO statuses."""

    status: str
    components: tuple[ComponentHealth, ...]
    slos: tuple[SloStatus, ...]
    generated_at: float

    @property
    def reasons(self) -> list[str]:
        """Reasons from every non-ok component, worst first."""
        ranked = sorted(
            (c for c in self.components if c.status != STATUS_OK),
            key=lambda c: -_RANK[c.status],
        )
        return [f"{c.component}: {c.reason}" for c in ranked if c.reason]

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "generated_at": self.generated_at,
            "components": [c.to_dict() for c in self.components],
            "slos": [status.to_dict() for status in self.slos],
        }

    def render(self) -> str:
        """Multi-line text rollup for the CLI."""
        lines = [f"overall: {self.status}"]
        if self.components:
            lines.append("components:")
            width = max(len(c.component) for c in self.components)
            for c in self.components:
                line = f"  {c.component:<{width}}  {c.status}"
                if c.reason:
                    line += f"  ({c.reason})"
                lines.append(line)
        if self.slos:
            lines.append("slos:")
            width = max(len(s.name) for s in self.slos)
            for s in self.slos:
                lines.append(
                    f"  {s.name:<{width}}  {s.severity:<4} "
                    f" burn fast={s.burn_fast:.2f} slow={s.burn_slow:.2f} "
                    f" budget={s.budget_remaining * 100:.0f}%"
                )
        return "\n".join(lines)


class HealthMonitor:
    """Rolls probes + SLO statuses into one ok/degraded/critical."""

    def __init__(
        self,
        slo_engine: SloEngine | None = None,
        tracer: AnyTracer | None = None,
    ) -> None:
        self.slo_engine = slo_engine
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._probes: dict[str, Callable[[], ComponentHealth]] = {}
        self._last_status: str | None = None

    def register(
        self, component: str, probe: Callable[[], ComponentHealth]
    ) -> None:
        """Attach a probe; later registrations replace earlier ones."""
        self._probes[component] = probe

    @property
    def components(self) -> list[str]:
        return list(self._probes)

    def rollup(self, now: float | None = None) -> HealthReport:
        """Evaluate probes + SLOs; emit ``health_transition`` on change.

        ``now`` defaults to the tracer's clock, the axis its windows
        were recorded on.
        """
        if now is None:
            now = self.tracer.clock.now()
        verdicts: dict[str, ComponentHealth] = {}
        for component, probe in self._probes.items():
            try:
                verdicts[component] = probe()
            except Exception as exc:  # a broken probe IS a health signal
                verdicts[component] = ComponentHealth(
                    component=component,
                    status=STATUS_CRITICAL,
                    reason=f"probe failed: {exc}",
                )
        statuses: tuple[SloStatus, ...] = ()
        if self.slo_engine is not None:
            statuses = tuple(self.slo_engine.evaluate(now=now))
            for status in statuses:
                component = status.spec.component
                if not component or status.severity == "ok":
                    continue
                slo_status = (
                    STATUS_CRITICAL
                    if status.severity == "page"
                    else STATUS_DEGRADED
                )
                reason = (
                    f"slo {status.name} {status.severity} "
                    f"(burn fast={status.burn_fast:.2f} "
                    f"slow={status.burn_slow:.2f})"
                )
                existing = verdicts.get(component)
                if existing is None or _RANK[slo_status] > _RANK[
                    existing.status
                ]:
                    verdicts[component] = ComponentHealth(
                        component=component,
                        status=slo_status,
                        reason=reason,
                        details=existing.details if existing else {},
                    )
        components = tuple(verdicts.values())
        overall = worst(*(c.status for c in components))
        report = HealthReport(
            status=overall,
            components=components,
            slos=statuses,
            generated_at=now,
        )
        if self._last_status is not None and overall != self._last_status:
            self.tracer.emit(
                "health_transition",
                status=overall,
                previous=self._last_status,
                reasons=report.reasons,
            )
        self._last_status = overall
        return report


# -- probe helpers -------------------------------------------------------------
#
# Each returns a *callable* suitable for ``HealthMonitor.register``,
# closing over the live object.  Probes report structural trouble
# (open breakers, deep queues); sustained trouble is the SLO engine's
# job and overrides these verdicts upward.


def fetcher_probe(fetcher) -> Callable[[], ComponentHealth]:
    """Breaker states + dead-letter volume for a ResilientFetcher."""

    def probe() -> ComponentHealth:
        states = fetcher.breaker_states()
        open_hosts = sorted(
            host for host, state in states.items() if state == "open"
        )
        dead = len(fetcher.dead_letters)
        details = {
            "open_breakers": open_hosts,
            "dead_letters": dead,
            "hosts": len(states),
        }
        if open_hosts:
            return ComponentHealth(
                "fetch", STATUS_DEGRADED,
                f"{len(open_hosts)} breaker(s) open: "
                + ", ".join(open_hosts[:3]),
                details,
            )
        return ComponentHealth("fetch", STATUS_OK, "", details)

    return probe


def portal_probe(portal) -> Callable[[], ComponentHealth]:
    """Snapshot emptiness + queue pressure for an AlertPortal."""

    def probe() -> ComponentHealth:
        stats = portal.stats()
        details = {
            "queue_depth": stats.get("queue_depth", 0),
            "generation": stats.get("generation"),
            "n_docs": stats.get("n_docs", 0),
            "cache_hit_rate": stats.get("cache_hit_rate", 0.0),
        }
        if not stats.get("n_docs"):
            return ComponentHealth(
                "serve", STATUS_CRITICAL, "empty index snapshot", details
            )
        return ComponentHealth("serve", STATUS_OK, "", details)

    return probe


def processor_probe(processor) -> Callable[[], ComponentHealth]:
    """Late-arrival pressure for a StreamProcessor."""

    def probe() -> ComponentHealth:
        late = len(getattr(processor, "late_arrivals", ()))
        details = {
            "late_arrivals": late,
            "cycle": getattr(processor, "cycle", None),
        }
        if late:
            return ComponentHealth(
                "stream", STATUS_DEGRADED,
                f"{late} late arrival(s) side-channeled", details,
            )
        return ComponentHealth("stream", STATUS_OK, "", details)

    return probe


def gather_probe(report) -> Callable[[], ComponentHealth]:
    """Ingest verdict from a finished GatherReport."""

    def probe() -> ComponentHealth:
        stored = getattr(report, "documents_stored", 0)
        failed = getattr(report, "pages_failed", 0)
        dead = getattr(report, "dead_letters", 0)
        details = {
            "documents_stored": stored,
            "pages_failed": failed,
            "dead_letters": dead,
        }
        if not stored:
            return ComponentHealth(
                "ingest", STATUS_CRITICAL, "no documents stored", details
            )
        if failed or dead:
            return ComponentHealth(
                "ingest", STATUS_DEGRADED,
                f"{failed} failed page(s), {dead} dead-letter(s)",
                details,
            )
        return ComponentHealth("ingest", STATUS_OK, "", details)

    return probe
