"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` names an objective over the windowed telemetry in
:mod:`repro.obs.timeseries`; the :class:`SloEngine` evaluates every
spec over a fast and a slow window and converts the result into the
vocabulary operators actually page on: **burn rate** (how many times
faster than sustainable the error budget is being spent) and **budget
remaining** (the fraction of allowed badness left over the slow
window).

Objectives come in two shapes:

* **ratio** objectives (``availability``, ``dead_letter_rate``) divide
  an error count by a total count inside each window.  The burn rate
  is ``error_ratio / (1 - target)`` — burn 1.0 spends the budget
  exactly at the sustainable pace; burn 14.4 (the classic fast-page
  threshold) exhausts a 30-day budget in ~2 days.
* **threshold** objectives (``latency`` against a lifetime quantile
  sketch, ``freshness`` against a windowed max) compare an observed
  value to a ceiling; the burn rate is ``observed / target``.

A spec *pages* — and the engine emits a ``slo_breach`` flight-recorder
event — only when **both** windows burn past their thresholds: the
fast window confirms the problem is happening now, the slow window
confirms it is sustained rather than a blip (multi-window, multi-burn
alerting per the SRE workbook).  Breach events are edge-triggered: one
per excursion, re-armed when the spec recovers.

Specs load from a committed YAML/JSON config (``configs/slos.yaml``)
via :func:`load_slo_config`; :func:`default_slos` ships the same set in
code so the engine works with no file at hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracer import Tracer

#: Objective kinds ``SloSpec.objective`` accepts.
OBJECTIVES = ("availability", "dead_letter_rate", "latency", "freshness")

#: Ratio objectives measure error counts over totals per window.
_RATIO_OBJECTIVES = ("availability", "dead_letter_rate")

#: Default windows: fast confirms "now", slow confirms "sustained".
DEFAULT_FAST_WINDOW = 300.0
DEFAULT_SLOW_WINDOW = 3600.0

#: Default burn thresholds.  The fast window tolerates short spikes
#: (a ratio SLO must burn 2x sustainable before it even warns); the
#: slow window pages on anything above the sustainable pace.
DEFAULT_FAST_BURN = 2.0
DEFAULT_SLOW_BURN = 1.0

#: Config schema version for ``load_slo_config``.
CONFIG_VERSION = 1


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over named telemetry series/sketches.

    ``target`` means the *success-ratio floor* for ``availability``
    (e.g. 0.99), the *error-ratio ceiling* for ``dead_letter_rate``
    (e.g. 0.02), and the *value ceiling* for ``latency``/``freshness``
    (seconds / days).  ``component`` ties the spec to a
    :class:`~repro.obs.health.HealthMonitor` component so breaches
    surface in the health rollup.
    """

    name: str
    objective: str
    target: float
    component: str = ""
    description: str = ""
    # ratio objectives: error/total counts per window.
    good_series: str = ""   # availability: successes
    bad_series: str = ""    # dead_letter_rate: failures
    total_series: str = ""  # both: denominators
    # threshold objectives: what to compare against ``target``.
    sketch: str = ""        # latency: lifetime quantile sketch
    quantile: float = 0.99  # latency: which quantile of the sketch
    series: str = ""        # freshness: windowed max of this series
    # windows + burn thresholds.
    fast_window: float = DEFAULT_FAST_WINDOW
    slow_window: float = DEFAULT_SLOW_WINDOW
    fast_burn: float = DEFAULT_FAST_BURN
    slow_burn: float = DEFAULT_SLOW_BURN

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if self.objective in _RATIO_OBJECTIVES:
            if not 0.0 < self.target < 1.0:
                raise ValueError(
                    f"{self.name}: ratio targets must be in (0, 1)"
                )
            if not self.total_series:
                raise ValueError(f"{self.name}: total_series is required")
            if self.objective == "availability" and not self.good_series:
                raise ValueError(f"{self.name}: good_series is required")
            if self.objective == "dead_letter_rate" and not self.bad_series:
                raise ValueError(f"{self.name}: bad_series is required")
        else:
            if self.target <= 0.0:
                raise ValueError(
                    f"{self.name}: threshold targets must be positive"
                )
            if self.objective == "latency" and not self.sketch:
                raise ValueError(f"{self.name}: sketch is required")
            if self.objective == "freshness" and not self.series:
                raise ValueError(f"{self.name}: series is required")
            if not 0.0 < self.quantile < 1.0:
                raise ValueError(f"{self.name}: quantile must be in (0, 1)")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ValueError(f"{self.name}: windows must be positive")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError(f"{self.name}: burn thresholds must be positive")

    @property
    def budget(self) -> float:
        """Allowed error fraction (ratio objectives only)."""
        if self.objective == "availability":
            return 1.0 - self.target
        return self.target  # dead_letter_rate: target IS the ceiling


@dataclass(frozen=True)
class SloStatus:
    """One spec's evaluation: burn rates, budget, breach verdict."""

    spec: SloSpec
    value_fast: float      # error ratio (ratio) / observed value (threshold)
    value_slow: float
    burn_fast: float
    burn_slow: float
    budget_remaining: float
    n_samples: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def breaching_fast(self) -> bool:
        return self.burn_fast >= self.spec.fast_burn

    @property
    def breaching_slow(self) -> bool:
        return self.burn_slow >= self.spec.slow_burn

    @property
    def breaching(self) -> bool:
        """Page condition: both windows burning past their thresholds."""
        return self.breaching_fast and self.breaching_slow

    @property
    def warning(self) -> bool:
        return self.breaching_fast or self.breaching_slow

    @property
    def severity(self) -> str:
        if self.breaching:
            return "page"
        if self.warning:
            return "warn"
        return "ok"

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "objective": self.spec.objective,
            "component": self.spec.component,
            "target": self.spec.target,
            "value_fast": self.value_fast,
            "value_slow": self.value_slow,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "budget_remaining": self.budget_remaining,
            "severity": self.severity,
            "breaching": self.breaching,
            "n_samples": self.n_samples,
        }


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


class SloEngine:
    """Evaluates specs against a tracer's telemetry, emitting breaches.

    Reads ``tracer.windows`` and emits through ``tracer.emit`` on the
    tracer's clock.  ``evaluate()`` is read-only with respect to the
    telemetry and cheap enough to call per render frame; breach events
    are edge-triggered per spec so a console polling every second does
    not flood the flight recorder.
    """

    def __init__(self, specs: list[SloSpec], tracer: Tracer) -> None:
        names = [spec.name for spec in specs]
        if len(names) != len(set(names)):
            raise ValueError("duplicate SLO names in spec list")
        if tracer.windows is None:
            raise ValueError("SloEngine needs a tracer with windows")
        self.specs = list(specs)
        self.tracer = tracer
        self.windows = tracer.windows
        self._breaching: dict[str, bool] = {}

    def evaluate(self, now: float | None = None) -> list[SloStatus]:
        """Current status of every spec; emits edge-triggered breaches."""
        if now is None:
            now = self.tracer.clock.now()
        statuses = [self._evaluate_spec(spec, now) for spec in self.specs]
        for status in statuses:
            was_breaching = self._breaching.get(status.name, False)
            if status.breaching and not was_breaching:
                self.tracer.emit(
                    "slo_breach",
                    slo=status.name,
                    objective=status.spec.objective,
                    component=status.spec.component,
                    window="fast+slow",
                    burn_rate=status.burn_fast,
                    burn_slow=status.burn_slow,
                    budget_remaining=status.budget_remaining,
                    target=status.spec.target,
                    value=status.value_fast,
                )
            self._breaching[status.name] = status.breaching
        return statuses

    def budgets(self, now: float | None = None) -> dict[str, float]:
        """``{spec name: budget fraction remaining}`` without emitting."""
        if now is None:
            now = self.tracer.clock.now()
        return {
            spec.name: self._evaluate_spec(spec, now).budget_remaining
            for spec in self.specs
        }

    # -- evaluation ------------------------------------------------------------

    def _evaluate_spec(
        self, spec: SloSpec, now: float | None
    ) -> SloStatus:
        if spec.objective in _RATIO_OBJECTIVES:
            return self._evaluate_ratio(spec, now)
        if spec.objective == "latency":
            return self._evaluate_latency(spec)
        return self._evaluate_freshness(spec, now)

    def _ratio_window(
        self, spec: SloSpec, seconds: float, now: float | None
    ) -> tuple[float, int]:
        """(error ratio, total count) inside one window."""
        total = self.windows.window(
            spec.total_series, seconds, now=now
        ).count
        if not total:
            return 0.0, 0
        if spec.objective == "availability":
            good = self.windows.window(
                spec.good_series, seconds, now=now
            ).count
            errors = max(0, total - good)
        else:
            errors = self.windows.window(
                spec.bad_series, seconds, now=now
            ).count
        return min(1.0, errors / total), total

    def _evaluate_ratio(
        self, spec: SloSpec, now: float | None
    ) -> SloStatus:
        error_fast, n_fast = self._ratio_window(
            spec, spec.fast_window, now
        )
        error_slow, n_slow = self._ratio_window(
            spec, spec.slow_window, now
        )
        budget = spec.budget
        burn_fast = error_fast / budget
        burn_slow = error_slow / budget
        return SloStatus(
            spec=spec,
            value_fast=error_fast,
            value_slow=error_slow,
            burn_fast=burn_fast,
            burn_slow=burn_slow,
            budget_remaining=_clamp01(1.0 - burn_slow),
            n_samples=max(n_fast, n_slow),
        )

    def _evaluate_latency(self, spec: SloSpec) -> SloStatus:
        sketch = self.windows.sketch(spec.sketch)
        observed = sketch.quantile(spec.quantile) if sketch.count else 0.0
        burn = observed / spec.target
        return SloStatus(
            spec=spec,
            value_fast=observed,
            value_slow=observed,
            burn_fast=burn,
            burn_slow=burn,
            budget_remaining=_clamp01(1.0 - burn),
            n_samples=sketch.count,
        )

    def _evaluate_freshness(
        self, spec: SloSpec, now: float | None
    ) -> SloStatus:
        fast = self.windows.window(
            spec.series, spec.fast_window, now=now
        )
        slow = self.windows.window(
            spec.series, spec.slow_window, now=now
        )
        burn_fast = fast.maximum / spec.target
        burn_slow = slow.maximum / spec.target
        return SloStatus(
            spec=spec,
            value_fast=fast.maximum,
            value_slow=slow.maximum,
            burn_fast=burn_fast,
            burn_slow=burn_slow,
            budget_remaining=_clamp01(1.0 - burn_slow),
            n_samples=slow.count,
        )


# -- config loading -----------------------------------------------------------

#: Keys a config record may set besides the required name/objective/target.
_SPEC_KEYS = frozenset(
    {
        "name", "objective", "target", "component", "description",
        "good_series", "bad_series", "total_series", "sketch",
        "quantile", "series",
    }
)


def parse_slo_config(data: dict) -> list[SloSpec]:
    """Build specs from an already-parsed config mapping."""
    if not isinstance(data, dict):
        raise ValueError("SLO config must be a mapping")
    version = data.get("version")
    if version != CONFIG_VERSION:
        raise ValueError(
            f"unsupported SLO config version {version!r}; "
            f"expected {CONFIG_VERSION}"
        )
    records = data.get("slos")
    if not isinstance(records, list) or not records:
        raise ValueError("SLO config needs a non-empty 'slos' list")
    specs = []
    for record in records:
        if not isinstance(record, dict):
            raise ValueError("each SLO must be a mapping")
        unknown = set(record) - _SPEC_KEYS - {"windows", "burn"}
        if unknown:
            raise ValueError(
                f"unknown SLO config keys: {sorted(unknown)}"
            )
        kwargs = {key: record[key] for key in _SPEC_KEYS if key in record}
        windows = record.get("windows", {})
        if "fast" in windows:
            kwargs["fast_window"] = float(windows["fast"])
        if "slow" in windows:
            kwargs["slow_window"] = float(windows["slow"])
        burn = record.get("burn", {})
        if "fast" in burn:
            kwargs["fast_burn"] = float(burn["fast"])
        if "slow" in burn:
            kwargs["slow_burn"] = float(burn["slow"])
        specs.append(SloSpec(**kwargs))
    return specs


def load_slo_config(path: str | Path) -> list[SloSpec]:
    """Load specs from a YAML (preferred) or JSON config file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - yaml is bundled
            raise RuntimeError(
                "PyYAML is not installed; use a .json SLO config"
            ) from exc
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    return parse_slo_config(data)


def default_slos() -> list[SloSpec]:
    """The committed objective set (mirrors ``configs/slos.yaml``)."""
    return [
        SloSpec(
            name="fetch-availability",
            objective="availability",
            target=0.97,
            component="fetch",
            good_series="fetch.ok",
            total_series="fetch.outcomes",
            description="Fraction of fetches that return usable pages.",
        ),
        SloSpec(
            name="fetch-dead-letters",
            objective="dead_letter_rate",
            target=0.05,
            component="fetch",
            bad_series="fetch.dead_letters",
            total_series="fetch.outcomes",
            description="Fetches exhausted into the dead-letter queue.",
        ),
        SloSpec(
            name="serve-availability",
            objective="availability",
            target=0.99,
            component="serve",
            good_series="serve.ok",
            total_series="serve.requests",
            description="Queries answered ok or stale (not rejected).",
        ),
        SloSpec(
            name="serve-degraded-reads",
            objective="dead_letter_rate",
            target=0.05,
            component="serve",
            bad_series="serve.degraded",
            total_series="serve.requests",
            description=(
                "Responses served degraded (stale cache or replica-"
                "group fallback)."
            ),
        ),
        SloSpec(
            name="serve-latency-p99",
            objective="latency",
            target=0.25,
            component="serve",
            sketch="serve.latency",
            quantile=0.99,
            description="P99 portal query latency (seconds).",
        ),
        SloSpec(
            name="stream-freshness",
            objective="freshness",
            target=3.0,
            component="stream",
            series="stream.freshness_days",
            description="Worst-case doc age (days) at ingest time.",
        ),
    ]
