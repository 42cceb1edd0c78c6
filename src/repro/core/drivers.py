"""Sales drivers: definitions, smart queries, and snippet filters.

A *sales driver* "represents a class of events whose existence indicates
a high propensity to buy" (section 2).  ETAP ships three: mergers &
acquisitions, change in management, revenue growth.  Each driver carries

* the *smart queries* used to pull noisy-positive documents from the
  search engine (section 3.3.1, step 1) — e.g. ``"new ceo"`` or a recent
  event instance like ``"IBM Daksh"``;
* a *snippet filter* over named-entity annotations (step 2) — e.g.
  *"Discard all snippets not containing a (PRSN and ORG) or (DESIG and
  ORG) annotation"* — expressed in the small combinator language below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    FUNDING_ROUNDS,
    LAYOFFS,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.text.annotator import AnnotatedText

# ---------------------------------------------------------------------------
# Snippet-filter combinator language
# ---------------------------------------------------------------------------

#: A filter takes an annotated snippet and accepts or rejects it.
SnippetFilter = Callable[[AnnotatedText], bool]


def has(label: str) -> SnippetFilter:
    """Accept snippets containing at least one ``label`` entity."""

    def check(annotated: AnnotatedText) -> bool:
        return any(entity.label == label for entity in annotated.entities)

    return check


def has_at_least(label: str, count: int) -> SnippetFilter:
    """Accept snippets with at least ``count`` entities of ``label``.

    Distinct surface forms are required, so "two ORG annotations" means
    two different organizations — the paper's M&A filter intends the
    acquirer and the acquired, not one company mentioned twice.
    """

    def check(annotated: AnnotatedText) -> bool:
        surfaces = {
            entity.text.lower()
            for entity in annotated.entities
            if entity.label == label
        }
        return len(surfaces) >= count

    return check


def has_keyword(*keywords: str) -> SnippetFilter:
    """Accept snippets containing any of the given keywords."""
    lowered = tuple(keyword.lower() for keyword in keywords)

    def check(annotated: AnnotatedText) -> bool:
        text = annotated.text.lower()
        return any(keyword in text for keyword in lowered)

    return check


def all_of(*filters: SnippetFilter) -> SnippetFilter:
    def check(annotated: AnnotatedText) -> bool:
        return all(item(annotated) for item in filters)

    return check


def any_of(*filters: SnippetFilter) -> SnippetFilter:
    def check(annotated: AnnotatedText) -> bool:
        return any(item(annotated) for item in filters)

    return check


# ---------------------------------------------------------------------------
# Driver definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SalesDriver:
    """One sales driver with its training-data recipe."""

    driver_id: str
    name: str
    description: str
    smart_queries: tuple[str, ...]
    snippet_filter: SnippetFilter


def _mergers_acquisitions() -> SalesDriver:
    return SalesDriver(
        driver_id=MERGERS_ACQUISITIONS,
        name="Mergers & acquisitions",
        description=(
            "Company mergers and acquisitions; integrating IT systems "
            "after a merger generates demand for new IT products."
        ),
        # The paper queries recent event instances ("IBM Daksh") because
        # the naive query "mergers and acquisitions" is too noisy; our
        # synthetic equivalents are phrase queries over acquisition verbs.
        smart_queries=(
            '"agreed to acquire"',
            '"completed the acquisition of"',
            '"definitive merger agreement"',
            '"plans to acquire"',
            '"is taking over"',
        ),
        # "Discard all snippets not containing two ORG annotations" —
        # plus the step-2 keyword condition the paper allows ("snippets
        # that contain specific combinations of named entity tags or
        # keywords").
        snippet_filter=all_of(
            has_at_least("ORG", 2),
            has_keyword(
                "acquire", "acquired", "acquires", "acquisition",
                "merger", "merged", "merge", "bought", "buy",
                "taking over", "took over", "takeover", "snapped up",
            ),
        ),
    )


def _change_in_management() -> SalesDriver:
    return SalesDriver(
        driver_id=CHANGE_IN_MANAGEMENT,
        name="Change in management",
        description=(
            "Executive appointments and departures; new leadership "
            "often revisits vendor relationships."
        ),
        smart_queries=(
            '"new ceo"',
            '"new cto"',
            '"new cfo"',
            '"new president"',
            '"announced the appointment of"',
        ),
        # "Designation AND (Person OR Organization)" + appointment
        # keywords (step-2 filters may combine entity tags and keywords).
        snippet_filter=all_of(
            has("DESIG"),
            any_of(has("PRSN"), has("ORG")),
            has_keyword(
                "appoint", "named", "names", "hire", "promote",
                "resign", "step down", "stepped down", "retire",
                "oust", "welcome", "recruit", "tapped", "elevate",
                "succeed", "joins", "new", "assume the role",
            ),
        ),
    )


def _revenue_growth() -> SalesDriver:
    return SalesDriver(
        driver_id=REVENUE_GROWTH,
        name="Revenue growth",
        description=(
            "Revenue and profit changes; growing companies invest in "
            "new capacity."
        ),
        smart_queries=(
            '"revenue growth"',
            '"reported revenue"',
            '"posted net income"',
            '"quarterly revenue rose"',
            '"announced record profits"',
        ),
        # "Organization AND (Currency OR percent figure)" + earnings
        # keywords to keep stock-quote boilerplate out of step 2.
        snippet_filter=all_of(
            has("ORG"),
            any_of(has("CURRENCY"), has("PRCNT")),
            has_keyword(
                "revenue", "profit", "income", "earnings", "sales",
                "turnover", "growth", "loss", "quarter", "fiscal",
            ),
        ),
    )


def _funding_rounds() -> SalesDriver:
    return SalesDriver(
        driver_id=FUNDING_ROUNDS,
        name="Funding rounds",
        description=(
            "Venture and growth financing events; newly funded "
            "companies spend on tooling, hiring, and infrastructure."
        ),
        smart_queries=(
            '"funding round"',
            '"in new funding"',
            '"closed its"',
            '"led by"',
            '"at a valuation of"',
        ),
        # Organization AND Currency plus financing keywords: a funding
        # event names the company and the amount it raised.
        snippet_filter=all_of(
            has("ORG"),
            has("CURRENCY"),
            has_keyword(
                "funding", "raised", "raises", "financing", "round",
                "investors", "backers", "capital", "valuation",
                "series", "seed",
            ),
        ),
    )


def _layoffs() -> SalesDriver:
    return SalesDriver(
        driver_id=LAYOFFS,
        name="Layoffs",
        description=(
            "Workforce reductions and restructurings; companies in "
            "retrenchment consolidate vendors and renegotiate."
        ),
        smart_queries=(
            '"of its workforce"',
            '"job cuts"',
            '"announced layoffs"',
            '"restructuring"',
            '"reduce headcount"',
        ),
        # Organization AND a count-or-percent figure plus layoff
        # keywords: the event names the company and the cut's size.
        snippet_filter=all_of(
            has("ORG"),
            any_of(has("CNT"), has("PRCNT")),
            has_keyword(
                "layoff", "layoffs", "lay off", "laying off",
                "job cuts", "cut jobs", "workforce", "headcount",
                "restructuring", "eliminate", "shed", "slash",
            ),
        ),
    )


_BUILTIN = {
    MERGERS_ACQUISITIONS: _mergers_acquisitions,
    CHANGE_IN_MANAGEMENT: _change_in_management,
    REVENUE_GROWTH: _revenue_growth,
}

#: Drivers beyond the paper's three, opened via the query planner
#: (:mod:`repro.queries.planner`).  ``builtin_drivers()`` deliberately excludes them:
#: the default pipeline stays bit-identical to the paper reproduction,
#: and recipes opt in by driver id.
_EXTENDED = {
    FUNDING_ROUNDS: _funding_rounds,
    LAYOFFS: _layoffs,
}

_ALL = {**_BUILTIN, **_EXTENDED}


def builtin_drivers() -> list[SalesDriver]:
    """The three drivers ETAP ships with (section 2)."""
    return [factory() for factory in _BUILTIN.values()]


def available_driver_ids() -> list[str]:
    """Identifiers of every registered driver, in registry order."""
    return list(_ALL)


def get_driver(driver_id: str) -> SalesDriver:
    """Look up a registered driver (builtin or extended) by id."""
    try:
        return _ALL[driver_id]()
    except KeyError:
        raise KeyError(
            f"unknown driver {driver_id!r}; "
            f"available: {sorted(_ALL)}"
        ) from None
