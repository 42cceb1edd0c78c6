"""Candidate query generation: template expansion over driver lexicons.

The generator turns each driver's hand-written smart queries into the
*seed* candidates and expands a per-driver template set over slot
inventories — verb phrases from :mod:`repro.corpus.vocab`, orientation
phrases from :mod:`repro.core.lexicon`, and company-entity slots from
:mod:`repro.core.company` — into further candidates.  Expansion is
deterministic (registry order, no randomness) and deduplicated, so the
same driver always yields the same candidate list in the same order,
with the seeds first.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

from repro.core.company import CompanyNormalizer
from repro.core.drivers import SalesDriver
from repro.core.lexicon import revenue_growth_lexicon
from repro.corpus import vocab
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    FUNDING_ROUNDS,
    LAYOFFS,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.obs.tracer import NULL_TRACER

#: Where a candidate came from: a hand-written smart query or template
#: expansion.  Seeds always survive generation, so the planner's
#: baseline (the paper's behavior) is always in the candidate pool.
SOURCE_SEED = "seed"
SOURCE_TEMPLATE = "template"


@dataclass(frozen=True, slots=True)
class QueryCandidate:
    """One candidate smart query for a driver."""

    driver_id: str
    query: str
    source: str = SOURCE_TEMPLATE
    template: str = ""


@dataclass(frozen=True)
class DriverQueryLexicon:
    """Templates plus slot inventories for one driver's generator.

    ``templates`` are format strings whose ``{slot}`` placeholders are
    filled from ``slots``; quoting inside the template is passed through
    to the search engine verbatim, so ``'"{verb}"'`` yields phrase
    queries and ``'{company}'`` yields bare term queries.
    """

    driver_id: str
    templates: tuple[str, ...]
    slots: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


def _head(items: Sequence[str], n: int) -> tuple[str, ...]:
    """The zipf-head of an inventory: the first ``n`` entries."""
    return tuple(items[:n])


def entity_slot_companies(
    n: int = 6, normalizer: CompanyNormalizer | None = None
) -> tuple[str, ...]:
    """Company-entity slot values: the most-mentioned organizations.

    The paper queries recent event *instances* ("IBM Daksh"); the
    synthetic analogue is the zipf head of the organization inventory,
    run through :class:`~repro.core.company.CompanyNormalizer` so slot
    values are canonical display names.
    """
    normalizer = normalizer or CompanyNormalizer()
    names = []
    for company in _head(vocab.ORGANIZATIONS, n):
        key = normalizer.register(company)
        names.append(normalizer.display_name(key))
    return tuple(names)


def _orientation_phrases() -> tuple[str, ...]:
    """Strong orientation phrases from the revenue-growth lexicon."""
    lexicon = revenue_growth_lexicon()
    return tuple(
        phrase
        for phrase, weight in sorted(lexicon.weights.items())
        if abs(weight) >= 2.0
    )


def default_lexicons(
    companies: Sequence[str] | None = None,
) -> dict[str, DriverQueryLexicon]:
    """The shipped per-driver template sets.

    ``companies`` overrides the company-entity slot (defaults to the
    zipf head of the organization inventory).
    """
    company_slot = tuple(companies or entity_slot_companies())
    return {
        MERGERS_ACQUISITIONS: DriverQueryLexicon(
            driver_id=MERGERS_ACQUISITIONS,
            templates=(
                '"{acq_verb}"',
                '"{acq_noun}"',
                '{company} "{acq_short}"',
            ),
            slots={
                "acq_verb": tuple(vocab.ACQUISITION_VERBS),
                "acq_noun": (
                    "tender offer", "all-stock transaction",
                    "definitive merger agreement", "approved the merger",
                    "acquisition of",
                ),
                "acq_short": ("acquire", "merger", "takeover"),
                "company": company_slot,
            },
        ),
        CHANGE_IN_MANAGEMENT: DriverQueryLexicon(
            driver_id=CHANGE_IN_MANAGEMENT,
            templates=(
                '"{appoint_verb}"',
                '"new {title}"',
                '"{depart_verb}"',
                '{company} "{title}"',
            ),
            slots={
                "appoint_verb": tuple(vocab.APPOINTMENT_VERBS),
                "depart_verb": tuple(vocab.DEPARTURE_VERBS),
                "title": ("ceo", "cto", "cfo", "coo", "president"),
                "company": company_slot,
            },
        ),
        REVENUE_GROWTH: DriverQueryLexicon(
            driver_id=REVENUE_GROWTH,
            templates=(
                '"{growth_verb} {growth_noun}"',
                '"{orientation}"',
                '"{growth_noun}"',
            ),
            slots={
                "growth_verb": tuple(vocab.GROWTH_VERBS),
                "growth_noun": tuple(vocab.GROWTH_NOUNS),
                "orientation": _orientation_phrases(),
            },
        ),
        FUNDING_ROUNDS: DriverQueryLexicon(
            driver_id=FUNDING_ROUNDS,
            templates=(
                '"{fund_verb}"',
                '"{round} funding"',
                '"{round} round"',
                '"{fund_noun}"',
                '{investor}',
            ),
            slots={
                "fund_verb": tuple(vocab.FUNDING_VERBS),
                "round": tuple(
                    name.lower() for name in vocab.FUNDING_ROUND_NAMES
                ),
                "fund_noun": (
                    "funding round", "new funding", "financing",
                    "valuation", "capital raised",
                ),
                "investor": tuple(vocab.INVESTOR_NAMES),
            },
        ),
        LAYOFFS: DriverQueryLexicon(
            driver_id=LAYOFFS,
            templates=(
                '"{layoff_verb}"',
                '"{layoff_noun}"',
            ),
            slots={
                "layoff_verb": tuple(vocab.LAYOFF_VERBS),
                "layoff_noun": (
                    "layoffs", "job cuts", "of its workforce",
                    "reduce headcount", "restructuring",
                    "cost-cutting", "announced layoffs",
                ),
            },
        ),
    }


def _expand_template(
    template: str, slots: Mapping[str, tuple[str, ...]]
) -> Iterable[str]:
    """All fillings of a template's slots, in inventory order."""
    names = [
        name
        for _, name, _, _ in string.Formatter().parse(template)
        if name
    ]
    if not names:
        yield template
        return
    for name in names:
        if name not in slots:
            raise KeyError(
                f"template {template!r} references unknown slot "
                f"{name!r}; known: {sorted(slots)}"
            )
    for values in product(*(slots[name] for name in names)):
        yield template.format(**dict(zip(names, values)))


class CandidateGenerator:
    """Deterministic, deduplicated candidate expansion per driver."""

    def __init__(
        self,
        lexicons: Mapping[str, DriverQueryLexicon] | None = None,
        max_candidates: int = 120,
        tracer=None,
    ) -> None:
        self.lexicons = (
            dict(lexicons) if lexicons is not None else default_lexicons()
        )
        self.max_candidates = max_candidates
        self.tracer = NULL_TRACER if tracer is None else tracer

    def generate(self, driver: SalesDriver) -> list[QueryCandidate]:
        """Candidates for one driver: seeds first, then expansions.

        Deduplication is by exact query string, first occurrence wins —
        so a template expansion that reproduces a hand-written seed is
        folded into the seed, never duplicated.  ``max_candidates``
        truncates the template tail; seeds are never dropped.
        """
        seen: set[str] = set()
        candidates: list[QueryCandidate] = []
        for query in driver.smart_queries:
            if query in seen:
                continue
            seen.add(query)
            candidates.append(
                QueryCandidate(
                    driver_id=driver.driver_id,
                    query=query,
                    source=SOURCE_SEED,
                )
            )
        lexicon = self.lexicons.get(driver.driver_id)
        if lexicon is not None:
            for template in lexicon.templates:
                for query in _expand_template(template, lexicon.slots):
                    if len(candidates) >= self.max_candidates:
                        break
                    if query in seen:
                        continue
                    seen.add(query)
                    candidates.append(
                        QueryCandidate(
                            driver_id=driver.driver_id,
                            query=query,
                            source=SOURCE_TEMPLATE,
                            template=template,
                        )
                    )
        self.tracer.count(
            "queries.candidates_generated", len(candidates)
        )
        return candidates
