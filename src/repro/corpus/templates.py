"""Sentence templates for the synthetic business-news web.

Each factory renders one sentence from the vocabulary in
:mod:`repro.corpus.vocab` and returns it together with its ground-truth
label: the sales-driver identifier when the sentence expresses a trigger
event, or ``None`` for noise.  The templates deliberately cover the
phenomena the paper calls out:

* many surface variations per event type (the training set "must capture
  all variations that express trigger events", section 3.3.1);
* *misleading* near-positive sentences — biography lines such as
  ``Mr. Andersen was the CEO of XYZ Inc. from 1980-1985`` that "deceive
  the classifier because of its features" (section 5.2);
* in-document noise: even a relevant page contains sentences that are not
  trigger events (Figure 6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus import vocab

#: Canonical sales-driver identifiers used throughout the library.
MERGERS_ACQUISITIONS = "mergers_acquisitions"
CHANGE_IN_MANAGEMENT = "change_in_management"
REVENUE_GROWTH = "revenue_growth"

ALL_DRIVERS = (MERGERS_ACQUISITIONS, CHANGE_IN_MANAGEMENT, REVENUE_GROWTH)

#: Drivers beyond the paper's three, opened by the query planner
#: (:mod:`repro.queries.planner`).  They are additive: nothing in the default corpus
#: mix or ``builtin_drivers()`` changes unless a recipe asks for them.
FUNDING_ROUNDS = "funding_rounds"
LAYOFFS = "layoffs"

EXTENDED_DRIVERS = ALL_DRIVERS + (FUNDING_ROUNDS, LAYOFFS)


@dataclass(frozen=True, slots=True)
class TemplateSentence:
    """A rendered sentence with its ground-truth driver label."""

    text: str
    label: str | None


def _zipf_weights(n: int, s: float = 1.15) -> list[float]:
    """Zipfian popularity weights: rank r gets weight 1 / r**s."""
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


#: Real news coverage is extremely head-heavy: a small set of companies,
#: executives and places dominates mentions across *all* page types.
#: Without this, specific entity instances would spuriously predict the
#: trigger class in a finite corpus, inverting the paper's Figure 3/4
#: finding that entity categories are best represented by presence-
#: absence rather than instance values.
_ORG_WEIGHTS = _zipf_weights(len(vocab.ORGANIZATIONS))
_PEOPLE_WEIGHTS = _zipf_weights(len(vocab.PEOPLE))
_PLACE_WEIGHTS = _zipf_weights(len(vocab.PLACES))


def zipf_choice(rng: random.Random, items: list[str],
                weights: list[float]) -> str:
    """Popularity-weighted choice."""
    return rng.choices(items, weights=weights, k=1)[0]


class EntityPool:
    """Samples coherent entity mentions for one document.

    A document talks about a small, consistent cast: the same company is
    the acquirer throughout an M&A article, the same person is appointed
    throughout an appointment article.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.company = zipf_choice(rng, vocab.ORGANIZATIONS, _ORG_WEIGHTS)
        self.other_company = self.company
        while self.other_company == self.company:
            self.other_company = zipf_choice(
                rng, vocab.ORGANIZATIONS, _ORG_WEIGHTS
            )
        # Most executives in the news are "known" (in the NER gazetteer);
        # a minority are novel first+last combinations the annotator can
        # only catch via patterns — realistic out-of-vocabulary pressure.
        if rng.random() < 0.7:
            self.person = zipf_choice(rng, vocab.PEOPLE, _PEOPLE_WEIGHTS)
        else:
            first = rng.choice(vocab.FIRST_NAMES)
            last = rng.choice(vocab.LAST_NAMES)
            self.person = f"{first} {last}"
        self.person_last = self.person.split()[-1]
        # C-suite titles dominate real executive-change news; weight them
        # up so smart queries like "new CEO" behave as in the paper.
        common = ["CEO", "CTO", "CFO", "COO", "President"]
        if rng.random() < 0.6:
            self.designation = rng.choice(common)
        else:
            self.designation = rng.choice(vocab.DESIGNATIONS)
        self.place = zipf_choice(rng, vocab.PLACES, _PLACE_WEIGHTS)
        self.product = rng.choice(vocab.PRODUCTS)

    def year(self, low: int = 2002, high: int = 2006) -> int:
        return self._rng.randint(low, high)

    def old_year(self) -> int:
        return self._rng.randint(1975, 1999)

    def amount(self) -> str:
        value = self._rng.choice(
            ["1.2", "2.5", "3", "4.8", "5", "7.5", "10", "12", "150", "320",
             "480", "600", "750", "900"]
        )
        unit = self._rng.choice(["million", "billion"])
        return f"${value} {unit}"

    def percent(self) -> str:
        return f"{self._rng.randint(2, 48)}%"

    def quarter(self) -> str:
        return self._rng.choice(
            ["the first quarter", "the second quarter", "the third quarter",
             "the fourth quarter"]
        )


# ---------------------------------------------------------------------------
# Mergers & acquisitions trigger sentences
# ---------------------------------------------------------------------------

def ma_trigger(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A current mergers & acquisitions trigger event."""
    verb = rng.choice(vocab.ACQUISITION_VERBS)
    a, b = pool.company, pool.other_company
    forms = [
        f"{a} {verb} {b} for {pool.amount()}.",
        f"{a} announced on {rng.choice(vocab.WEEKDAYS)} that it {verb} "
        f"{b} in a deal valued at {pool.amount()}.",
        f"{a} {verb} {pool.place}-based {b} later this year.",
        f"In a move to expand its {rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)},"
        f" {a} {verb} {b}.",
        f"{a} said it {verb} {b}, its largest rival in the "
        f"{rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)}.",
        f"Shareholders of {b} approved the merger with {a} announced "
        f"in {rng.choice(vocab.MONTHS)}.",
        f"The acquisition of {b} by {a} is expected to be finalized in "
        f"{pool.quarter()} of {pool.year()}.",
        f"{a} and {b} announced a definitive merger agreement worth "
        f"{pool.amount()}.",
        f"{a} launched a tender offer for all outstanding shares of "
        f"{b}.",
        f"Regulators cleared the proposed combination of {a} and {b} "
        f"on {rng.choice(vocab.WEEKDAYS)}.",
        f"{a} {verb} {b} in an all-stock transaction, the companies "
        f"said in a joint statement.",
        f"Under the terms announced today, {a} will pay "
        f"{pool.amount()} for {b}.",
    ]
    return TemplateSentence(rng.choice(forms), MERGERS_ACQUISITIONS)


def ma_retrospective(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A historical M&A mention — near-positive noise, not a fresh lead."""
    forms = [
        f"Back in {pool.old_year()}, {pool.company} had acquired "
        f"{pool.other_company} in a much smaller deal.",
        f"The company's last major acquisition, {pool.other_company}, "
        f"dates back to {pool.old_year()}.",
        f"Analysts recalled the failed merger between {pool.company} and "
        f"{pool.other_company} in {pool.old_year()}.",
    ]
    return TemplateSentence(rng.choice(forms), None)


# ---------------------------------------------------------------------------
# Change-in-management trigger sentences
# ---------------------------------------------------------------------------

def cim_trigger(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A current change-in-management trigger event."""
    verb = rng.choice(vocab.APPOINTMENT_VERBS)
    company, person, designation = (
        pool.company, pool.person, pool.designation,
    )
    forms = [
        f"{company} {verb} {person} as its new {designation}.",
        f"{company} today {verb} {person} {designation}, effective "
        f"{rng.choice(vocab.MONTHS)} {rng.randint(1, 28)}.",
        f"{person} joins {company} as {designation} after a long tenure "
        f"at {pool.other_company}.",
        f"{company} announced that {person} will assume the role of "
        f"{designation} next month.",
        f"The board of {company} {verb} {person} to the post of "
        f"{designation}.",
        f"{person} has been {verb} {designation} of {company}, the "
        f"company said on {rng.choice(vocab.WEEKDAYS)}.",
        f"{company} has a new {designation}: {person}, formerly of "
        f"{pool.other_company}.",
        f"The new {designation} of {company}, {person}, will start in "
        f"{rng.choice(vocab.MONTHS)}.",
        f"{company} introduced {person} as its new {designation} at a "
        f"press conference in {pool.place}.",
        f"{company} appointed {person} interim {designation} while the"
        f" board conducts a permanent search.",
        f"Effective immediately, {person} becomes {designation} of "
        f"{company}, succeeding a long-serving predecessor.",
        f"In a leadership shakeup, {company} named {person} "
        f"{designation} and reshuffled its senior team.",
    ]
    departure_forms = [
        f"{person}, {designation} of {company}, "
        f"{rng.choice(vocab.DEPARTURE_VERBS)} after {rng.randint(2, 15)} "
        f"years at the helm.",
        f"{company} said its {designation} {person} "
        f"{rng.choice(vocab.DEPARTURE_VERBS)}, and a search for a "
        f"successor is under way.",
    ]
    if rng.random() < 0.25:
        return TemplateSentence(rng.choice(departure_forms),
                                CHANGE_IN_MANAGEMENT)
    return TemplateSentence(rng.choice(forms), CHANGE_IN_MANAGEMENT)


def biography_sentence(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A biography line — the paper's canonical misleading near-positive."""
    start = pool.old_year()
    end = start + rng.randint(2, 9)
    honorific = rng.choice(vocab.HONORIFICS)
    forms = [
        f"{honorific} {pool.person_last} was the {pool.designation} of "
        f"{pool.company} from {start}-{end}.",
        f"{pool.person} served as {pool.designation} of {pool.company} "
        f"between {start} and {end}.",
        f"Before that, {pool.person} spent {rng.randint(3, 12)} years as "
        f"{pool.designation} at {pool.other_company}.",
        f"{pool.person} began his career at {pool.company} in {start}.",
        f"{pool.person} holds a degree from the University of "
        f"{pool.place} and was formerly {pool.designation} of "
        f"{pool.other_company}.",
    ]
    return TemplateSentence(rng.choice(forms), None)


# ---------------------------------------------------------------------------
# Revenue-growth trigger sentences
# ---------------------------------------------------------------------------

def rg_trigger(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A current revenue-growth trigger event."""
    verb = rng.choice(vocab.GROWTH_VERBS)
    noun = rng.choice(vocab.GROWTH_NOUNS)
    company = pool.company
    orientation = rng.choice(
        vocab.POSITIVE_ORIENTATION_PHRASES
        + vocab.NEGATIVE_ORIENTATION_PHRASES
    )
    forms = [
        f"{company} {verb} a {noun} of {pool.percent()} in "
        f"{pool.quarter()}.",
        f"{company} {verb} {noun} of {pool.amount()} for {pool.year()}, "
        f"up {pool.percent()} from a year earlier.",
        f"{company} {verb} {orientation}, with {noun} rising "
        f"{pool.percent()} to {pool.amount()}.",
        f"Quarterly {noun} at {company} rose {pool.percent()} to "
        f"{pool.amount()}, the company {verb.split()[0]} on "
        f"{rng.choice(vocab.WEEKDAYS)}.",
        f"{company} {verb} {noun} of {pool.amount()} in {pool.quarter()},"
        f" citing {orientation}.",
        f"Net income at {company} climbed {pool.percent()} as the company"
        f" saw {orientation}.",
        # Declines are trigger events for the revenue-growth driver too
        # (Figure 8 ranks negative-orientation snippets): a struggling
        # account is also a sales opportunity.
        f"{company} {verb} that quarterly {noun} fell {pool.percent()}"
        f" amid {rng.choice(vocab.NEGATIVE_ORIENTATION_PHRASES)}.",
        f"Revenue at {company} declined {pool.percent()} to "
        f"{pool.amount()}, missing analyst expectations.",
        f"{company} raised its full-year guidance after {noun} grew "
        f"{pool.percent()} in {pool.quarter()}.",
    ]
    return TemplateSentence(rng.choice(forms), REVENUE_GROWTH)


# ---------------------------------------------------------------------------
# Funding-round trigger sentences (extended driver)
# ---------------------------------------------------------------------------

def funding_trigger(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A current funding-round trigger event."""
    verb = rng.choice(vocab.FUNDING_VERBS)
    round_name = rng.choice(vocab.FUNDING_ROUND_NAMES)
    investor = rng.choice(vocab.INVESTOR_NAMES)
    company = pool.company
    forms = [
        f"{company} {verb} {pool.amount()} in {round_name} funding led "
        f"by {investor}.",
        f"{company} announced a {pool.amount()} {round_name} funding "
        f"round on {rng.choice(vocab.WEEKDAYS)}.",
        f"{company} {verb} a {round_name} round of {pool.amount()} to "
        f"expand its {rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)}.",
        f"Investors led by {investor} put {pool.amount()} into "
        f"{company} in its latest {round_name} round.",
        f"{company} closed its {round_name} financing at "
        f"{pool.amount()}, the company said.",
        f"{company} {verb} {pool.amount()} in new funding from "
        f"{investor} and existing backers.",
        f"The {round_name} round brings total capital raised by "
        f"{company} to {pool.amount()}.",
        f"{company} {verb} {pool.amount()} at a valuation of "
        f"{pool.amount()}, with {investor} participating.",
        f"Fresh off a {round_name} funding round, {company} plans to "
        f"hire aggressively in {pool.place}.",
    ]
    return TemplateSentence(rng.choice(forms), FUNDING_ROUNDS)


def funding_retrospective(
    pool: EntityPool, rng: random.Random
) -> TemplateSentence:
    """A historical funding mention — near-positive noise, not a lead."""
    round_name = rng.choice(vocab.FUNDING_ROUND_NAMES)
    forms = [
        f"{pool.company} last raised money in {pool.old_year()}, a "
        f"{round_name} round few investors remember.",
        f"The company's early backers from its {pool.old_year()} "
        f"{round_name} round have long since exited.",
        f"Back in {pool.old_year()}, {pool.company} struggled to close "
        f"its {round_name} round.",
    ]
    return TemplateSentence(rng.choice(forms), None)


# ---------------------------------------------------------------------------
# Layoff trigger sentences (extended driver)
# ---------------------------------------------------------------------------

def layoff_trigger(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """A current layoff trigger event."""
    verb = rng.choice(vocab.LAYOFF_VERBS)
    noun = rng.choice(vocab.LAYOFF_NOUNS)
    company = pool.company
    headcount = rng.randint(40, 5000)
    forms = [
        f"{company} {verb} {headcount} {noun}, about {pool.percent()} "
        f"of its workforce.",
        f"{company} said it {verb} {pool.percent()} of its workforce "
        f"as part of a restructuring.",
        f"{company} announced layoffs affecting {headcount} {noun} in "
        f"{pool.place}.",
        f"In a cost-cutting move, {company} {verb} {headcount} {noun} "
        f"across its {rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)} "
        f"division.",
        f"{company} will reduce headcount by {headcount}, citing "
        f"{rng.choice(vocab.NEGATIVE_ORIENTATION_PHRASES)}.",
        f"The job cuts at {company} will hit {headcount} {noun} by "
        f"{rng.choice(vocab.MONTHS)}.",
        f"{company} {verb} up to {pool.percent()} of staff, the "
        f"company said on {rng.choice(vocab.WEEKDAYS)}.",
        f"{company} confirmed job cuts of {headcount} {noun} after "
        f"{rng.choice(vocab.NEGATIVE_ORIENTATION_PHRASES)}.",
        f"{company} {verb} {headcount} {noun} and will close its "
        f"{pool.place} office.",
    ]
    return TemplateSentence(rng.choice(forms), LAYOFFS)


def layoff_rumor(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """Layoff-adjacent noise: denials and old rounds, not fresh leads."""
    forms = [
        f"{pool.company} denied rumors of layoffs circulating in "
        f"{pool.place}.",
        f"{pool.company} weathered the {pool.old_year()} downturn "
        f"without layoffs, executives like to note.",
        f"A spokesperson said {pool.company} has no plans to cut jobs "
        f"this year.",
    ]
    return TemplateSentence(rng.choice(forms), None)


# ---------------------------------------------------------------------------
# Noise sentences
# ---------------------------------------------------------------------------

def business_noise(pool: EntityPool, rng: random.Random) -> TemplateSentence:
    """Business-flavoured filler that is not a trigger event (Figure 6)."""
    forms = [
        f"{pool.company} is headquartered in {pool.place} and employs "
        f"{rng.randint(200, 90000)} people.",
        f"Shares of {pool.company} closed at ${rng.randint(5, 180)} on "
        f"{rng.choice(vocab.WEEKDAYS)}.",
        f"The {rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)} remains "
        f"competitive, analysts said.",
        f"{pool.company} sells the {pool.product} "
        f"{rng.choice(vocab.OBJECTS)} to customers in {pool.place}.",
        f"A spokesperson for {pool.company} declined to comment.",
        f"For more information, visit the company's website or contact "
        f"its {pool.place} office.",
        f"{pool.company} was founded in {pool.old_year()} and is listed "
        f"on the stock exchange.",
        f"Industry observers expect the "
        f"{rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)} to consolidate.",
        f"The company also announced a new "
        f"{rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)} for its "
        f"{pool.product} line.",
        f"Customers can register for the {pool.place} user conference in "
        f"{rng.choice(vocab.MONTHS)}.",
        f"Analysts at a {pool.place} brokerage kept their rating on "
        f"{pool.company} unchanged.",
        f"{pool.company} opened a support center in {pool.place} "
        f"staffed around the clock.",
        f"The {pool.product} line is available through resellers in "
        f"{rng.randint(5, 80)} countries.",
        f"{pool.company} renewed its sponsorship of the {pool.place} "
        f"technology fair.",
        f"A panel discussion on the {rng.choice(vocab.NEUTRAL_BUSINESS_NOUNS)}"
        f" drew attendees from across the industry.",
    ]
    return TemplateSentence(rng.choice(forms), None)


def background_sentence(rng: random.Random) -> TemplateSentence:
    """Entirely off-topic web text (the random negative class)."""
    topic = rng.choice(vocab.BACKGROUND_TOPICS)
    place = rng.choice(vocab.PLACES)
    month = rng.choice(vocab.MONTHS)
    forms = [
        f"Our guide to {topic} has been updated for {month}.",
        f"Residents of {place} gathered for an afternoon of {topic}.",
        f"The {topic} season opens in {month} this year.",
        f"Here are ten tips for enjoying {topic} on a budget.",
        f"Local volunteers organized {topic} events across {place}.",
        f"Read reviews and ratings about {topic} from our community.",
        f"The weather in {place} stayed mild through the weekend.",
        f"Sign up for our newsletter to get updates about {topic}.",
        f"A new exhibition devoted to {topic} opened in {place}.",
        f"Experts shared advice on {topic} at the {place} fair.",
    ]
    return TemplateSentence(rng.choice(forms), None)


def product_review_sentence(
    pool: EntityPool, rng: random.Random
) -> TemplateSentence:
    """Product-review text: mentions ORG/PROD but carries no trigger."""
    forms = [
        f"We tested the {pool.product} {rng.choice(vocab.OBJECTS)} from "
        f"{pool.company} for two weeks.",
        f"The {pool.product} ships with {rng.randint(2, 64)} gigabytes of "
        f"memory.",
        f"Setup of the {pool.product} took about {rng.randint(5, 45)} "
        f"minutes.",
        f"At ${rng.randint(99, 4999)}, the {pool.product} is priced above "
        f"rivals.",
        f"Overall, the {pool.product} earns {rng.randint(2, 5)} out of 5 "
        f"stars.",
    ]
    return TemplateSentence(rng.choice(forms), None)
