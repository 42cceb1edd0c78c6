"""Synthetic business-news document generator.

This is the reproduction's stand-in for the 2005 Web that ETAP crawled.
It emits :class:`Document` objects with per-sentence ground-truth labels,
covering the document populations the paper's evaluation depends on:

* ``ma_news`` — articles about a current merger or acquisition;
* ``cim_news`` — articles about a current executive change;
* ``rg_news`` — quarterly/annual earnings articles;
* ``biography`` — executive biography pages, the misleading near-
  positives of section 5.2;
* ``retrospective`` — historical M&A mentions, near-positive noise;
* ``product_review`` — ORG/PROD-rich pages without trigger events;
* ``background`` — off-topic web pages (the random negative class).

Every document interleaves trigger sentences with noise sentences, so
that — exactly as in Figures 5 and 6 of the paper — even a relevant page
yields both trigger snippets and non-trigger snippets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus import templates, vocab
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    FUNDING_ROUNDS,
    LAYOFFS,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
    EntityPool,
    TemplateSentence,
)

DOC_TYPES = (
    "ma_news", "cim_news", "rg_news", "biography", "retrospective",
    "product_review", "company_profile", "background",
    # Extended-driver doc types: absent from the default mix, so the
    # paper-faithful corpus is unchanged unless a recipe opts in.
    "funding_news", "layoff_news",
)

#: Doc types whose trigger sentences are genuine current events.
TRIGGER_DOC_TYPES = {
    "ma_news", "cim_news", "rg_news", "funding_news", "layoff_news",
}

_DRIVER_FOR_DOC_TYPE = {
    "ma_news": MERGERS_ACQUISITIONS,
    "cim_news": CHANGE_IN_MANAGEMENT,
    "rg_news": REVENUE_GROWTH,
    "funding_news": FUNDING_ROUNDS,
    "layoff_news": LAYOFFS,
}

#: Inverse of :data:`_DRIVER_FOR_DOC_TYPE` — the trigger doc type that
#: carries positives for each driver (used as query-evaluation ground
#: truth by :mod:`repro.queries`).
DOC_TYPE_FOR_DRIVER = {
    driver: doc_type for doc_type, driver in _DRIVER_FOR_DOC_TYPE.items()
}


@dataclass(frozen=True, slots=True)
class LabeledSentence:
    """One sentence with its ground-truth driver label (or ``None``)."""

    text: str
    label: str | None


@dataclass(frozen=True)
class Document:
    """A generated web document with ground truth attached."""

    doc_id: str
    url: str
    title: str
    doc_type: str
    sentences: tuple[LabeledSentence, ...]
    companies: tuple[str, ...]
    #: Day (on the simulated calendar) this page was published.
    published_day: int = 0

    @property
    def text(self) -> str:
        return " ".join(sentence.text for sentence in self.sentences)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation.

    ``mix`` maps doc type -> relative weight; the default mix makes
    trigger documents a small minority of the web, as in reality.
    """

    seed: int = 7
    #: Length of the simulated publication calendar, in days; each
    #: generated document gets a ``published_day`` in [0, timeline_days).
    timeline_days: int = 90
    mix: dict[str, float] = field(
        default_factory=lambda: {
            # The collection D mirrors what ETAP's data-gathering
            # component assembles: "documents related to companies and
            # financial news" (section 2) — business-heavy, with trigger
            # articles a minority and a residue of off-topic pages the
            # focused crawl picked up anyway.
            "ma_news": 0.07,
            "cim_news": 0.07,
            "rg_news": 0.07,
            "biography": 0.03,
            "retrospective": 0.02,
            "product_review": 0.13,
            "company_profile": 0.38,
            "background": 0.23,
        }
    )
    min_sentences: int = 6
    max_sentences: int = 14


class CorpusGenerator:
    """Deterministic generator for the synthetic web corpus.

    ``start_id`` offsets the doc-id counter, so two generators can share
    a web without colliding: a seed corpus starts at 0 while an evolver
    publishing fresh pages starts at 1,000,000 (see
    :class:`~repro.corpus.evolve.WebEvolver`).  Ids keep their
    ``doc-NNNNNN`` shape — the field simply grows past six digits.
    """

    def __init__(
        self,
        config: CorpusConfig | None = None,
        start_id: int = 0,
    ) -> None:
        if start_id < 0:
            raise ValueError("start_id must be >= 0")
        self.config = config or CorpusConfig()
        self._rng = random.Random(self.config.seed)
        self._counter = start_id

    # -- per-type article builders ------------------------------------------

    def _article_sentences(
        self,
        pool: EntityPool,
        trigger,
        near_positive,
        trigger_ratio: float,
    ) -> list[TemplateSentence]:
        """News articles follow the inverted pyramid: the lead sentences
        report the event, then context (business noise, and for some
        drivers near-positive history such as biography lines) follows.
        The body still occasionally restates the event, so trigger
        sentences are not confined to the first window."""
        rng = self._rng
        count = rng.randint(
            self.config.min_sentences, self.config.max_sentences
        )
        lead = [trigger(pool, rng) for _ in range(rng.randint(1, 2))]
        body: list[TemplateSentence] = []
        for _ in range(count - len(lead)):
            roll = rng.random()
            if roll < trigger_ratio * 0.5:
                body.append(trigger(pool, rng))
            elif roll < trigger_ratio * 0.5 + 0.15 and near_positive:
                body.append(near_positive(pool, rng))
            else:
                body.append(templates.business_noise(pool, rng))
        rng.shuffle(body)
        return lead + body

    def _build_ma_news(self, pool: EntityPool) -> list[TemplateSentence]:
        return self._article_sentences(
            pool, templates.ma_trigger, templates.ma_retrospective, 0.30
        )

    def _build_cim_news(self, pool: EntityPool) -> list[TemplateSentence]:
        return self._article_sentences(
            pool, templates.cim_trigger, templates.biography_sentence, 0.30
        )

    def _build_rg_news(self, pool: EntityPool) -> list[TemplateSentence]:
        return self._article_sentences(
            pool, templates.rg_trigger, None, 0.35
        )

    def _build_funding_news(
        self, pool: EntityPool
    ) -> list[TemplateSentence]:
        return self._article_sentences(
            pool, templates.funding_trigger,
            templates.funding_retrospective, 0.30,
        )

    def _build_layoff_news(
        self, pool: EntityPool
    ) -> list[TemplateSentence]:
        return self._article_sentences(
            pool, templates.layoff_trigger, templates.layoff_rumor, 0.30
        )

    def _build_biography(self, pool: EntityPool) -> list[TemplateSentence]:
        rng = self._rng
        count = rng.randint(
            self.config.min_sentences, self.config.max_sentences
        )
        sentences = [
            templates.biography_sentence(pool, rng) for _ in range(count - 2)
        ]
        sentences += [templates.business_noise(pool, rng) for _ in range(2)]
        rng.shuffle(sentences)
        return sentences

    def _build_retrospective(self, pool: EntityPool) -> list[TemplateSentence]:
        rng = self._rng
        count = rng.randint(self.config.min_sentences, 10)
        sentences = []
        for _ in range(count):
            if rng.random() < 0.5:
                sentences.append(templates.ma_retrospective(pool, rng))
            else:
                sentences.append(templates.business_noise(pool, rng))
        return sentences

    def _build_product_review(
        self, pool: EntityPool
    ) -> list[TemplateSentence]:
        rng = self._rng
        count = rng.randint(self.config.min_sentences, 10)
        return [
            templates.product_review_sentence(pool, rng)
            for _ in range(count)
        ]

    def _build_company_profile(
        self, pool: EntityPool
    ) -> list[TemplateSentence]:
        """Corporate boilerplate: about-us pages, press contacts, catalog
        copy — business vocabulary with no trigger events.  These pages
        keep the negative class honest: without them, generic business
        words become spurious positive evidence."""
        rng = self._rng
        count = rng.randint(
            self.config.min_sentences, self.config.max_sentences
        )
        return [
            templates.business_noise(pool, rng) for _ in range(count)
        ]

    def _build_background(self, pool: EntityPool) -> list[TemplateSentence]:
        rng = self._rng
        count = rng.randint(
            self.config.min_sentences, self.config.max_sentences
        )
        return [templates.background_sentence(rng) for _ in range(count)]

    # -- public API ----------------------------------------------------------

    def generate_document(self, doc_type: str) -> Document:
        """Generate one document of the given type."""
        if doc_type not in DOC_TYPES:
            raise ValueError(f"unknown doc type: {doc_type!r}")
        pool = EntityPool(self._rng)
        builder = getattr(self, f"_build_{doc_type}")
        sentences = builder(pool)
        self._counter += 1
        doc_id = f"doc-{self._counter:06d}"
        title = self._title_for(doc_type, pool)
        url = self._url_for(doc_type, doc_id)
        companies: tuple[str, ...] = ()
        if doc_type != "background":
            companies = (pool.company, pool.other_company)
        return Document(
            doc_id=doc_id,
            url=url,
            title=title,
            doc_type=doc_type,
            sentences=tuple(
                LabeledSentence(item.text, item.label) for item in sentences
            ),
            companies=companies,
            published_day=self._rng.randrange(
                max(self.config.timeline_days, 1)
            ),
        )

    def generate(self, n_docs: int) -> list[Document]:
        """Generate ``n_docs`` documents following the configured mix."""
        types = list(self.config.mix)
        weights = [self.config.mix[name] for name in types]
        documents: list[Document] = []
        while len(documents) < n_docs:
            doc_type = self._rng.choices(types, weights)[0]
            document = self.generate_document(doc_type)
            documents.append(document)
            if len(documents) < n_docs and doc_type in TRIGGER_DOC_TYPES:
                # A spent draw: every seed's web, goldens and digests
                # depend on the random stream it advances.
                self._rng.random()
        return documents

    def _title_for(self, doc_type: str, pool: EntityPool) -> str:
        titles = {
            "ma_news": f"{pool.company} to acquire {pool.other_company}",
            "cim_news": f"{pool.company} names new {pool.designation}",
            "rg_news": f"{pool.company} reports quarterly results",
            "funding_news": f"{pool.company} raises new funding",
            "layoff_news": f"{pool.company} announces job cuts",
            "biography": f"Profile: {pool.person}",
            "retrospective": f"A history of deals at {pool.company}",
            "product_review": f"Review: {pool.product}",
            "company_profile": f"About {pool.company}",
            "background": f"{self._rng.choice(vocab.BACKGROUND_TOPICS)}"
            f" in {pool.place}".capitalize(),
        }
        return titles[doc_type]

    def _url_for(self, doc_type: str, doc_id: str) -> str:
        site = {
            "ma_news": "news.example.com",
            "cim_news": "news.example.com",
            "rg_news": "finance.example.com",
            "funding_news": "venture.example.com",
            "layoff_news": "news.example.com",
            "biography": "people.example.com",
            "retrospective": "archive.example.com",
            "product_review": "reviews.example.com",
            "company_profile": "corporate.example.com",
            "background": "blog.example.com",
        }[doc_type]
        return f"http://{site}/{doc_type}/{doc_id}.html"


def driver_for_doc_type(doc_type: str) -> str | None:
    """The sales driver a trigger doc type corresponds to, else ``None``."""
    return _DRIVER_FOR_DOC_TYPE.get(doc_type)
