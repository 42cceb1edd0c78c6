"""Synthetic business-news web: vocabularies, templates, generator, web."""

from repro.corpus.generator import (
    CorpusConfig,
    CorpusGenerator,
    Document,
    LabeledSentence,
    driver_for_doc_type,
)
from repro.corpus.templates import (
    ALL_DRIVERS,
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.corpus.evolve import LATEST_HUB_URL, WebEvolver
from repro.corpus.stats import CorpusStats, compute_stats, render_stats
from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb, build_web

__all__ = [
    "ALL_DRIVERS",
    "CHANGE_IN_MANAGEMENT",
    "CorpusConfig",
    "CorpusGenerator",
    "CorpusStats",
    "compute_stats",
    "render_stats",
    "Document",
    "FRONT_PAGE_URL",
    "LATEST_HUB_URL",
    "LabeledSentence",
    "MERGERS_ACQUISITIONS",
    "Page",
    "REVENUE_GROWTH",
    "SyntheticWeb",
    "WebEvolver",
    "build_web",
    "driver_for_doc_type",
]
