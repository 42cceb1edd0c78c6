"""Search substrate: inverted index, ranking, engine, focused crawler."""

from repro.search.crawler import (
    BUSINESS_KEYWORDS,
    CrawlResult,
    FocusedCrawler,
    business_relevance,
)
from repro.search.engine import (
    ParsedQuery,
    SearchEngine,
    SearchResult,
    parse_query,
)
from repro.search.index import InvertedIndex, normalize_term
from repro.search.scoring import bm25

__all__ = [
    "BUSINESS_KEYWORDS",
    "CrawlResult",
    "FocusedCrawler",
    "InvertedIndex",
    "ParsedQuery",
    "SearchEngine",
    "SearchResult",
    "bm25",
    "business_relevance",
    "normalize_term",
    "parse_query",
]
