"""Data gathering: store, crawl pipeline, dedup, schedule."""

from repro.gather.dedup import (
    DuplicatePair,
    MinHasher,
    NearDuplicateIndex,
    deduplicate_texts,
    jaccard,
    shingles,
)
from repro.gather.pipeline import DataGatherer, GatherReport
from repro.gather.scheduler import RevisitScheduler
from repro.gather.store import (
    DocumentStore,
    DuplicateDocumentError,
    StoredDocument,
    content_hash,
)

__all__ = [
    "DataGatherer",
    "DocumentStore",
    "DuplicateDocumentError",
    "DuplicatePair",
    "GatherReport",
    "MinHasher",
    "NearDuplicateIndex",
    "RevisitScheduler",
    "StoredDocument",
    "content_hash",
    "deduplicate_texts",
    "jaccard",
    "shingles",
]
