"""Data gathering: store, crawl pipeline, dedup."""

from repro.gather.dedup import (
    DuplicatePair,
    MinHasher,
    NearDuplicateIndex,
    jaccard,
    shingles,
)
from repro.gather.pipeline import DataGatherer, GatherReport
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
    "StoredDocument",
    "content_hash",
    "jaccard",
    "shingles",
]
