"""Data gathering: store, crawl pipeline, dedup."""

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
    "GatherReport",
    "StoredDocument",
    "content_hash",
]
