"""Snippet generation: groups of n consecutive sentences (section 3.1).

*"The snippet generator uses the chunker and splits the documents into
snippets, each of which is a group of n consecutive sentences.  We have
used n = 3 in our system."*

Snippets can be cut from raw text (using the rule-based sentence chunker)
or from a generated :class:`~repro.corpus.generator.Document`, in which
case the ground-truth sentence labels roll up into snippet labels for
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.corpus.generator import Document
from repro.text.sentences import split_sentence_texts


@dataclass(frozen=True)
class Snippet:
    """A group of consecutive sentences from one document."""

    doc_id: str
    index: int
    sentences: tuple[str, ...]
    #: Ground-truth driver ids present in this snippet (evaluation only;
    #: empty for snippets cut from raw text).
    true_drivers: frozenset[str] = field(default_factory=frozenset)

    @property
    def text(self) -> str:
        return " ".join(self.sentences)

    @property
    def snippet_id(self) -> str:
        return f"{self.doc_id}#{self.index}"

    def is_positive_for(self, driver_id: str) -> bool:
        return driver_id in self.true_drivers


class SnippetGenerator:
    """Cuts documents into n-sentence snippets.

    ``window`` is the paper's n (default 3).  ``stride`` controls the
    step between consecutive windows; ``stride == window`` (default)
    yields the paper's disjoint groups, ``stride < window`` yields
    overlapping windows.  A trailing group shorter than ``window`` is
    kept — dropping it would lose trigger events near document ends.

    ``splitter`` is the sentence-splitting hook used by
    :meth:`from_text`; pass
    :meth:`repro.text.engine.AnnotationEngine.sentences` to reuse the
    pipeline-wide annotate-once cache instead of re-splitting the same
    document on every call.
    """

    def __init__(
        self,
        window: int = 3,
        stride: int | None = None,
        splitter: Callable[[str], Sequence[str]] | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.stride = stride if stride is not None else window
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        self.splitter = splitter or split_sentence_texts

    def from_sentences(
        self,
        doc_id: str,
        sentences: Sequence[str],
        labels: list[str | None] | None = None,
    ) -> list[Snippet]:
        """Window a pre-split sentence list into snippets."""
        if labels is not None and len(labels) != len(sentences):
            raise ValueError("labels must align with sentences")
        snippets: list[Snippet] = []
        index = 0
        for start in range(0, max(len(sentences), 1), self.stride):
            group = sentences[start : start + self.window]
            if not group:
                break
            drivers: frozenset[str] = frozenset()
            if labels is not None:
                drivers = frozenset(
                    label
                    for label in labels[start : start + self.window]
                    if label is not None
                )
            snippets.append(
                Snippet(
                    doc_id=doc_id,
                    index=index,
                    sentences=tuple(group),
                    true_drivers=drivers,
                )
            )
            index += 1
            if start + self.window >= len(sentences):
                break
        return snippets

    def from_text(self, doc_id: str, text: str) -> list[Snippet]:
        """Chunk raw text with the sentence chunker, then window it."""
        return self.from_sentences(doc_id, self.splitter(text))

    def from_document(self, document: Document) -> list[Snippet]:
        """Window a generated document, carrying ground-truth labels."""
        sentences = [item.text for item in document.sentences]
        labels = [item.label for item in document.sentences]
        return self.from_sentences(document.doc_id, sentences, labels)
