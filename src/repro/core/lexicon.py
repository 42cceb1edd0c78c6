"""Semantic-orientation lexicons and PMI-IR induction (section 4).

ETAP ranks revenue-growth trigger events by the semantic orientation of
their phrases: *"Phrases that convey a stronger sense, e.g., 'sharp
decline', 'worst losses' are weighted more than other phrases, e.g.,
'loss' and 'profit'."*  The hand-built lexicon here mirrors the paper's
examples; :func:`induce_lexicon` implements the automated alternative the
paper points to (Turney [14], PMI-IR): a candidate phrase's orientation
is estimated from its co-occurrence with positive vs negative seed words
in a document collection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.search.engine import SearchEngine


@dataclass
class OrientationLexicon:
    """Weighted positive/negative phrases; longest-phrase-first scoring."""

    weights: dict[str, float] = field(default_factory=dict)

    def add(self, phrase: str, weight: float) -> None:
        phrase = " ".join(phrase.lower().split())
        if not phrase:
            raise ValueError("phrase must be non-empty")
        self.weights[phrase] = weight

    def score(self, text: str) -> float:
        """Sum of matched phrase weights; longer phrases shadow shorter.

        ``sharp decline`` must not *also* count its substring ``decline``:
        matching is greedy over word n-grams, longest first, and consumed
        word positions are excluded from shorter matches.
        """
        words = [word.strip(".,;:!?\"'()").lower() for word in text.split()]
        consumed = [False] * len(words)
        total = 0.0
        max_len = max(
            (len(phrase.split()) for phrase in self.weights), default=0
        )
        for length in range(max_len, 0, -1):
            for start in range(0, len(words) - length + 1):
                if any(consumed[start : start + length]):
                    continue
                candidate = " ".join(words[start : start + length])
                weight = self.weights.get(candidate)
                if weight is not None:
                    total += weight
                    for position in range(start, start + length):
                        consumed[position] = True
        return total

    def __len__(self) -> int:
        return len(self.weights)


def revenue_growth_lexicon() -> OrientationLexicon:
    """The manually constructed lexicon for the revenue-growth driver.

    Strong phrases carry weight +/-2, plain sentiment words +/-1 —
    the paper's 'sharp decline' > 'loss' ordering.
    """
    lexicon = OrientationLexicon()
    strong_positive = [
        "significant growth", "solid quarter", "record profits",
        "strong performance", "robust demand", "impressive gains",
        "stellar results", "remarkable turnaround", "substantial increase",
        "healthy margins",
    ]
    strong_negative = [
        "severe losses", "sharp decline", "worst losses", "steep drop",
        "significant downturn", "heavy losses", "dismal quarter",
        "substantial decrease", "disappointing results", "weak demand",
    ]
    weak_positive = ["profit", "growth", "gain", "rose", "climbed", "up"]
    weak_negative = ["loss", "decline", "drop", "fell", "down", "shrank"]
    for phrase in strong_positive:
        lexicon.add(phrase, 2.0)
    for phrase in strong_negative:
        lexicon.add(phrase, -2.0)
    for phrase in weak_positive:
        lexicon.add(phrase, 1.0)
    for phrase in weak_negative:
        lexicon.add(phrase, -1.0)
    return lexicon


def induce_lexicon(
    engine: SearchEngine,
    candidates: Iterable[str],
    positive_seeds: Iterable[str] = ("excellent", "growth", "profit"),
    negative_seeds: Iterable[str] = ("poor", "loss", "decline"),
    scale: float = 2.0,
) -> OrientationLexicon:
    """PMI-IR orientation induction over an indexed collection [14].

    For each candidate phrase::

        SO(p) = log2(hits(p, pos_seeds) * hits(neg_seeds)
                     / (hits(p, neg_seeds) * hits(pos_seeds)))

    where ``hits(p, seeds)`` counts documents containing both the phrase
    and any seed (document-level co-occurrence stands in for Turney's
    NEAR operator).  Weights are clipped to ``[-scale, scale]``.
    """
    positive_seeds = list(positive_seeds)
    negative_seeds = list(negative_seeds)
    if not positive_seeds or not negative_seeds:
        raise ValueError("seed lists must be non-empty")

    def docs_matching(query: str) -> set[str]:
        return {
            hit.doc_key
            for hit in engine.search(query, top_k=engine.index.n_docs or 1)
        }

    pos_docs: set[str] = set()
    for seed in positive_seeds:
        pos_docs |= docs_matching(seed)
    neg_docs: set[str] = set()
    for seed in negative_seeds:
        neg_docs |= docs_matching(seed)

    lexicon = OrientationLexicon()
    smoothing = 0.5
    for phrase in candidates:
        phrase_docs = docs_matching(f'"{phrase}"')
        if not phrase_docs:
            continue
        with_pos = len(phrase_docs & pos_docs) + smoothing
        with_neg = len(phrase_docs & neg_docs) + smoothing
        baseline = (len(pos_docs) + smoothing) / (len(neg_docs) + smoothing)
        orientation = math.log2((with_pos / with_neg) / baseline)
        lexicon.add(
            phrase, max(-scale, min(scale, orientation))
        )
    return lexicon
