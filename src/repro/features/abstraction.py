"""Feature abstraction: PA vs IV representations and the level chooser.

Section 3.2.2 of the paper contrasts, for every abstraction category
(entity label or POS tag), two random-variable representations:

* **PA (presence-absence)** — X is 1 when the category occurs in a
  snippet, 0 otherwise;
* **IV (instance-valued)** — X ranges over the concrete instances of the
  category ("Washington", "acquired", ...).

Comparing RIG(Y | PA(X)) and RIG(Y | IV(X)) per category tells ETAP which
categories to *abstract* (replace every instance by the category tag —
chosen when PA wins) and which to keep as words (IV wins — the paper
finds this for vb, rb, nn, np, jj).  :class:`AbstractionAnalyzer`
implements the comparison; :class:`AbstractionPolicy` is the resulting
decision, and :func:`abstract_tokens` applies it to annotated text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.features.rig import (
    joint_from_pairs,
    relative_information_gain,
)
from repro.text.annotator import AnnotatedText
from repro.text.ner import ENTITY_CATEGORIES
from repro.text.pos import OPEN_CLASS_TAGS
from repro.text.stem import PorterStemmer
from repro.text.stopwords import is_stopword

def pa_pairs(
    texts: Sequence[AnnotatedText],
    labels: Sequence[int],
    category: str,
) -> list[tuple[str, int]]:
    """Presence-absence observations, one per snippet."""
    pairs = []
    for annotated, label in zip(texts, labels):
        present = any(
            token.category == category for token in annotated.tokens
        )
        pairs.append(("present" if present else "absent", label))
    return pairs


def iv_pairs(
    texts: Sequence[AnnotatedText],
    labels: Sequence[int],
    category: str,
) -> list[tuple[str, int]]:
    """Instance-valued observations: one per occurrence of the category.

    For entity categories the instance is the whole entity surface
    ("acme inc"); for POS categories it is the token.  Snippets without
    the category contribute nothing: IV measures whether the *specific
    instance* carries information beyond mere presence.  (Including an
    absent-marker would make IV a strict refinement of PA, and PA could
    never win the Figure 3/4 comparison.)
    """
    is_entity = category in ENTITY_CATEGORIES
    pairs = []
    for annotated, label in zip(texts, labels):
        if is_entity:
            for entity in annotated.entities:
                if entity.label == category:
                    pairs.append((entity.text.lower(), label))
        else:
            for token in annotated.tokens:
                if token.category == category:
                    pairs.append((token.text.lower(), label))
    return pairs


@dataclass(frozen=True, slots=True)
class RigComparison:
    """RIG of the two representations for one abstraction category."""

    category: str
    rig_pa: float
    rig_iv: float

    @property
    def prefer_abstraction(self) -> bool:
        """True when presence-absence carries at least as much signal."""
        return self.rig_pa >= self.rig_iv


class AbstractionAnalyzer:
    """Computes Figure 3/4-style PA-vs-IV RIG comparisons.

    ``smoothing`` is the Laplace pseudo-count used when estimating
    conditional entropy; it penalizes the spurious information that
    near-unique instance values (company names, person names) appear to
    carry in a finite sample.
    """

    def __init__(self, smoothing: float = 1.0) -> None:
        self.smoothing = smoothing

    def compare(
        self,
        texts: Sequence[AnnotatedText],
        labels: Sequence[int],
        category: str,
    ) -> RigComparison:
        joint_pa = joint_from_pairs(pa_pairs(texts, labels, category))
        joint_iv = joint_from_pairs(iv_pairs(texts, labels, category))
        return RigComparison(
            category=category,
            rig_pa=relative_information_gain(
                joint_pa, smoothing=self.smoothing
            ),
            rig_iv=relative_information_gain(
                joint_iv, smoothing=self.smoothing
            ),
        )

    def compare_all(
        self,
        texts: Sequence[AnnotatedText],
        labels: Sequence[int],
        categories: Iterable[str] | None = None,
    ) -> list[RigComparison]:
        if categories is None:
            categories = list(ENTITY_CATEGORIES) + list(OPEN_CLASS_TAGS)
        return [
            self.compare(texts, labels, category) for category in categories
        ]


@dataclass(frozen=True)
class AbstractionPolicy:
    """Which categories get abstracted to their tag.

    Tokens whose category is in ``abstract_categories`` are replaced by a
    ``__CATEGORY__`` pseudo-token; all other alphabetic tokens are kept as
    (lower-cased, stemmed) words.  Stop words and punctuation/closed-class
    tokens are dropped, matching the paper's pre-processing.
    """

    abstract_categories: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def paper_default(cls) -> "AbstractionPolicy":
        """The paper's conclusion: abstract every entity category."""
        return cls(abstract_categories=frozenset(ENTITY_CATEGORIES))

    @classmethod
    def none(cls) -> "AbstractionPolicy":
        """No abstraction — the plain bag-of-words baseline."""
        return cls(abstract_categories=frozenset())

    def placeholder(self, category: str) -> str:
        return f"__{category}__"


_DROPPED_POS = frozenset({"punct", "sym", "dt", "in", "prp", "cc", "to", "md"})


#: Placeholder strings per category, built once — the f-string format
#: used to run once per abstracted token.
_PLACEHOLDERS: dict[str, str] = {}


def abstract_tokens(
    annotated: AnnotatedText,
    policy: AbstractionPolicy,
    stemmer: PorterStemmer | None = None,
) -> list[str]:
    """Convert an annotated snippet to its feature-token sequence."""
    stemmer = stemmer or PorterStemmer()
    features: list[str] = []
    previous_placeholder: str | None = None
    abstract_categories = policy.abstract_categories
    stem = stemmer.stem
    for token in annotated.tokens:
        entity = token.entity
        if entity is not None and entity in abstract_categories:
            placeholder = _PLACEHOLDERS.get(entity)
            if placeholder is None:
                placeholder = policy.placeholder(entity)
                _PLACEHOLDERS[entity] = placeholder
            # A multi-token entity yields one placeholder, not one per token.
            if placeholder != previous_placeholder:
                features.append(placeholder)
            previous_placeholder = placeholder
            continue
        previous_placeholder = None
        if entity is None and token.pos in _DROPPED_POS:
            continue
        word = token.text.lower()
        if is_stopword(word):
            continue
        if not word[0].isalnum() and not any(ch.isalnum() for ch in word):
            continue
        features.append(stem(word))
    return features
