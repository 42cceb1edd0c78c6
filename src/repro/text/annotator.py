"""Combined annotation pipeline: tokens -> POS tags + named entities.

This is the "annotator" box of Figure 2 in the paper.  Every token in a
snippet receives exactly one *abstraction category*: the entity label if
the named-entity recognizer claimed the token, otherwise its
part-of-speech tag ("Any entity that did not fall in the above categories
was assigned a part-of-speech category", section 3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.text.ner import Entity, NamedEntityRecognizer, NerConfig
from repro.text.pos import tag_words
from repro.text.tokenizer import tokenize_words

#: Upper bound on an annotator's interned-token table.  The table is
#: cleared when it fills, so an unbounded vocabulary cannot grow it.
TOKEN_INTERN_BOUND = 100_000


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    """A token with its part-of-speech tag and (optional) entity label.

    ``category`` is the abstraction category the token contributes to:
    the entity label when inside an entity span, else the POS tag.
    """

    text: str
    pos: str
    entity: str | None

    @property
    def category(self) -> str:
        return self.entity if self.entity is not None else self.pos


@dataclass(frozen=True)
class AnnotatedText:
    """A fully annotated piece of text (typically one snippet)."""

    text: str
    tokens: tuple[AnnotatedToken, ...]
    entities: tuple[Entity, ...]

    def words(self) -> list[str]:
        return [token.text for token in self.tokens]


class Annotator:
    """Runs tokenization, POS tagging and NER over raw text.

    One pass over the token strings: lexical tags and context patches
    (:func:`~repro.text.pos.tag_words`), then NER over the same words.
    Equal ``(text, pos, entity)`` triples share one interned
    :class:`AnnotatedToken`, so a corpus holds one object per distinct
    annotated word instead of one per occurrence.
    """

    def __init__(self, ner_config: NerConfig | None = None) -> None:
        self._ner = NamedEntityRecognizer(ner_config)
        self._interned: dict[tuple[str, str, str | None], AnnotatedToken] = {}

    def annotate(self, text: str) -> AnnotatedText:
        words = tokenize_words(text)
        tags = tag_words(words)
        entities = self._ner.recognize_words(words)
        if entities:
            labels: list[str | None] = [None] * len(words)
            for entity in entities:
                labels[entity.start : entity.end] = [entity.label] * (
                    entity.end - entity.start
                )
            keys = list(zip(words, tags, labels))
        else:
            keys = list(zip(words, tags, repeat(None)))
        # Almost every key is already interned: one C-level lookup pass,
        # and :meth:`_token` only at the misses.
        tokens = list(map(self._interned.get, keys))
        if not all(tokens):
            for index, token in enumerate(tokens):
                if token is None:
                    tokens[index] = self._token(keys[index])
        return AnnotatedText(
            text=text, tokens=tuple(tokens), entities=tuple(entities)
        )

    def _token(self, key: tuple[str, str, str | None]) -> AnnotatedToken:
        interned = self._interned
        token = interned.get(key)
        if token is None:
            if len(interned) >= TOKEN_INTERN_BOUND:
                interned.clear()
            token = interned[key] = AnnotatedToken(*key)
        return token
