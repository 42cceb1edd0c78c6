"""The recognizer's matching loop as it was before the inert-word memo.

:func:`reference_recognize_words` tries every matcher at every word.
The recognizer now skips words that can start no entity, through a
bounded per-word memo; the property test in ``test_ner.py`` checks that
skipping never changes the entities.
"""

from __future__ import annotations

from repro.text.ner import Entity, NamedEntityRecognizer


def reference_recognize_words(
    ner: NamedEntityRecognizer, words: list[str]
) -> list[Entity]:
    lowers = [word.lower() for word in words]
    stripped = [lower.rstrip(".") for lower in lowers]
    entities: list[Entity] = []
    index = 0
    while index < len(words):
        match = ner._gazetteer.lookup(stripped, index)
        if match is None:
            match = ner._match_shape(words, lowers, index)
        if match is None and ner.config.pattern_backoff:
            match = ner._match_patterns(words, lowers, stripped, index)
        if match is None:
            index += 1
            continue
        label, length = match
        surface = " ".join(words[index : index + length])
        entities.append(Entity(label, index, index + length, surface))
        index += length
    return entities
