"""The sentence chunker as it was before the in-place look-ahead.

:func:`reference_split_sentences` copies the rest of the document at
every boundary candidate to find the next non-space character, which
made splitting quadratic in document length.  The property test in
``test_sentences.py`` checks that the chunker, which now finds that
character in place, returns the same sentences.

The two word helpers are copied here too, so a change to the chunker's
own helpers cannot change the reference along with it.
"""

from __future__ import annotations

import re

from repro.text.sentences import Sentence
from repro.text.tokenizer import ABBREVIATIONS

_BOUNDARY_RE = re.compile(r"[.!?]+")


def _word_before(text: str, index: int) -> str:
    """The whitespace-delimited word ending at ``index`` (exclusive)."""
    start = index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:index]


def _is_initial(word: str) -> bool:
    """True for single-letter initials like the ``J`` in ``J. Smith``."""
    return len(word) == 1 and word.isalpha() and word.isupper()


def reference_split_sentences(text: str) -> list[Sentence]:
    sentences: list[Sentence] = []
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        end = match.end()
        mark = match.group()
        if mark.startswith("."):
            before = _word_before(text, match.start())
            candidate = (before + ".").lower()
            if candidate in ABBREVIATIONS or _is_initial(before):
                continue
            if before and before[-1].isdigit():
                if end < len(text) and text[end].isdigit():
                    continue
        tail = text[end:].lstrip()
        if tail and tail[0].islower():
            continue
        raw = text[start:end]
        stripped = raw.strip()
        if stripped:
            lead = len(raw) - len(raw.lstrip())
            sentences.append(Sentence(stripped, start + lead, end))
        start = end
    remainder = text[start:].strip()
    if remainder:
        lead = len(text[start:]) - len(text[start:].lstrip())
        sentences.append(Sentence(remainder, start + lead, len(text)))
    return sentences
