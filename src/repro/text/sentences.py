"""Rule-based sentence boundary detection.

The paper (section 3.1): *"We have built a sentence chunker based on rules
for sentence boundary detection."*  This module is that chunker.  It marks
a period, question mark or exclamation mark as a sentence boundary unless
a rule vetoes it:

* the period belongs to a known abbreviation (``Mr.``, ``Inc.``, ``U.S.``);
* the period sits inside a number (``4.5``) or an initialism (``J. Smith``);
* the next non-space character is lower-case (mid-sentence ellipsis or
  abbreviation the lexicon missed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.text.tokenizer import ABBREVIATIONS


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence with its character span in the source document."""

    text: str
    start: int
    end: int


_BOUNDARY_RE = re.compile(r"[.!?]+")
#: Finds the next non-space character in place: copying the rest of
#: the document at every boundary candidate made splitting quadratic.
_NON_SPACE_RE = re.compile(r"\S")


def _word_before(text: str, index: int) -> str:
    """Return the whitespace-delimited word ending at ``index`` (exclusive).

    Scans backwards from ``index`` instead of regex-searching a copy of
    the whole prefix — this runs once per boundary candidate, so on
    long documents the prefix copies used to dominate the chunker.
    """
    start = index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:index]


def _is_initial(word: str) -> bool:
    """True for single-letter initials like the ``J`` in ``J. Smith``."""
    return len(word) == 1 and word.isalpha() and word.isupper()


def split_sentences(text: str) -> list[Sentence]:
    """Split ``text`` into sentences using the boundary rules above."""
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
                # A period directly after a digit is either a decimal point
                # (next char is a digit) or an end of sentence.
                if end < len(text) and text[end].isdigit():
                    continue
        following = _NON_SPACE_RE.search(text, end)
        if following is not None and following.group().islower():
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


def split_sentence_texts(text: str) -> list[str]:
    """Split and return only the sentence strings."""
    return [sentence.text for sentence in split_sentences(text)]
