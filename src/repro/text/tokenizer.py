"""Regex tokenizer for business-news text.

Produces :class:`Token` objects carrying character offsets so downstream
annotators (POS, NER) can align spans back to the source text.  The token
grammar understands the lexical shapes that matter to ETAP's named-entity
categories: currency amounts (``$4.5``), percentages (``12%``), years
(``1998``), decimal and comma-grouped numbers, abbreviations with internal
periods (``Mr.``, ``U.S.``), hyphenated words and possessives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its character span in the source text."""

    text: str
    start: int
    end: int

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.text


#: Common abbreviations whose trailing period belongs to the token.
ABBREVIATIONS = frozenset(
    {
        "mr.", "ms.", "mrs.", "dr.", "prof.", "sr.", "jr.", "st.",
        "inc.", "corp.", "ltd.", "co.", "llc.", "vs.", "etc.", "rs.",
        "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.", "u.s.", "u.k.", "e.g.", "i.e.",
        "no.", "vol.", "fig.", "approx.",
    }
)

_TOKEN_RE = re.compile(
    r"""
    \$\d[\d,]*(?:\.\d+)?            # currency amounts: $4.5  $1,200
  | \d[\d,]*(?:\.\d+)?%?            # numbers, percentages: 1998  4,500  3.5%
  | [A-Za-z]+(?:                    # a letter run, then at most one of:
        (?:\.[A-Za-z]+)+\.?         #   dotted abbreviations: U.S.  e.g.
      | \.(?=\s|$)                  #   a period before a space or the end
      | (?:-[A-Za-z]+)+             #   hyphenated words: state-of-the-art
      | '[a-z]+                     #   contractions / possessives: it's
    )?
  | [^\sA-Za-z0-9]                  # any other single symbol, % included
    """,
    re.VERBOSE,
)

#: Every group in the pattern is non-capturing, so ``findall`` returns
#: whole tokens.  The letter-run shapes share one branch, so a plain
#: word is scanned once, with no backtracking into its letters.
_findall = _TOKEN_RE.findall


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, keeping character offsets.

    A trailing period is kept attached only for known abbreviations
    (``Mr.``, ``Inc.``); otherwise it is emitted as its own token so the
    sentence chunker can treat it as a boundary candidate.
    """
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        raw = match.group()
        start, end = match.span()
        if raw.endswith(".") and len(raw) > 1 and "." not in raw[:-1]:
            if raw.lower() not in ABBREVIATIONS:
                word = raw[:-1]
                split = start + len(word)
                append(Token(word, start, split))
                append(Token(".", split, end))
                continue
        append(Token(raw, start, end))
    return tokens


def tokenize_words(text: str) -> list[str]:
    """Tokenize and return only the token strings.

    Same token stream as :func:`tokenize`, minus the offset bookkeeping
    — callers that only want strings (index terms, query parsing) skip
    one :class:`Token` allocation per token on the ingestion hot path.
    The regex finds every token in one C-level pass; Python only checks
    each token's last character, to split ``word.`` into ``word`` and
    ``.``.
    """
    raw = _findall(text)
    if "." not in text:
        return raw
    words: list[str] = []
    append = words.append
    for word in raw:
        if (
            word[-1] == "."
            and len(word) > 1
            and "." not in word[:-1]
            and word.lower() not in ABBREVIATIONS
        ):
            append(word[:-1])
            append(".")
        else:
            append(word)
    return words
