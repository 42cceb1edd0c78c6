"""The tokenizer as it was before the one-branch letter pattern.

:func:`reference_tokenize` is the earlier regex, with one alternative per
letter-start shape, walked match by match in Python.  The property tests
in ``test_tokenizer.py`` check that :func:`~repro.text.tokenizer.tokenize`
and :func:`~repro.text.tokenizer.tokenize_words` produce the same tokens,
and ``test_reference_annotator.py`` builds its reference annotation on it.
"""

from __future__ import annotations

import re

from repro.text.tokenizer import ABBREVIATIONS, Token

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    \$\d[\d,]*(?:\.\d+)?          # currency amounts: $4.5  $1,200
  | \d[\d,]*(?:\.\d+)?%           # percentages: 12%  3.5%
  | \d[\d,]*(?:\.\d+)?            # plain numbers: 1998  4,500  3.14
  | [A-Za-z]+(?:\.[A-Za-z]+)+\.?  # dotted abbreviations: U.S.  e.g.
  | [A-Za-z]+\.(?=\s|$)           # word followed by period (maybe abbrev)
  | [A-Za-z]+(?:-[A-Za-z]+)+      # hyphenated words: state-of-the-art
  | [A-Za-z]+'[a-z]+              # contractions / possessives: it's
  | [A-Za-z]+                     # plain words
  | %                             # stray percent sign
  | [^\sA-Za-z0-9]                # any other single symbol
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        raw = match.group()
        start, end = match.span()
        if raw.endswith(".") and len(raw) > 1 and "." not in raw[:-1]:
            if raw.lower() not in ABBREVIATIONS:
                word = raw[:-1]
                split = start + len(word)
                tokens.append(Token(word, start, split))
                tokens.append(Token(".", split, end))
                continue
        tokens.append(Token(raw, start, end))
    return tokens


def reference_tokenize_words(text: str) -> list[str]:
    return [token.text for token in reference_tokenize(text)]
