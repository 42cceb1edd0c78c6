"""``parse_query`` equals the two-pass parse it replaced.

The reference below is the parser as it was: tokenize each quoted
phrase on its own, cut the phrases out of the query, tokenize what is
left.  The one-pass parser must return the same phrases and terms for
any query, quotes unbalanced, empty or glued to words included.  The
last test pins what ``SearchResult`` keeps as a named tuple: its
fields, equality, hash and immutability.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import ParsedQuery, SearchResult, parse_query
from repro.text.tokenizer import tokenize_words

_PHRASE_RE = re.compile(r'"([^"]+)"')


def reference_parse_query(query: str) -> ParsedQuery:
    phrases = []
    for match in _PHRASE_RE.finditer(query):
        words = tuple(word.lower() for word in tokenize_words(match.group(1)))
        if words:
            phrases.append(words)
    remainder = _PHRASE_RE.sub(" ", query)
    terms = tuple(
        word.lower()
        for word in tokenize_words(remainder)
        if word.isalnum() or any(char.isalnum() for char in word)
    )
    return ParsedQuery(tuple(phrases), terms)


@pytest.mark.parametrize(
    "query",
    [
        "",
        '""',
        '" "',
        '"new ceo" Initech Systems',
        '"acme inc." merger',
        'Inc."new ceo"',
        'ceo."U.S. deal"x',
        '"a"b"c"',
        'a "b c',
        '"," "$4.5 %" it\'s',
        '"Dr." "J. Smith" e.g. state-of-the-art',
        "\"x\n\" y.\n",
    ],
)
def test_examples_match_the_reference(query):
    assert parse_query(query) == reference_parse_query(query)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                '"', '"', " ", " ", "\n", ".", ",", "'", "-", "$", "%",
                "a", "B", "ceo", "Inc", "inc.", "U.S.", "e.g.", "J",
                "4", "1,200", "3.5", "é", "!",
            ]
        ),
        max_size=30,
    ).map("".join)
)
def test_parse_matches_the_two_pass_reference(query):
    assert parse_query(query) == reference_parse_query(query)


@given(st.text(max_size=40))
def test_parse_matches_the_reference_on_any_text(query):
    assert parse_query(query) == reference_parse_query(query)


def test_search_result_is_an_immutable_value():
    result = SearchResult("doc-1", 1.5, "Title")
    assert (result.doc_key, result.score, result.title) == (
        "doc-1", 1.5, "Title",
    )
    assert result == SearchResult("doc-1", 1.5, "Title")
    assert result != SearchResult("doc-1", 1.25, "Title")
    assert hash(result) == hash(SearchResult("doc-1", 1.5, "Title"))
    with pytest.raises(AttributeError):
        result.score = 2.0
