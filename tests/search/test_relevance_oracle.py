"""``business_relevance`` equals a frozen word-by-word reference.

The shipped scorer finds keyword words with one regex pass over the
lowercased text.  The reference below is the original definition: split
on whitespace, lowercase and strip ``.``/``,`` from each word, and count
the keywords among the resulting words.  The two must return the same
float for every text, including non-ASCII whitespace, runs of ``.`` and
``,``, case variants of the keywords and empty pages.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import Page, build_web
from repro.search.crawler import BUSINESS_KEYWORDS, business_relevance


def reference_relevance(page: Page) -> float:
    """Fraction of business keywords present in the page text."""
    words = {word.lower().strip(".,") for word in page.text.split()}
    if not words:
        return 0.0
    hits = len(BUSINESS_KEYWORDS & words)
    return hits / len(BUSINESS_KEYWORDS)


def page_of(text: str) -> Page:
    return Page(url="http://x.example.com/", title="", text=text, links=())


#: Whitespace str.split() and the regex engine both honour, beyond ASCII
#: space, plus look-alikes that are not whitespace (zero-width space,
#: Mongolian vowel separator, BOM).
SPACES = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2007\u200a"
    "\u2028\u2029\u202f\u205f\u3000\u200b\u180e\ufeff"
)


def case_variants(word: str) -> st.SearchStrategy[str]:
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(
            char.upper() if flip else char for char, flip in zip(word, upper)
        )
    )


pieces = st.one_of(
    st.sampled_from(sorted(BUSINESS_KEYWORDS)).flatmap(case_variants),
    st.text(alphabet=".,", max_size=4),
    st.text(alphabet=SPACES, min_size=1, max_size=3),
    # Letters whose lowercase is or resembles an ASCII letter
    # (Kelvin sign, dotted capital I, long s, Greek sigma).
    st.sampled_from(["\u212a", "\u0130", "\u017f", "\u03a3", "s", "d"]),
    st.text(max_size=6),
)


@settings(max_examples=250, deadline=None)
@given(st.lists(pieces, max_size=24).map("".join))
def test_one_pass_equals_the_word_by_word_reference(text):
    page = page_of(text)
    assert business_relevance(page) == reference_relevance(page)


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_arbitrary_unicode_text(text):
    page = page_of(text)
    assert business_relevance(page) == reference_relevance(page)


def test_every_page_of_a_generated_web():
    web = build_web(200, CorpusConfig(seed=5))
    for url in web.urls:
        page = web.peek(url)
        assert business_relevance(page) == reference_relevance(page)


def test_edge_cases():
    for text in (
        "", "   ", "..,,", "CEO", ".,ceo,.", "ceo.cto", "acquired",
        "acquiredx", "x,merger", "Merger.\xa0Profit,", "ceo\u200bcfo",
        "ceo\u3000cfo", "\u212aceo", "ceo ceo CEO",
    ):
        page = page_of(text)
        assert business_relevance(page) == reference_relevance(page), text
