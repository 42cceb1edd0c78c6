"""Sentence-composed annotation equals whole-text annotation.

:meth:`AnnotationEngine.annotate` builds a snippet's annotation from
the cached annotations of its own sentences whenever the composition
rule holds, and annotates the whole text otherwise.  Either way the
result must equal the reference annotator's
(``tests/text/test_reference_annotator``) on the whole text.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.snippets import SnippetGenerator
from repro.gather.pipeline import DataGatherer
from repro.text.annotator import AnnotatedText
from repro.text.engine import AnnotationEngine
from repro.text.ner import NamedEntityRecognizer
from tests.text.test_reference_annotator import (
    EDGE_CASES,
    NER_CONFIG,
    reference_annotate,
    template_sentences,
    texts,
)

REFERENCE_NER = NamedEntityRecognizer(NER_CONFIG)
ENGINE = AnnotationEngine(NER_CONFIG)

sentence_lists = st.lists(
    st.one_of(template_sentences, st.sampled_from(EDGE_CASES)), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(sentence_lists)
def test_composed_annotation_equals_reference(sentences):
    text = " ".join(sentences)
    assert ENGINE.annotate(text) == reference_annotate(text, REFERENCE_NER)


@settings(max_examples=200, deadline=None)
@given(texts, st.integers(min_value=1, max_value=4))
# Abutting sentences: the split cuts after ``rose.``, but the document
# text tokenizes ``rose.Beta`` whole.
@example("Acme rose.Beta fell. Profits were flat.", 3)
# ``A.B.`` ends a sentence in one token: the snippet is annotated whole.
@example("Profits rose at A.B. XYZ shares fell.", 3)
def test_snippet_annotation_equals_reference(text, window):
    """A snippet is annotated from its own sentences, never re-split."""
    snippets = SnippetGenerator(window=window, splitter=ENGINE.sentences)
    cut = snippets.from_text("d", text)
    splits = ENGINE.stats_by_product()["sentences"].lookups
    for snippet in cut:
        expected = reference_annotate(snippet.text, REFERENCE_NER)
        assert ENGINE.annotate(snippet.sentences) == expected
    assert ENGINE.stats_by_product()["sentences"].lookups == splits


def test_sentence_shared_by_two_snippets_is_annotated_once():
    engine = AnnotationEngine(NER_CONFIG)
    engine.annotate("Acme Inc grew. Revenue rose 12 percent.")
    engine.annotate("Revenue rose 12 percent. Globex Corp shrank.")
    product = engine.stats_by_product()["sentence_annotations"]
    assert (product.lookups, product.misses) == (4, 3)


def test_text_breaking_the_rule_is_annotated_whole():
    """A sentence ending in a token other than ``.``/``!``/``?``.

    ``A.B.`` closes the first sentence as one abbreviation token, so the
    tagger's sentence-initial state carries over: ``XYZ`` is a proper
    noun in the whole text but a common noun when it opens a sentence.
    Composing would be wrong; the engine must annotate the whole text.
    """
    text = "Profits rose at A.B. XYZ shares fell."
    engine = AnnotationEngine(NER_CONFIG)
    whole = engine.annotate(text)
    assert whole == reference_annotate(text, REFERENCE_NER)
    first, second = (
        engine.annotator.annotate(sentence)
        for sentence in engine.sentences(text)
    )
    naive = AnnotatedText(text, first.tokens + second.tokens, ())
    assert whole.tokens != naive.tokens


def test_text_not_split_at_whitespace_is_annotated_whole():
    text = 'He said "Yes." Then he left.'
    engine = AnnotationEngine(NER_CONFIG)
    assert engine.annotate(text) == reference_annotate(text, REFERENCE_NER)
    product = engine.stats_by_product()["sentence_annotations"]
    assert product.lookups == 0


def test_every_corpus_snippet_composes_exactly(small_web):
    """Exhaustive: every snippet of a 300-page corpus, zero mismatches."""
    gatherer = DataGatherer(small_web, max_pages=10_000)
    gatherer.gather()
    engine = AnnotationEngine(NER_CONFIG)
    snippets = SnippetGenerator(splitter=engine.sentences)
    mismatches = []
    n_snippets = 0
    for doc_id in gatherer.store.doc_ids():
        for snippet in snippets.from_text(
            doc_id, gatherer.store.get(doc_id).text
        ):
            n_snippets += 1
            expected = reference_annotate(snippet.text, REFERENCE_NER)
            if engine.annotate(snippet.text) != expected:
                mismatches.append(snippet.snippet_id)
    assert n_snippets > 1000
    assert mismatches == []
    # The corpus repeats sentences across snippets: composition reuses.
    assert engine.stats_by_product()["sentence_annotations"].hits > 0
