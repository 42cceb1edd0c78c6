"""A snippet's feature row is the sum of its sentences' rows.

The vectorizer featurizes each distinct sentence of a batch once and
composes snippet rows as (snippet x sentence incidence) @ (sentence x
feature counts).  These tests pin that the product equals the token
path it replaced (:mod:`tests.features.helpers`): same vocabulary, and
``==`` on shape and on the CSR data, indices and indptr arrays, for
unigram and n-gram configs, binary on and off, ``min_df`` and
``max_features``, including snippets whose sentences do not compose.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.features.abstraction import AbstractionPolicy
from repro.features.vectorizer import Vectorizer, VectorizerConfig
from repro.text.engine import AnnotationEngine
from tests.features.helpers import (
    assert_same_csr,
    reference_matrix,
    reference_vocabulary,
    snippet_tokens,
)

ENGINE = AnnotationEngine()
POLICIES = (AbstractionPolicy.paper_default(), AbstractionPolicy.none())

#: Closing sentences, and ones that do not close: no final ``.``/``!``/
#: ``?`` token, an abbreviation as the last token, no tokens at all, or
#: an entity that continues into the next sentence ("Acme Widgets" +
#: "Inc announced ..." is one ORG when joined).
SENTENCES = (
    "Acme Corp. named a new chief executive.",
    "It was so.",
    "Revenue rose sharply!",
    "Why?",
    "Wei Novak joined Initech as CEO.",
    "Globex Corp acquired Hooli Systems for $5 billion.",
    "Shares of Acme Corp. rose 12% in March.",
    "Acme Widgets",
    "Inc announced a merger.",
    "Shares rose 5%",
    "Mr.",
    "--",
    "",
    "The deal closed in March 2004",
)

snippets_strategy = st.lists(
    st.lists(st.sampled_from(SENTENCES), max_size=4).map(tuple),
    min_size=1,
    max_size=8,
)
configs_strategy = st.builds(
    VectorizerConfig,
    min_df=st.integers(min_value=1, max_value=3),
    binary=st.booleans(),
    max_features=st.none() | st.integers(min_value=1, max_value=12),
    ngram_range=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3)]),
)


def sentence_vectorizer(config, policy, engine=ENGINE) -> Vectorizer:
    return Vectorizer(
        config, featurize=lambda sentences: engine.features(sentences, policy)
    )


@settings(max_examples=150, deadline=None)
@given(
    snippets_strategy,
    snippets_strategy,
    configs_strategy,
    st.sampled_from(POLICIES),
)
def test_sentence_rows_equal_the_token_path(train, test, config, policy):
    vectorizer = sentence_vectorizer(config, policy).fit(train)
    train_tokens = [snippet_tokens(ENGINE, s, policy) for s in train]
    test_tokens = [snippet_tokens(ENGINE, s, policy) for s in test]
    vocabulary = reference_vocabulary(train_tokens, config)
    assert vectorizer.vocabulary == vocabulary
    for snippets, tokens in ((train, train_tokens), (test, test_tokens)):
        assert_same_csr(
            vectorizer.transform(snippets),
            reference_matrix(tokens, vocabulary, config),
        )
    for snippet, tokens in zip(test, test_tokens):
        assert vectorizer.tokens(snippet) == tokens


def test_a_bigram_row_holds_the_cross_sentence_bigram():
    policy = POLICIES[0]
    first, empty, last = (
        "Acme Corp. named a new chief executive.",
        "It was so.",
        "Revenue rose sharply!",
    )
    (head, _), (middle, _), (tail, _) = ENGINE.features(
        [first, empty, last], policy
    )
    # The joint skips the featureless middle sentence.
    assert middle == ()
    joint = f"{head[-1]}_{tail[0]}"
    config = VectorizerConfig(ngram_range=(1, 2))
    snippet = (first, empty, last)
    vectorizer = sentence_vectorizer(config, policy).fit([snippet])
    row = vectorizer.transform([snippet])
    assert row[0, vectorizer.vocabulary[joint]] == 1.0
    tokens = [snippet_tokens(ENGINE, snippet, policy)]
    assert_same_csr(
        row, reference_matrix(tokens, vectorizer.vocabulary, config)
    )


def test_a_non_composing_snippet_is_featurized_whole():
    policy = POLICIES[0]
    snippet = ("Acme Widgets", "Inc announced a merger.")
    vectorizer = sentence_vectorizer(VectorizerConfig(), policy)
    assert vectorizer.tokens(snippet) == ["__ORG__", "announc", "merger"]
    vectorizer.fit([snippet])
    assert vectorizer.feature_names() == ["__ORG__", "announc", "merger"]


def test_transform_featurizes_only_the_batch_distinct_sentences():
    """A batch of k snippets costs its own distinct sentences, however
    many batches came before (the stream's per-batch transform)."""
    policy = POLICIES[0]
    requested: list[list[str]] = []

    def featurize(sentences):
        requested.append(list(sentences))
        return ENGINE.features(sentences, policy)

    closing = SENTENCES[:7]
    vectorizer = Vectorizer(featurize=featurize).fit([closing])
    for start in range(5):
        batch = [closing[start : start + 3], closing[start + 1 : start + 2]]
        requested.clear()
        vectorizer.transform(batch)
        assert requested == [list(closing[start : start + 3])]


def test_engine_features_are_cached_per_sentence_and_policy():
    engine = AnnotationEngine()
    sentences = ["Revenue rose sharply!", "Why?"]
    first = engine.features(sentences, POLICIES[0])
    assert engine.features(sentences, POLICIES[0]) == first
    engine.features(sentences, POLICIES[1])
    product = engine.stats_by_product()["features"]
    assert (product.hits, product.misses) == (2, 4)


def test_empty_inputs():
    vectorizer = Vectorizer().fit([["acquire", "ceo"], ["ceo"]])
    assert vectorizer.transform([]).shape == (0, 2)
    empty_doc = vectorizer.transform([[]])
    assert empty_doc.shape == (1, 2)
    assert empty_doc.nnz == 0
    no_vocab = Vectorizer(VectorizerConfig(min_df=3)).fit([["acquire"]])
    assert no_vocab.transform([["acquire"]]).shape == (1, 0)


def test_unknown_tokens_are_skipped():
    vectorizer = Vectorizer().fit([["acquire", "ceo"]])
    matrix = vectorizer.transform([["oov", "acquire", "oov"]])
    assert matrix.nnz == 1
    assert matrix[0, vectorizer.vocabulary["acquire"]] == 1.0


def test_fitted_vocabulary_is_interned():
    vectorizer = Vectorizer().fit([["acquire", "ceo"], ["ceo"]])
    assert all(
        name is sys.intern(name) for name in vectorizer.vocabulary
    )


@pytest.mark.parametrize("ngram_range", [(0, 1), (2, 1)])
def test_invalid_ngram_range(ngram_range):
    with pytest.raises(ValueError):
        Vectorizer(VectorizerConfig(ngram_range=ngram_range)).fit([["a"]])
