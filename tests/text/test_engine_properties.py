"""Property tests for the annotation cache (hypothesis).

The cache's contract is load-bearing for the whole ingestion overhaul:
hit/miss accounting feeds the benchmark's acceptance floor, the LRU
bound keeps long-running monitors from growing without limit, and
collision safety is what lets the pipeline key by content hash at all.
Each property is checked against a straightforward reference model.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, strategies as st

import repro.text.annotator as annotator_module
import repro.text.engine as engine_module
import repro.text.pos as pos_module
from repro.text.annotator import Annotator
from repro.text.engine import (
    AnnotationCache,
    AnnotationEngine,
    content_key,
)
from repro.text.sentences import split_sentences

texts_strategy = st.lists(
    st.text(alphabet="ab ", max_size=4), max_size=60
)


@given(texts_strategy, st.integers(min_value=1, max_value=8))
def test_cache_matches_lru_reference_model(sequence, capacity):
    """Hits, misses, evictions and size all track a model LRU."""
    cache = AnnotationCache(capacity)
    reference: "OrderedDict[str, str]" = OrderedDict()
    hits = misses = evictions = 0
    for text in sequence:
        assert cache.get_or_compute(text, str.upper) == text.upper()
        key = content_key(text)
        if key in reference:
            hits += 1
            reference.move_to_end(key)
        else:
            misses += 1
            reference[key] = text
            if len(reference) > capacity:
                reference.popitem(last=False)
                evictions += 1
        assert len(cache) <= capacity
    assert cache.stats.hits == hits
    assert cache.stats.misses == misses
    assert cache.stats.evictions == evictions
    assert cache.stats.lookups == len(sequence)
    assert cache.stats.collisions == 0
    assert len(cache) == len(reference)


def test_repeat_lookup_returns_the_cached_object():
    cache = AnnotationCache(capacity=4)
    first = cache.get_or_compute("some text", lambda text: [text])
    second = cache.get_or_compute("some text", lambda text: [text])
    assert second is first


def test_hash_collision_never_serves_the_wrong_value(monkeypatch):
    """With every text forced onto one key, values stay correct."""
    monkeypatch.setattr(
        engine_module, "content_key", lambda text: "collision"
    )
    cache = AnnotationCache(capacity=8)
    assert cache.get_or_compute("first", str.upper) == "FIRST"
    assert cache.get_or_compute("second", str.upper) == "SECOND"
    assert cache.stats.collisions == 1
    # The resident entry kept its slot: "first" still hits, and the
    # collided text is recomputed (correctly) every time.
    assert cache.get_or_compute("first", str.upper) == "FIRST"
    assert cache.stats.hits == 1
    assert cache.get_or_compute("second", str.upper) == "SECOND"
    assert cache.stats.collisions == 2
    assert len(cache) == 1


@given(st.lists(st.sampled_from(
    [
        "Acme Inc. acquired Widgets.",
        "Revenue rose 12%.",
        "Acme Inc. acquired Widgets. Revenue rose 12%.",
        "",
    ]
), min_size=1, max_size=10))
def test_engine_accounting_is_consistent(sequence):
    engine = AnnotationEngine()
    for text in sequence:
        raw = engine.annotate(text)
        assert engine.annotate(engine.sentences(text)) == raw
        engine.index_terms(text)
    unique = set(sequence)
    n_sentences = [len(split_sentences(text)) for text in unique]
    distinct_sentences = {
        sentence.text for text in unique for sentence in split_sentences(text)
    }
    stats = engine.stats()
    by_product = engine.stats_by_product()
    # Each loop iteration makes four top-level lookups: annotate(text),
    # sentences, annotate(sentence tuple) and index_terms.  Misses add
    # nested lookups once per unique text: the text annotation reads the
    # split and one sentence annotation per sentence, the tuple
    # annotation one sentence annotation per sentence, and index_terms
    # the split and one sentence_terms entry per sentence.
    nested = sum(2 + 3 * n for n in n_sentences)
    assert stats.lookups == 4 * len(sequence) + nested
    # The document split is computed once per unique text; a text and
    # its sentence tuple are two annotation keys.
    assert by_product["sentences"].misses == len(unique)
    assert by_product["annotations"].misses == 2 * len(unique)
    assert by_product["index_terms"].misses == len(unique)
    assert by_product["index_terms"].hits == len(sequence) - len(unique)
    for product in ("sentence_annotations", "sentence_terms"):
        assert by_product[product].misses == len(distinct_sentences)
    assert by_product["sentence_annotations"].lookups == 2 * sum(n_sentences)
    assert by_product["sentence_terms"].lookups == sum(n_sentences)
    assert stats.hits == stats.lookups - stats.misses
    assert sum(s.lookups for s in by_product.values()) == stats.lookups


def test_annotator_memos_stay_within_their_bounds(monkeypatch):
    """Ten times the bound of distinct words never overfills a memo."""
    bound = 40
    monkeypatch.setattr(pos_module, "LEXICAL_MEMO_BOUND", bound)
    monkeypatch.setattr(pos_module, "_LEXICAL_MEMO", {})
    monkeypatch.setattr(annotator_module, "TOKEN_INTERN_BOUND", bound)
    annotator = Annotator()
    before = annotator.annotate("Zorblat shares rose.")
    for index in range(10 * bound):
        annotator.annotate(f"Shares of Word{index} rose.")
        assert len(pos_module._LEXICAL_MEMO) <= bound
        assert len(annotator._interned) <= bound
    assert annotator.annotate("Zorblat shares rose.") == before


def test_engine_annotation_is_computed_once():
    engine = AnnotationEngine()
    first = engine.annotate("Acme Inc. named a new CEO.")
    second = engine.annotate("Acme Inc. named a new CEO.")
    assert second is first
    assert engine.stats().hits == 1
