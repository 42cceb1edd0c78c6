"""Property tests for the annotation cache (hypothesis).

The cache's contract is load-bearing for the whole ingestion overhaul:
hit/miss accounting feeds the benchmark's acceptance floor, and the LRU
bound keeps long-running monitors from growing without limit.  Each
property is checked against a straightforward reference model.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

from hypothesis import given, strategies as st

import repro.text.annotator as annotator_module
import repro.text.pos as pos_module
from repro.text.annotator import Annotator
from repro.text.engine import AnnotationCache, AnnotationEngine
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
        if text in reference:
            hits += 1
            reference.move_to_end(text)
        else:
            misses += 1
            reference[text] = text
            if len(reference) > capacity:
                reference.popitem(last=False)
                evictions += 1
        assert len(cache) <= capacity
    assert cache.stats.hits == hits
    assert cache.stats.misses == misses
    assert cache.stats.evictions == evictions
    assert cache.stats.lookups == len(sequence)
    assert len(cache) == len(reference)


def test_repeat_lookup_returns_the_cached_object():
    cache = AnnotationCache(capacity=4)
    first = cache.get_or_compute("some text", lambda text: [text])
    second = cache.get_or_compute("some text", lambda text: [text])
    assert second is first


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
    n_called = [len(split_sentences(text)) for text in sequence]
    distinct_sentences = {
        sentence.text for text in unique for sentence in split_sentences(text)
    }
    stats = engine.stats()
    by_product = engine.stats_by_product()
    # Each loop iteration makes three cached top-level lookups:
    # annotate(text), sentences and annotate(sentence tuple).  Misses
    # add nested lookups once per unique text: the text annotation
    # reads the split and one sentence annotation per sentence, the
    # tuple annotation one sentence annotation per sentence.
    # index_terms is not cached itself; every call reads the split and
    # one sentence_terms entry per sentence.
    nested = sum(1 + 2 * n for n in n_sentences)
    index_terms = sum(1 + n for n in n_called)
    assert stats.lookups == 3 * len(sequence) + nested + index_terms
    # The document split is computed once per unique text; a text and
    # its sentence tuple are two annotation keys.
    assert by_product["sentences"].misses == len(unique)
    assert by_product["annotations"].misses == 2 * len(unique)
    for product in ("sentence_annotations", "sentence_terms"):
        assert by_product[product].misses == len(distinct_sentences)
    assert by_product["sentence_annotations"].lookups == 2 * sum(n_sentences)
    assert by_product["sentence_terms"].lookups == sum(n_called)
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


def test_concurrent_batched_reads_keep_one_value_per_key():
    """Threads racing ``get_or_compute_many`` over overlapping keys all
    observe one canonical value per key, and every lookup is counted."""
    cache = AnnotationCache(capacity=1_000)
    keys = [f"sentence {i}" for i in range(60)]
    n_threads, rounds = 6, 20
    seen: list[list[list[object]]] = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=30)

    def worker(k: int) -> None:
        barrier.wait()
        for r in range(rounds):
            batch = keys[::-1] if (k + r) % 2 else keys
            values = cache.get_or_compute_many(batch, lambda key: [key])
            seen[k].append(values if batch is keys else values[::-1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    canonical = cache.get_or_compute_many(keys, lambda key: None)
    for per_thread in seen:
        assert len(per_thread) == rounds
        for values in per_thread:
            assert all(a is b for a, b in zip(values, canonical))
    assert cache.stats.lookups == (n_threads * rounds + 1) * len(keys)
