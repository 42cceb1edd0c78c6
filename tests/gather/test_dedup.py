"""Near-duplicate detection tests: shingles, MinHash, LSH index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gather.dedup import (
    MinHasher,
    NearDuplicateIndex,
    jaccard,
    shingles,
)

ARTICLE = (
    "Acme Inc agreed to acquire Globex Corp for five billion dollars. "
    "The deal is expected to be finalized in the fourth quarter. "
    "Shareholders of Globex Corp approved the merger in January. "
    "Analysts expect the industry to consolidate further this year."
)

MIRRORED = ARTICLE.replace("Analysts", "Most analysts")

UNRELATED = (
    "Our guide to hiking trails has been updated for March. "
    "Residents gathered for an afternoon of music festivals. "
    "Sign up for our newsletter to get updates about gardening."
)


class TestShingles:
    def test_count(self):
        result = shingles("a b c d", k=3)
        assert result == {"a b c", "b c d"}

    def test_short_text(self):
        assert shingles("a b", k=3) == {"a b"}

    def test_empty_text(self):
        assert shingles("", k=3) == set()

    def test_case_folded(self):
        assert shingles("A B C", k=3) == shingles("a b c", k=3)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            shingles("x", k=0)


class TestJaccard:
    def test_identical(self):
        s = shingles(ARTICLE)
        assert jaccard(s, s) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard({"a"}, set()) == 0.0


class TestMinHasher:
    def test_identical_texts_agree_fully(self):
        hasher = MinHasher()
        sig = hasher.signature(shingles(ARTICLE))
        assert hasher.estimate_similarity(sig, sig) == 1.0

    def test_estimate_tracks_true_jaccard(self):
        hasher = MinHasher(n_permutations=192)
        a, b = shingles(ARTICLE), shingles(MIRRORED)
        true = jaccard(a, b)
        estimate = hasher.estimate_similarity(
            hasher.signature(a), hasher.signature(b)
        )
        assert abs(true - estimate) < 0.15

    def test_unrelated_texts_estimate_low(self):
        hasher = MinHasher()
        estimate = hasher.estimate_similarity(
            hasher.signature(shingles(ARTICLE)),
            hasher.signature(shingles(UNRELATED)),
        )
        assert estimate < 0.2

    def test_deterministic(self):
        a = MinHasher(seed=5).signature(shingles(ARTICLE))
        b = MinHasher(seed=5).signature(shingles(ARTICLE))
        assert a == b

    def test_signature_length(self):
        hasher = MinHasher(n_permutations=32)
        assert len(hasher.signature({"x"})) == 32

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MinHasher.estimate_similarity((1, 2), (1,))

    def test_invalid_permutations(self):
        with pytest.raises(ValueError):
            MinHasher(n_permutations=0)


class TestNearDuplicateIndex:
    def test_detects_mirror(self):
        index = NearDuplicateIndex()
        assert index.add("original", ARTICLE) == []
        pairs = index.add("mirror", MIRRORED)
        assert pairs
        assert pairs[0].first == "original"
        assert pairs[0].similarity >= 0.8

    def test_unrelated_not_flagged(self):
        index = NearDuplicateIndex()
        index.add("original", ARTICLE)
        assert index.add("other", UNRELATED) == []

    def test_is_near_duplicate_probe(self):
        index = NearDuplicateIndex()
        index.add("original", ARTICLE)
        assert index.is_near_duplicate(MIRRORED)
        assert not index.is_near_duplicate(UNRELATED)

    def test_duplicate_key_rejected(self):
        index = NearDuplicateIndex()
        index.add("a", ARTICLE)
        with pytest.raises(KeyError):
            index.add("a", ARTICLE)

    def test_bands_must_divide(self):
        with pytest.raises(ValueError):
            NearDuplicateIndex(MinHasher(n_permutations=96), bands=7)

    def test_len(self):
        index = NearDuplicateIndex()
        index.add("a", ARTICLE)
        index.add("b", UNRELATED)
        assert len(index) == 2


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="ab ", min_size=0, max_size=120))
def test_exact_duplicate_always_estimates_one(text):
    hasher = MinHasher(n_permutations=16)
    sig = hasher.signature(shingles(text))
    assert hasher.estimate_similarity(sig, sig) == 1.0
