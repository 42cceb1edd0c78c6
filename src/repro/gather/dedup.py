"""Near-duplicate detection: shingling + MinHash + LSH banding.

The document store's exact-hash dedup catches byte-identical mirrors,
but the web also serves *near*-duplicates — the same wire story with a
different site header, a re-paginated article, a lightly edited press
release.  Left in the collection they flood the ranked trigger-event
list with repeats.

Standard construction: a document becomes a set of word ``k``-shingles;
a MinHash signature of ``n`` permutations estimates Jaccard similarity;
LSH banding finds candidate pairs without comparing every pair.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.tracer import NULL_TRACER, AnyTracer

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def shingles(text: str, k: int = 3) -> set[str]:
    """Word k-shingles of ``text`` (lower-cased, whitespace tokenized)."""
    if k <= 0:
        raise ValueError("k must be positive")
    words = text.lower().split()
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {
        " ".join(words[i : i + k]) for i in range(len(words) - k + 1)
    }


def jaccard(a: set[str], b: set[str]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _base_hash(shingle: str) -> int:
    digest = hashlib.sha1(shingle.encode("utf-8")).digest()
    return struct.unpack("<Q", digest[:8])[0] & _MAX_HASH


class MinHasher:
    """Fixed family of ``n_permutations`` universal hash functions."""

    def __init__(self, n_permutations: int = 96, seed: int = 41) -> None:
        if n_permutations <= 0:
            raise ValueError("n_permutations must be positive")
        self.n_permutations = n_permutations
        import random

        rng = random.Random(seed)
        self._a = [
            rng.randrange(1, _MERSENNE) for _ in range(n_permutations)
        ]
        self._b = [
            rng.randrange(0, _MERSENNE) for _ in range(n_permutations)
        ]

    def signature(self, shingle_set: Iterable[str]) -> tuple[int, ...]:
        """MinHash signature; empty input gets an all-max signature."""
        hashes = [_base_hash(s) for s in shingle_set]
        if not hashes:
            return tuple([_MAX_HASH] * self.n_permutations)
        signature = []
        for a, b in zip(self._a, self._b):
            signature.append(
                min(
                    ((a * h + b) % _MERSENNE) & _MAX_HASH
                    for h in hashes
                )
            )
        return tuple(signature)

    @staticmethod
    def estimate_similarity(
        sig_a: Sequence[int], sig_b: Sequence[int]
    ) -> float:
        """Fraction of agreeing components estimates Jaccard."""
        if len(sig_a) != len(sig_b):
            raise ValueError("signatures must have equal length")
        if not sig_a:
            return 0.0
        agree = sum(1 for x, y in zip(sig_a, sig_b) if x == y)
        return agree / len(sig_a)


@dataclass(frozen=True, slots=True)
class DuplicatePair:
    """A candidate near-duplicate pair with its estimated similarity."""

    first: str
    second: str
    similarity: float


class NearDuplicateIndex:
    """LSH-banded MinHash index over documents.

    ``bands`` x ``rows`` must equal the hasher's permutation count.
    With the defaults (24 bands of 4 rows over 96 permutations) the
    candidate threshold sits around similarity ~0.45.
    """

    def __init__(
        self,
        hasher: MinHasher | None = None,
        bands: int = 24,
        shingle_k: int = 3,
        threshold: float = 0.8,
        tracer: AnyTracer | None = None,
    ) -> None:
        self.hasher = hasher or MinHasher()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if self.hasher.n_permutations % bands != 0:
            raise ValueError(
                "bands must divide the number of permutations"
            )
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.bands = bands
        self.rows = self.hasher.n_permutations // bands
        self.shingle_k = shingle_k
        self.threshold = threshold
        self._signatures: dict[str, tuple[int, ...]] = {}
        self._buckets: list[dict[tuple[int, ...], list[str]]] = [
            defaultdict(list) for _ in range(bands)
        ]

    def __len__(self) -> int:
        return len(self._signatures)

    def _band_keys(self, signature: tuple[int, ...]):
        for band in range(self.bands):
            yield band, signature[
                band * self.rows : (band + 1) * self.rows
            ]

    def add(self, key: str, text: str) -> list[DuplicatePair]:
        """Index ``text`` under ``key``; returns near-duplicates found.

        Pairs are deduplicated and filtered by the similarity
        ``threshold`` (estimated from signatures).
        """
        if key in self._signatures:
            raise KeyError(f"key {key!r} already indexed")
        signature = self.hasher.signature(
            shingles(text, self.shingle_k)
        )
        candidates: set[str] = set()
        for band, band_key in self._band_keys(signature):
            candidates.update(self._buckets[band][band_key])
        pairs = []
        for other in sorted(candidates):
            similarity = self.hasher.estimate_similarity(
                signature, self._signatures[other]
            )
            if similarity >= self.threshold:
                pairs.append(DuplicatePair(other, key, similarity))
                self.tracer.emit(
                    "near_duplicate",
                    lineage_id=key,
                    key=key,
                    duplicate_of=other,
                    similarity=similarity,
                )
        self._signatures[key] = signature
        for band, band_key in self._band_keys(signature):
            self._buckets[band][band_key].append(key)
        return pairs

    def is_near_duplicate(self, text: str) -> bool:
        """Would this text collide with anything already indexed?"""
        signature = self.hasher.signature(
            shingles(text, self.shingle_k)
        )
        for band, band_key in self._band_keys(signature):
            for other in self._buckets[band][band_key]:
                similarity = self.hasher.estimate_similarity(
                    signature, self._signatures[other]
                )
                if similarity >= self.threshold:
                    return True
        return False
