"""End-to-end near-duplicate handling: mirrored wire stories."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.web import build_web
from repro.gather.pipeline import DataGatherer


class TestMirrorGeneration:
    def test_mirror_rate_produces_mirror_docs(self):
        generator = CorpusGenerator(
            CorpusConfig(seed=4, mirror_rate=0.9)
        )
        documents = generator.generate(300)
        mirrors = [
            d for d in documents if "mirror.example.com" in d.url
        ]
        assert mirrors

    def test_mirror_shares_title_and_companies(self):
        generator = CorpusGenerator(
            CorpusConfig(seed=4, mirror_rate=1.0)
        )
        documents = generator.generate(50)
        for index, document in enumerate(documents):
            if "mirror.example.com" not in document.url:
                continue
            original = documents[index - 1]
            assert document.title == original.title
            assert document.companies == original.companies
            assert document.text != original.text  # near, not exact

    def test_zero_rate_produces_none(self):
        generator = CorpusGenerator(CorpusConfig(seed=4, mirror_rate=0))
        documents = generator.generate(200)
        assert not any(
            "mirror.example.com" in d.url for d in documents
        )


class TestGatherNearDedup:
    @pytest.fixture(scope="class")
    def mirrored_web(self):
        return build_web(400, CorpusConfig(seed=9, mirror_rate=0.8))

    def test_near_dedup_drops_mirrors(self, mirrored_web):
        plain = DataGatherer(mirrored_web, max_pages=10_000)
        plain_report = plain.gather()
        deduped = DataGatherer(
            mirrored_web, max_pages=10_000, near_dedup=True
        )
        deduped_report = deduped.gather()
        assert deduped_report.near_duplicates_skipped > 0
        assert (
            deduped_report.documents_stored
            < plain_report.documents_stored
        )

    def test_non_mirror_docs_survive(self, mirrored_web):
        deduped = DataGatherer(
            mirrored_web, max_pages=10_000, near_dedup=True
        )
        report = deduped.gather()
        n_originals = sum(
            1
            for d in mirrored_web.documents
            if "mirror.example.com" not in d.url
        )
        # Nearly all non-mirror documents survive the near-dedup.
        assert report.documents_stored >= 0.9 * n_originals
