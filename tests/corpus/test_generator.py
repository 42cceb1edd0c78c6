"""Document generator tests: structure, labels, mix, determinism."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.corpus.generator import (
    DOC_TYPES,
    TRIGGER_DOC_TYPES,
    CorpusConfig,
    CorpusGenerator,
    driver_for_doc_type,
)
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)


@pytest.fixture
def generator():
    return CorpusGenerator(CorpusConfig(seed=3))


class TestSingleDocuments:
    def test_unknown_type_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate_document("tabloid")

    @pytest.mark.parametrize("doc_type", DOC_TYPES)
    def test_every_type_generates(self, generator, doc_type):
        document = generator.generate_document(doc_type)
        assert document.doc_type == doc_type
        assert len(document.sentences) >= 6 or doc_type in (
            "retrospective", "product_review",
        )
        assert document.title
        assert document.url.startswith("http://")

    def test_doc_ids_unique_and_sequential(self, generator):
        ids = [
            generator.generate_document("background").doc_id
            for _ in range(5)
        ]
        assert len(set(ids)) == 5

    def test_trigger_doc_has_matching_label(self, generator):
        for doc_type, driver in [
            ("ma_news", MERGERS_ACQUISITIONS),
            ("cim_news", CHANGE_IN_MANAGEMENT),
            ("rg_news", REVENUE_GROWTH),
        ]:
            document = generator.generate_document(doc_type)
            assert driver in {s.label for s in document.sentences}

    def test_lead_sentence_is_trigger(self, generator):
        # Inverted pyramid: the first sentence of a news article reports
        # the event.
        for doc_type in TRIGGER_DOC_TYPES:
            document = generator.generate_document(doc_type)
            assert document.sentences[0].label is not None

    def test_trigger_docs_contain_noise_sentences(self, generator):
        # Figure 6: relevant pages still contain non-trigger sentences.
        noisy = 0
        for _ in range(10):
            document = generator.generate_document("ma_news")
            noisy += any(s.label is None for s in document.sentences)
        assert noisy >= 8

    def test_biography_has_no_trigger_labels(self, generator):
        document = generator.generate_document("biography")
        assert all(s.label is None for s in document.sentences)

    def test_background_has_no_companies(self, generator):
        document = generator.generate_document("background")
        assert document.companies == ()

    def test_news_docs_carry_companies(self, generator):
        document = generator.generate_document("ma_news")
        assert len(document.companies) == 2

    def test_text_joins_sentences(self, generator):
        document = generator.generate_document("cim_news")
        for sentence in document.sentences:
            assert sentence.text in document.text


class TestBatchGeneration:
    def test_mix_roughly_respected(self):
        generator = CorpusGenerator(CorpusConfig(seed=5))
        documents = generator.generate(2000)
        counts = Counter(d.doc_type for d in documents)
        mix = CorpusConfig().mix
        for doc_type, weight in mix.items():
            observed = counts[doc_type] / len(documents)
            assert abs(observed - weight) < 0.05, doc_type

    def test_deterministic_given_seed(self):
        a = CorpusGenerator(CorpusConfig(seed=9)).generate(30)
        b = CorpusGenerator(CorpusConfig(seed=9)).generate(30)
        assert [d.text for d in a] == [d.text for d in b]

    def test_different_seeds_differ(self):
        a = CorpusGenerator(CorpusConfig(seed=9)).generate(30)
        b = CorpusGenerator(CorpusConfig(seed=10)).generate(30)
        assert [d.text for d in a] != [d.text for d in b]


class TestStartId:
    """The doc-id namespace offset (collision guard for evolvers)."""

    def test_default_counts_from_zero(self):
        first = CorpusGenerator(CorpusConfig(seed=9)).generate(1)[0]
        assert first.doc_id == "doc-000001"

    def test_offset_generator_counts_from_start_id(self):
        generator = CorpusGenerator(
            CorpusConfig(seed=9), start_id=1_000_000
        )
        ids = [d.doc_id for d in generator.generate(3)]
        assert ids == ["doc-1000001", "doc-1000002", "doc-1000003"]

    def test_namespaces_stay_disjoint_past_a_million_docs(self):
        """Two generators sharing a corpus never collide as long as
        the base stays under the offset — checked by id arithmetic, so
        the guard holds for counts no test could afford to generate."""
        base = CorpusGenerator(CorpusConfig(seed=9))
        offset = CorpusGenerator(
            CorpusConfig(seed=9), start_id=1_000_000
        )
        base_ids = {d.doc_id for d in base.generate(60)}
        offset_ids = {d.doc_id for d in offset.generate(60)}
        assert not base_ids & offset_ids
        # The numeric ranges themselves cannot meet: the base counter
        # after N docs is exactly N, the offset counter 1_000_000 + N.
        assert max(
            int(i.split("-")[1]) for i in base_ids
        ) == 60
        assert min(
            int(i.split("-")[1]) for i in offset_ids
        ) == 1_000_001

    def test_negative_start_id_rejected(self):
        with pytest.raises(ValueError, match="start_id"):
            CorpusGenerator(CorpusConfig(seed=9), start_id=-1)

    def test_offset_does_not_change_content(self):
        """start_id shifts only identity, never the generated text."""
        plain = CorpusGenerator(CorpusConfig(seed=9)).generate(10)
        shifted = CorpusGenerator(
            CorpusConfig(seed=9), start_id=1_000_000
        ).generate(10)
        assert [d.text for d in plain] == [d.text for d in shifted]
        assert [d.title for d in plain] == [d.title for d in shifted]


class TestDriverForDocType:
    def test_trigger_types_map(self):
        assert driver_for_doc_type("ma_news") == MERGERS_ACQUISITIONS
        assert driver_for_doc_type("cim_news") == CHANGE_IN_MANAGEMENT
        assert driver_for_doc_type("rg_news") == REVENUE_GROWTH

    def test_non_trigger_types_map_to_none(self):
        assert driver_for_doc_type("background") is None
        assert driver_for_doc_type("biography") is None
