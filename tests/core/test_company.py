"""Company-name normalization and variation tests."""

from __future__ import annotations

from repro.core.company import CompanyNormalizer, canonical_key
from repro.text.annotator import Annotator
from repro.text.ner import NerConfig


class TestCanonicalKey:
    def test_strips_legal_suffix(self):
        assert canonical_key("Acme Inc") == "acme"
        assert canonical_key("Acme Inc.") == "acme"
        assert canonical_key("Acme Incorporated") == "acme"

    def test_strips_stacked_suffixes(self):
        assert canonical_key("Acme Holdings Inc") == "acme"

    def test_keeps_distinct_sector_words(self):
        assert canonical_key("Acme Data Systems") == "acme data"

    def test_case_insensitive(self):
        assert canonical_key("ACME INC") == canonical_key("acme inc")

    def test_never_empties_single_word(self):
        # A company literally named "Holdings" keeps its name.
        assert canonical_key("Holdings") == "holdings"


class TestNormalizer:
    def test_same_company_variants(self):
        normalizer = CompanyNormalizer()
        acme = normalizer.normalize("Acme Inc")
        assert normalizer.normalize("Acme Incorporated") == acme
        assert normalizer.normalize("Globex Corp") != acme

    def test_display_name(self):
        normalizer = CompanyNormalizer()
        key = normalizer.register("International Business Machines")
        assert normalizer.display_name(key) == (
            "International Business Machines"
        )

    def test_display_name_fallback_titlecases(self):
        assert CompanyNormalizer().display_name("acme data") == (
            "Acme Data"
        )

    def test_companies_in_annotated_snippet(self):
        annotator = Annotator(NerConfig(gazetteer_coverage=1.0))
        annotated = annotator.annotate(
            "Acme Inc acquired Globex Corp; Acme Inc rose."
        )
        companies = CompanyNormalizer().companies_in(annotated)
        assert companies == ["acme", "globex"]  # deduped, ordered


class TestAcronyms:
    def test_acronym_of(self):
        from repro.core.company import acronym_of

        assert acronym_of("International Business Machines") == "IBM"
        assert acronym_of("Acme Data Systems Inc") == "ADS"

    def test_acronym_skips_legal_suffixes(self):
        from repro.core.company import acronym_of

        assert acronym_of("General Electric Company") == "GE"

    def test_acronym_matching_resolves_mention(self):
        normalizer = CompanyNormalizer(match_acronyms=True)
        key = normalizer.register("International Business Machines")
        assert normalizer.normalize("IBM") == key

    def test_acronym_matching_off_by_default(self):
        normalizer = CompanyNormalizer()
        normalizer.register("International Business Machines")
        assert normalizer.normalize("IBM") == "ibm"

    def test_single_letter_acronyms_ignored(self):
        normalizer = CompanyNormalizer(match_acronyms=True)
        normalizer.register("Acme Inc")  # acronym 'A' is too short
        assert normalizer.normalize("A") == "a"
