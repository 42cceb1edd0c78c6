"""Gazetteer construction tests."""

from __future__ import annotations

from repro.corpus import vocab


class TestOrganizations:
    def test_enumeration_is_deterministic(self):
        assert vocab.build_org_names(50) == vocab.build_org_names(50)

    def test_limit_respected(self):
        assert len(vocab.build_org_names(10)) == 10

    def test_all_have_legal_suffix(self):
        suffixes = tuple(vocab.ORG_SUFFIXES)
        for name in vocab.build_org_names(100):
            assert name.endswith(suffixes)

    def test_extended_names_have_three_parts(self):
        for name in vocab.build_org_names_extended(30):
            assert len(name.split()) == 3

    def test_no_duplicates_in_combined_list(self):
        assert len(set(vocab.ORGANIZATIONS)) == len(vocab.ORGANIZATIONS)


class TestPeople:
    def test_person_names_are_two_tokens(self):
        for name in vocab.build_person_names(100):
            assert len(name.split()) == 2

    def test_deterministic(self):
        assert vocab.build_person_names(80) == vocab.build_person_names(80)


class TestInventories:
    def test_orientation_phrases_disjoint(self):
        positive = set(vocab.POSITIVE_ORIENTATION_PHRASES)
        negative = set(vocab.NEGATIVE_ORIENTATION_PHRASES)
        assert not positive & negative

    def test_paper_examples_present(self):
        # Section 4 names these exact phrases.
        assert "significant growth" in vocab.POSITIVE_ORIENTATION_PHRASES
        assert "solid quarter" in vocab.POSITIVE_ORIENTATION_PHRASES
        assert "severe losses" in vocab.NEGATIVE_ORIENTATION_PHRASES
        assert "sharp decline" in vocab.NEGATIVE_ORIENTATION_PHRASES

    def test_designations_include_paper_queries(self):
        # The smart queries "new CEO", "new CTO", "new Manager",
        # "new President" presuppose these designations exist.
        for designation in ("CEO", "CTO", "President"):
            assert designation in vocab.DESIGNATIONS
