"""Stop-word list tests."""

from __future__ import annotations

from repro.text.stopwords import STOPWORDS, is_stopword


class TestMembership:
    def test_function_words_present(self):
        for word in ("the", "of", "and", "is", "was", "with"):
            assert is_stopword(word)

    def test_content_words_absent(self):
        # Words that carry trigger-event signal must never be dropped.
        for word in ("new", "acquired", "ceo", "revenue", "growth",
                     "merger", "president"):
            assert not is_stopword(word)

    def test_case_insensitive(self):
        assert is_stopword("The")
        assert is_stopword("AND")

    def test_contractions_present(self):
        assert is_stopword("don't")
        assert is_stopword("it's")

    def test_all_entries_lowercase(self):
        assert all(word == word.lower() for word in STOPWORDS)
