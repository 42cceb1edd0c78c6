"""Named-entity recognizer emitting the paper's 13 entity categories.

Section 3.2.1 lists the categories produced by the IBM annotator [11] that
ETAP depends on:

    ORG, DESIG, OBJ, TIM, PERIOD, CURRENCY, YEAR, PRCNT, PROD, PLC, PRSN,
    LNGTH, CNT

This recognizer reproduces them with a longest-match gazetteer layer
(organizations, people, places, designations, products, objects) plus
shape rules for the numeric/temporal categories.  Because the paper notes
that *"the overall result of ETAP is heavily dependent on the accuracy of
the named entity recognizer"*, the recognizer is deliberately imperfect in
a controlled way: :class:`NerConfig.gazetteer_coverage` withholds a
deterministic fraction of gazetteer entries (out-of-vocabulary names go
unannotated, exactly as unknown companies did on the 2005 Web), and
pattern rules pick up *some* but not all of the OOV entities.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.corpus import vocab
from repro.text.tokenizer import tokenize_words

#: The 13 entity categories from section 3.2.1, in the paper's order.
ENTITY_CATEGORIES = (
    "ORG", "DESIG", "OBJ", "TIM", "PERIOD", "CURRENCY", "YEAR", "PRCNT",
    "PROD", "PLC", "PRSN", "LNGTH", "CNT",
)


#: Bits of :meth:`NamedEntityRecognizer._openers`: the matchers that
#: can start an entity at a word.
_GAZETTEER, _SHAPE, _PATTERN = 1, 2, 4

#: A word's memo entry: its openers, lower-cased form, and lower-cased
#: form with trailing periods stripped.
_Entry = tuple[int, str, str]

#: Upper bound on a recognizer's inert-word memo.  The memo is cleared
#: when it fills, so an unbounded vocabulary cannot grow it further.
INERT_MEMO_BOUND = 50_000


@dataclass(frozen=True, slots=True)
class Entity:
    """A recognized entity span.

    ``start``/``end`` are token indices (end exclusive); ``text`` is the
    surface string of the span.
    """

    label: str
    start: int
    end: int
    text: str


@dataclass(frozen=True)
class NerConfig:
    """Tuning knobs for the recognizer.

    gazetteer_coverage:
        Fraction of each gazetteer the recognizer actually knows.  Entries
        are dropped deterministically (by hash), so the same entry is
        always in or always out for a given coverage value.  1.0 means a
        perfect dictionary; the default 0.9 leaves realistic gaps.
    pattern_backoff:
        Whether out-of-gazetteer entities may still be recognized by
        shape patterns (honorific+TitleCase -> PRSN, TitleCase+legal
        suffix -> ORG, known first name + surname -> PRSN).  Disabling
        this models a recognizer with no generalization beyond its
        dictionary — useful for the section 6 NER-quality ablation.
    """

    gazetteer_coverage: float = 0.9
    pattern_backoff: bool = True


def _keep_entry(entry: str, coverage: float) -> bool:
    """Deterministic per-entry coin flip with probability ``coverage``."""
    if coverage >= 1.0:
        return True
    if coverage <= 0.0:
        return False
    digest = hashlib.sha256(entry.lower().encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:4], "big") / 2**32
    return fraction < coverage


class _Gazetteer:
    """Longest-match lookup over multi-token entries."""

    def __init__(self, entries: dict[str, str], coverage: float) -> None:
        self._table: dict[tuple[str, ...], str] = {}
        self.max_len = 1
        #: Longest entry length per first token — the dispatch table
        #: that lets :meth:`lookup` reject the common case (a token
        #: starting no gazetteer entry) with one dict probe instead of
        #: ``max_len`` tuple builds.
        self._first_max: dict[str, int] = {}
        for surface, label in entries.items():
            if not _keep_entry(surface, coverage):
                continue
            key = tuple(surface.lower().split())
            self._table[key] = label
            self.max_len = max(self.max_len, len(key))
            first = key[0]
            if len(key) > self._first_max.get(first, 0):
                self._first_max[first] = len(key)

    def lookup(
        self, stripped: Sequence[str], index: int
    ) -> tuple[str, int] | None:
        """Longest entry starting at ``index``; returns (label, length).

        ``stripped`` are the lower-cased tokens with trailing periods
        stripped (precomputed once per text by the caller), so the
        abbreviation token ``Corp.`` matches the gazetteer entry
        ``... Corp``.
        """
        max_len = self._first_max.get(stripped[index])
        if max_len is None:
            return None
        limit = min(max_len, len(stripped) - index)
        table = self._table
        for length in range(limit, 0, -1):
            label = table.get(tuple(stripped[index : index + length]))
            if label is not None:
                return label, length
        return None


def _build_entries() -> dict[str, str]:
    entries: dict[str, str] = {}
    for name in vocab.ORGANIZATIONS:
        entries[name] = "ORG"
    for name in vocab.PEOPLE:
        entries[name] = "PRSN"
    for place in vocab.PLACES:
        entries[place] = "PLC"
    for designation in vocab.DESIGNATIONS:
        entries[designation] = "DESIG"
    for product in vocab.PRODUCTS:
        entries[product] = "PROD"
    for obj in vocab.OBJECTS:
        entries[obj] = "OBJ"
    for month in vocab.MONTHS:
        entries[month] = "PERIOD"
    for day in vocab.WEEKDAYS:
        entries[day] = "PERIOD"
    for quarter in vocab.QUARTERS:
        entries[quarter] = "PERIOD"
    return entries


_PERIOD_PHRASES = {
    ("last", "year"), ("this", "year"), ("next", "year"),
    ("last", "quarter"), ("this", "quarter"), ("next", "quarter"),
    ("last", "month"), ("this", "month"), ("next", "month"),
    ("fiscal", "year"), ("later", "this", "year"), ("last", "week"),
    ("earlier", "this", "year"), ("previous", "quarter"),
    ("the", "fourth", "quarter"), ("the", "first", "quarter"),
    ("the", "second", "quarter"), ("the", "third", "quarter"),
}

#: First-word dispatch for the period phrases: only a handful of words
#: can open one, so the hot path is a single dict miss.  At most one
#: phrase can match at a given index (no phrase is a prefix of
#: another), so grouping never changes which phrase wins.
_PERIOD_BY_FIRST: dict[str, tuple[tuple[str, ...], ...]] = {}
for _phrase in sorted(_PERIOD_PHRASES):
    _PERIOD_BY_FIRST.setdefault(_phrase[0], ())
    _PERIOD_BY_FIRST[_phrase[0]] += (_phrase,)
del _phrase

_TIME_SUFFIXES = {"am", "pm", "a.m", "p.m", "a.m.", "p.m."}
_CURRENCY_CODES = {"usd", "eur", "gbp", "rs."}
_CURRENCY_WORDS = {"dollars", "euros", "pounds", "rupees"}


def _is_year(text: str) -> bool:
    return len(text) == 4 and text.isdigit() and 1900 <= int(text) <= 2099


def _is_number(text: str) -> bool:
    stripped = text.replace(",", "").replace(".", "", 1)
    return bool(stripped) and stripped.isdigit()


class NamedEntityRecognizer:
    """Rule + gazetteer NER over tokenized text."""

    def __init__(self, config: NerConfig | None = None) -> None:
        self.config = config or NerConfig()
        self._gazetteer = _Gazetteer(
            _build_entries(), self.config.gazetteer_coverage
        )
        self._org_suffixes = {s.lower() for s in vocab.ORG_SUFFIXES} | {
            "incorporated", "corporation", "limited", "company", "plc",
            "gmbh",
        }
        self._honorifics = {h.lower() for h in vocab.HONORIFICS}
        self._units = set()
        for unit in vocab.MEASUREMENT_UNITS:
            self._units.add(tuple(unit.lower().split()))
        self._currency_units = {u.lower() for u in vocab.CURRENCY_UNITS}
        self._first_names = {
            name.lower()
            for name in vocab.FIRST_NAMES
            if _keep_entry(name, self.config.gazetteer_coverage)
        }
        #: word -> its :data:`_Entry`; bounded by INERT_MEMO_BOUND.
        self._inert_memo: dict[str, _Entry] = {}

    # -- numeric / temporal shape rules ------------------------------------

    def _match_shape(
        self, words: list[str], lowers: Sequence[str], index: int
    ) -> tuple[str, int] | None:
        text = words[index]
        lower = lowers[index]
        first = text[0]

        # Fast path: a plain word can only open a period phrase, and
        # only a few first words qualify; everything below needs a
        # leading ``$``/digit/currency-code/``%``-suffix shape.
        if (
            first.isalpha()
            and lower not in _CURRENCY_CODES
            and not text.endswith("%")
        ):
            phrases = _PERIOD_BY_FIRST.get(lower)
            if phrases:
                for phrase in phrases:
                    span = len(phrase)
                    if tuple(lowers[index : index + span]) == phrase:
                        return "PERIOD", span
            return None

        nxt = lowers[index + 1] if index + 1 < len(lowers) else ""
        nxt2 = lowers[index + 2] if index + 2 < len(lowers) else ""

        if first == "$" and len(text) > 1:
            length = 2 if nxt in self._currency_units else 1
            return "CURRENCY", length
        if lower in _CURRENCY_CODES and _is_number(nxt):
            length = 3 if nxt2 in self._currency_units else 2
            return "CURRENCY", length
        if text.endswith("%") and len(text) > 1:
            return "PRCNT", 1
        if _is_number(text):
            if nxt == "percent" or nxt == "%":
                return "PRCNT", 2
            if nxt in self._currency_units and nxt2 in _CURRENCY_WORDS:
                return "CURRENCY", 3
            if nxt in _CURRENCY_WORDS:
                return "CURRENCY", 2
            if (nxt,) in self._units:
                return "LNGTH", 2
            if (nxt, nxt2) in self._units:
                return "LNGTH", 3
            if ":" == nxt and index + 2 < len(words) and _is_number(nxt2):
                after = (
                    lowers[index + 3]
                    if index + 3 < len(lowers)
                    else ""
                )
                length = 4 if after in _TIME_SUFFIXES else 3
                return "TIM", length
            if nxt in _TIME_SUFFIXES:
                return "TIM", 2
            if _is_year(text):
                return "YEAR", 1
            return "CNT", 1

        phrases = _PERIOD_BY_FIRST.get(lower)
        if phrases:
            for phrase in phrases:
                span = len(phrase)
                if tuple(lowers[index : index + span]) == phrase:
                    return "PERIOD", span
        return None

    # -- pattern back-off for OOV names ------------------------------------

    def _match_patterns(
        self,
        words: list[str],
        lowers: Sequence[str],
        stripped: Sequence[str],
        index: int,
    ) -> tuple[str, int] | None:
        text = words[index]
        lower = lowers[index]
        # Honorific + TitleCase+ -> PRSN ("Mr. John Carter")
        if lower in self._honorifics:
            length = 1
            while (
                index + length < len(words)
                and words[index + length][:1].isupper()
                and words[index + length].isalpha()
                and length <= 3
            ):
                length += 1
            if length > 1:
                return "PRSN", length
        # Known first name + TitleCase surname -> PRSN ("Wei Novak")
        if lower in self._first_names and index + 1 < len(words):
            surname = words[index + 1]
            if surname[:1].isupper() and surname.isalpha():
                return "PRSN", 2
        # TitleCase+ followed by a legal suffix -> ORG ("Foobar Widgets Inc")
        if text[:1].isupper() and text.isalpha():
            length = 1
            while (
                index + length < len(words)
                and words[index + length][:1].isupper()
                and stripped[index + length].isalpha()
                and length < 4
            ):
                if stripped[index + length] in self._org_suffixes:
                    return "ORG", length + 1
                length += 1
        return None

    def _openers(self, word: str) -> int:
        """Which matchers can start an entity at ``word``, whatever follows.

        A bit set: ``_GAZETTEER`` when ``word`` opens a gazetteer entry,
        ``_SHAPE`` when it can open a shape rule (see
        :meth:`_match_shape`) and, with ``pattern_backoff``,
        ``_PATTERN`` when it can open a back-off pattern (see
        :meth:`_match_patterns`).  0 means the word is inert.  A pure
        function of the word and the recognizer's configuration.
        """
        lower = word.lower()
        first = word[0]
        openers = 0
        if lower.rstrip(".") in self._gazetteer._first_max:
            openers |= _GAZETTEER
        if (
            (first == "$" and len(word) > 1)
            or lower in _CURRENCY_CODES
            or (word.endswith("%") and len(word) > 1)
            or lower in _PERIOD_BY_FIRST
            or _is_number(word)
        ):
            openers |= _SHAPE
        if self.config.pattern_backoff and (
            lower in self._honorifics
            or lower in self._first_names
            or (first.isupper() and word.isalpha())
        ):
            openers |= _PATTERN
        return openers

    # -- public API ---------------------------------------------------------

    def recognize_words(self, words: list[str]) -> list[Entity]:
        """Recognize entities over a tokenized text.

        ``words`` is :func:`~repro.text.tokenizer.tokenize_words` output;
        entity ``start``/``end`` index into it.
        """
        if not words:
            return []
        # Most words start no entity in any context: the memo marks them
        # inert (0), and at every other word it names the matchers that
        # can start there, so only those run.  It also holds each word's
        # lower-cased and period-stripped forms, which every matcher
        # reads instead of re-lowering the same token per candidate span.
        entries = list(map(self._inert_memo.get, words))
        if None in entries:
            self._fill_entries(words, entries)
        openers, lowers, stripped = zip(*entries)
        if not any(openers):
            return []
        entities: list[Entity] = []
        lookup = self._gazetteer.lookup
        covered = 0
        for index, kinds in enumerate(openers):
            if not kinds or index < covered:
                continue
            match = None
            if kinds & _GAZETTEER:
                match = lookup(stripped, index)
            if match is None and kinds & _SHAPE:
                match = self._match_shape(words, lowers, index)
            if match is None and kinds & _PATTERN:
                match = self._match_patterns(words, lowers, stripped, index)
            if match is None:
                continue
            label, length = match
            covered = index + length
            surface = " ".join(words[index:covered])
            entities.append(Entity(label, index, covered, surface))
        return entities

    def _fill_entries(
        self, words: list[str], entries: list[_Entry | None]
    ) -> None:
        """Replace each memo miss (``None``) in ``entries``."""
        memo = self._inert_memo
        for index, entry in enumerate(entries):
            if entry is None:
                word = words[index]
                entry = memo.get(word)
                if entry is None:
                    lower = word.lower()
                    if lower == word:
                        lower = word  # hold no second copy of the word
                    entry = (self._openers(word), lower, lower.rstrip("."))
                    if len(memo) >= INERT_MEMO_BOUND:
                        memo.clear()
                    memo[word] = entry
                entries[index] = entry
