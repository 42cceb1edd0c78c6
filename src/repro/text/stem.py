"""Porter stemmer (Porter, 1980), implemented from the original paper.

The paper's pre-processing pipeline (section 3.2.1) includes stemming.
This is a faithful implementation of the classic five-step Porter
algorithm, the standard stemmer of the era (and of Weka's text filters,
which the authors used).
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, index: int) -> bool:
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: the number of VC sequences in the stem."""
    count = 0
    previous_was_vowel = False
    for index in range(len(stem)):
        is_vowel = not _is_consonant(stem, index)
        if not is_vowel and previous_was_vowel:
            count += 1
        previous_was_vowel = is_vowel
    return count


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, index) for index in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """True when the word ends consonant-vowel-consonant, last not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_suffix(word: str, suffix: str, replacement: str) -> str:
    return word[: len(word) - len(suffix)] + replacement


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return _replace_suffix(word, "sses", "ss")
    if word.endswith("ies"):
        return _replace_suffix(word, "ies", "i")
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return stem + "ee"
        return word
    touched = False
    if word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word, touched = stem, True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word, touched = stem, True
    if touched:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP_2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
)

_STEP_3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP_4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _apply_rules(word: str, rules: tuple[tuple[str, str], ...]) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 0:
                return stem + replacement
            return word
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP_4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step_5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step_5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Return the Porter stem of ``word`` (lower-cased)."""
    word = word.lower()
    if len(word) <= 2 or not word.isalpha():
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _apply_rules(word, _STEP_2_RULES)
    word = _apply_rules(word, _STEP_3_RULES)
    word = _step_4(word)
    word = _step_5a(word)
    word = _step_5b(word)
    return word


class PorterStemmer:
    """Caching wrapper around :func:`stem` for bulk pipelines."""

    def __init__(self) -> None:
        self._cache: dict[str, str] = {}

    def stem(self, word: str) -> str:
        key = word.lower()
        cached = self._cache.get(key)
        if cached is None:
            cached = stem(key)
            self._cache[key] = cached
        return cached
