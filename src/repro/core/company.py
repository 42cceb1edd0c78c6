"""Company-name normalization and variation matching (section 6).

The paper's future work: *"To determine an overall score of a company
based on its trigger events, we need to know all the variations to the
reference of the company."*  This module implements that machinery: a
canonical key per company (legal-suffix stripping, case folding), an
alias table for explicit variations, and extraction of company mentions
from annotated snippets via their ORG entities.
"""

from __future__ import annotations

from repro.corpus import vocab
from repro.text.annotator import AnnotatedText

_LEGAL_SUFFIXES = {suffix.lower() for suffix in vocab.ORG_SUFFIXES} | {
    "inc.", "corp.", "ltd.", "co", "co.", "company", "plc", "gmbh",
    "limited", "incorporated", "corporation",
}


# Words that never contribute an acronym letter: pure legal boilerplate.
# Narrower than _LEGAL_SUFFIXES — descriptive words like "Systems"
# do contribute (the M in IBM comes from "Machines").
_ACRONYM_STOP = frozenset(
    "inc corp ltd llc co company plc gmbh limited incorporated "
    "corporation".split()
)


def acronym_of(name: str) -> str:
    """The initialism of a multi-word name: ``International Business
    Machines`` -> ``IBM``.  Legal boilerplate contributes no letters."""
    words = [
        word
        for word in name.replace(".", " ").split()
        if word.lower().strip(".,") not in _ACRONYM_STOP
    ]
    return "".join(word[0].upper() for word in words if word)


def canonical_key(name: str) -> str:
    """Canonical identity key: lower-case, no punctuation dots, no
    trailing legal suffixes.

    ``Acme Inc``, ``ACME Inc.`` and ``Acme Incorporated`` share a key;
    ``Acme Systems`` keeps ``systems`` only if it is not trailing-legal
    boilerplate after stripping (we strip at most the final token chain
    of legal suffixes, so ``Acme Data Systems`` -> ``acme data``).
    """
    words = [word.strip(".,").lower() for word in name.split()]
    while len(words) > 1 and words[-1] in _LEGAL_SUFFIXES:
        words.pop()
    return " ".join(word for word in words if word)


class CompanyNormalizer:
    """Maps surface mentions to canonical company identities.

    With ``match_acronyms`` enabled, registering a multi-word company
    name also registers its initialism, so the mention ``IBM`` resolves
    to ``International Business Machines`` once that name is known.
    """

    def __init__(self, match_acronyms: bool = False) -> None:
        self._aliases: dict[str, str] = {}
        self._display: dict[str, str] = {}
        self.match_acronyms = match_acronyms

    def register(self, canonical_name: str) -> str:
        """Register a known company; returns its canonical key."""
        key = canonical_key(canonical_name)
        self._display.setdefault(key, canonical_name)
        if self.match_acronyms:
            acronym = acronym_of(canonical_name)
            if len(acronym) >= 2:
                self._aliases.setdefault(acronym.lower(), key)
        return key

    def normalize(self, mention: str) -> str:
        """Canonical key for a mention, following alias links."""
        key = canonical_key(mention)
        return self._aliases.get(key, key)

    def display_name(self, key: str) -> str:
        """A human-readable name for a canonical key."""
        return self._display.get(key, key.title())

    def companies_in(self, annotated: AnnotatedText) -> list[str]:
        """Canonical keys of the distinct ORG mentions in a snippet."""
        seen: list[str] = []
        for entity in annotated.entities:
            if entity.label != "ORG":
                continue
            key = self.normalize(entity.text)
            if key and key not in seen:
                seen.append(key)
                self.register(entity.text)
        return seen
