"""Part-of-speech tagger (substitute for QTag, section 3.2.1).

The paper assigns a part-of-speech category to every token that the
named-entity recognizer does not claim, and Figures 3-4 analyze the
abstraction categories ``vb``, ``rb``, ``nn``, ``np`` and ``jj``.  This
tagger reproduces that behaviour with a three-layer design, in the spirit
of Brill's transformation-based tagger:

1. a closed-class lexicon (determiners, prepositions, pronouns, modals,
   conjunctions) plus an open-class seed lexicon of common business verbs,
   adjectives and adverbs;
2. morphological suffix rules for unknown words (``-ly`` -> rb,
   ``-ing``/``-ed`` -> vb, ``-tion`` -> nn, capitalized -> np, ...);
3. contextual patch rules that fix the most common lexical-stage errors
   (e.g. a verb-tagged word following a determiner becomes a noun).

Tagset (lower-case, matching the figures in the paper): ``nn`` common
noun, ``np`` proper noun, ``vb`` verb, ``jj`` adjective, ``rb`` adverb,
``cd`` number, ``dt`` determiner, ``in`` preposition, ``prp`` pronoun,
``cc`` conjunction, ``md`` modal, ``to``, ``punct``, ``sym``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.tokenizer import tokenize_words

DETERMINERS = frozenset(
    "the a an this that these those each every some any no all both".split()
)
PREPOSITIONS = frozenset(
    """in on at by for with from of to into over under between among
    during after before against through across within without about
    above below near behind beyond""".split()
)
PRONOUNS = frozenset(
    """i you he she it we they me him her us them his hers its their
    theirs our ours your yours who whom whose which what""".split()
)
CONJUNCTIONS = frozenset("and or but nor so yet while although because".split())
MODALS = frozenset("will would can could may might shall should must".split())

#: Common verbs (base + inflected) seen in business news.
_VERB_SEED = """
is are was were be been being has have had do does did say says said
announce announced announces report reported reports acquire acquired
acquires buy bought buys merge merged merges appoint appointed appoints
name named names hire hired hires promote promoted promotes resign
resigned resigns retire retired retires post posted posts record
recorded records grow grew grown grows rise rose risen rises fall fell
fallen falls increase increased increases decrease decreased decreases
plan planned plans expect expected expects see saw seen sees make made
makes take took taken takes join joined joins lead led leads serve
served serves step stepped steps launch launched launches sign signed
signs complete completed completes agree agreed agrees deliver delivered
delivers achieve achieved achieves unveil unveiled unveils disclose
disclosed discloses register registered registers tap tapped taps elect
elected elects oust ousted welcome welcomed welcomes recruit recruited
recruits select selected selects elevate elevated elevates depart
departed departs leave left leaves succeed succeeded succeeds replace
replaced replaces become became becomes remain remained remains continue
continued continues snap snapped
""".split()
VERBS = frozenset(_VERB_SEED)

_ADJECTIVE_SEED = """
new strong weak solid severe sharp significant record quarterly annual
fiscal net major minor senior junior former current chief executive
financial global local strategic robust impressive stellar healthy
remarkable substantial disappointing dismal steep heavy recent definitive
big small large good bad high low early late next last previous
""".split()
ADJECTIVES = frozenset(_ADJECTIVE_SEED)

_ADVERB_SEED = """
also now then very well today yesterday tomorrow recently previously
sharply significantly strongly approximately nearly about already soon
later earlier still again once formerly effective immediately
""".split()
ADVERBS = frozenset(_ADVERB_SEED)

_NOUN_SUFFIXES = (
    "tion", "sion", "ment", "ness", "ship", "ance", "ence", "ity", "ism",
    "ist", "ure", "age", "ers", "or", "er",
)
_ADJ_SUFFIXES = ("ous", "ful", "ive", "able", "ible", "al", "ic", "ish")

#: Upper bound on :data:`_LEXICAL_MEMO` entries.  The memo is cleared
#: when it fills, so an unbounded vocabulary cannot grow it further.
LEXICAL_MEMO_BOUND = 50_000

#: ``word -> (mid-sentence tag, sentence-initial tag)``, so a
#: ``sentence_initial`` flag indexes the pair.  The rules in
#: :func:`_lexical_tag` are a pure function of the word and that flag,
#: and business news reuses a small vocabulary, so almost every lookup
#: hits.
_LEXICAL_MEMO: dict[str, tuple[str, str]] = {}


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """A word paired with its part-of-speech tag (see :func:`tag`)."""

    text: str
    tag: str


def _lexical_tag(text: str, is_sentence_initial: bool) -> str:
    lower = text.lower()
    first = text[0]
    # First-char guard: almost every token starts alphanumeric, which
    # settles the punct/sym question without scanning the whole token.
    if not first.isalnum() and not any(char.isalnum() for char in text):
        return "punct" if text in ".,;:!?\"'()-" else "sym"
    if first.isdigit() or (first == "$" and len(text) > 1):
        return "cd"
    if lower == "to":
        return "to"
    if lower in DETERMINERS:
        return "dt"
    if lower in PREPOSITIONS:
        return "in"
    if lower in PRONOUNS:
        return "prp"
    if lower in CONJUNCTIONS:
        return "cc"
    if lower in MODALS:
        return "md"
    if lower in ADVERBS or lower.endswith("ly"):
        return "rb"
    if lower in VERBS:
        return "vb"
    if lower in ADJECTIVES:
        return "jj"
    if text[0].isupper() and not is_sentence_initial:
        return "np"
    if lower.endswith(("ing", "ed")) and len(lower) > 4:
        return "vb"
    if lower.endswith(_ADJ_SUFFIXES):
        return "jj"
    if lower.endswith(_NOUN_SUFFIXES):
        return "nn"
    if text[0].isupper() and is_sentence_initial and len(text) > 1:
        # Sentence-initial capitalized unknown: proper noun if it is not a
        # known common word shape (heuristic: keep np for TitleCase).
        return "np" if text[1:].islower() and lower not in VERBS else "nn"
    return "nn"


def _apply_context_patches(words: list[str], tags: list[str]) -> None:
    """Brill-style contextual repairs over the lexical tags, in place.

    Left to right: each rule reads the already-repaired previous tag.
    """
    last = len(tags) - 1
    for index in range(1, len(tags)):
        current, previous = tags[index], tags[index - 1]
        # DT + vb -> DT + nn ("the acquired assets" is adjectival/nominal)
        if current == "vb" and previous == "dt":
            if index == last or tags[index + 1] in {"punct", "in", "cc"}:
                tags[index] = "nn"
        # TO + nn -> TO + vb ("plans to growth" never occurs; "to acquire")
        # MD + nn -> MD + vb ("will merge")
        elif (
            current == "nn"
            and previous in ("to", "md")
            and words[index].lower() in VERBS
        ):
            tags[index] = "vb"


def tag_words(words: list[str]) -> list[str]:
    """POS tags of a tokenized text (:func:`tokenize_words` output)."""
    memo = _LEXICAL_MEMO
    tags: list[str] = []
    append = tags.append
    sentence_initial = True
    for word in words:
        pair = memo.get(word)
        if pair is None:
            pair = (_lexical_tag(word, False), _lexical_tag(word, True))
            if len(memo) >= LEXICAL_MEMO_BOUND:
                memo.clear()
            memo[word] = pair
        found = pair[sentence_initial]
        append(found)
        if found != "punct":
            sentence_initial = False
        elif word in ".!?":
            sentence_initial = True
    _apply_context_patches(words, tags)
    return tags


def tag(text: str) -> list[TaggedToken]:
    """Tokenize and tag raw text."""
    words = tokenize_words(text)
    return [
        TaggedToken(word, found)
        for word, found in zip(words, tag_words(words))
    ]


#: The open-class POS categories analyzed in Figures 3-4 of the paper.
OPEN_CLASS_TAGS = ("vb", "rb", "nn", "np", "jj")
