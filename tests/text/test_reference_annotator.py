"""The one-pass annotator against a token-object reference (hypothesis).

The reference below is the specification: offset-carrying
:class:`~repro.text.tokenizer.Token` objects from the frozen tokenizer
(``tokenizer_reference.py``), one :class:`~repro.text.pos.TaggedToken`
per token, the Brill patches over those objects, the frozen NER loop
(``ner_reference.py``) over the token texts, then a per-index merge of
entity labels.  It shares only the lexical rules (called unmemoized)
and the recognizer's matchers with the code under test.
:meth:`Annotator.annotate` must return an equal :class:`AnnotatedText`
— exact ``==`` on every token and entity — on corpus template sentences
mixed with tokenizer and chunker edge cases, and on every sentence of a
generated corpus.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import templates
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.text.annotator import AnnotatedText, AnnotatedToken, Annotator
from repro.text.ner import NamedEntityRecognizer, NerConfig
from repro.text.pos import VERBS, TaggedToken, _lexical_tag
from repro.text.sentences import split_sentence_texts
from tests.text.ner_reference import reference_recognize_words
from tests.text.tokenizer_reference import reference_tokenize

NER_CONFIG = NerConfig()


def reference_tags(words: list[str]) -> list[TaggedToken]:
    tagged, initial = [], True
    for word in words:
        tag = _lexical_tag(word, initial)
        tagged.append(TaggedToken(word, tag))
        if tag != "punct":
            initial = False
        elif word in ".!?":
            initial = True
    patched = list(tagged)
    for index, item in enumerate(patched):
        previous = patched[index - 1] if index > 0 else None
        if item.tag == "vb" and previous is not None and previous.tag == "dt":
            nxt = patched[index + 1] if index + 1 < len(patched) else None
            if nxt is None or nxt.tag in {"punct", "in", "cc"}:
                patched[index] = TaggedToken(item.text, "nn")
        if item.tag == "nn" and previous is not None:
            if previous.tag in ("to", "md") and item.text.lower() in VERBS:
                patched[index] = TaggedToken(item.text, "vb")
    return patched


def reference_annotate(
    text: str, ner: NamedEntityRecognizer | None = None
) -> AnnotatedText:
    ner = ner or NamedEntityRecognizer(NER_CONFIG)
    words = [token.text for token in reference_tokenize(text)]
    entities = reference_recognize_words(ner, words)
    label_by_index = {}
    for entity in entities:
        for index in range(entity.start, entity.end):
            label_by_index[index] = entity.label
    return AnnotatedText(
        text=text,
        tokens=tuple(
            AnnotatedToken(item.text, item.tag, label_by_index.get(index))
            for index, item in enumerate(reference_tags(words))
        ),
        entities=tuple(entities),
    )


_TEMPLATES = (
    templates.ma_trigger,
    templates.ma_retrospective,
    templates.cim_trigger,
    templates.biography_sentence,
    templates.rg_trigger,
    templates.funding_trigger,
    templates.funding_retrospective,
    templates.layoff_trigger,
    templates.layoff_rumor,
    templates.business_noise,
    templates.product_review_sentence,
    lambda pool, rng: templates.background_sentence(rng),
)


def render(seed: int, which: int) -> str:
    rng = random.Random(seed)
    return _TEMPLATES[which](templates.EntityPool(rng), rng).text


#: Shapes the tokenizer, chunker, tagger or recognizer treat specially.
EDGE_CASES = (
    "Mr. John Carter joined Acme Inc. as CEO.",
    "Globex Corp. opened a U.S. office in Boston.",
    "The fee was Rs. 500 crore.",
    "Sales slowed...",
    "Really?!",
    'He said "Yes." Then he left.',
    "Acme paid $4.5 billion in cash.",
    "Revenue rose 12 percent.",
    "The call starts at 10:30 a.m. today.",
    "The board sold the acquired.",
    "Investors backed the merged",
    "Shares closed higher on Friday",
    "Profits rose at A.B. XYZ shares fell.",
)

template_sentences = st.builds(
    render, st.integers(0, 2**32), st.integers(0, len(_TEMPLATES) - 1)
)
pieces = st.one_of(template_sentences, st.sampled_from(EDGE_CASES))
texts = st.tuples(
    st.lists(pieces, max_size=5), st.sampled_from([" ", "  ", "\n", ""])
).map(lambda parts: parts[1].join(parts[0]))

ANNOTATOR = Annotator(NER_CONFIG)
REFERENCE_NER = NamedEntityRecognizer(NER_CONFIG)


@settings(max_examples=300, deadline=None)
@given(texts)
def test_annotator_equals_reference(text):
    assert ANNOTATOR.annotate(text) == reference_annotate(text, REFERENCE_NER)


def test_every_edge_case_equals_reference():
    for text in EDGE_CASES:
        assert ANNOTATOR.annotate(text) == reference_annotate(
            text, REFERENCE_NER
        ), text


def test_equal_tokens_are_interned():
    annotator = Annotator(NER_CONFIG)
    first = annotator.annotate("Revenue rose 12 percent.")
    second = annotator.annotate("Profits rose sharply.")
    assert first.tokens[1] is second.tokens[1]
    assert first.tokens[-1] is second.tokens[-1]


def test_every_corpus_sentence_equals_reference():
    documents = CorpusGenerator(CorpusConfig(seed=7)).generate(150)
    sentences = {
        sentence
        for document in documents
        for sentence in split_sentence_texts(document.text)
    }
    assert len(sentences) > 300
    annotator = Annotator(NER_CONFIG)
    for sentence in sorted(sentences):
        assert annotator.annotate(sentence) == reference_annotate(
            sentence, REFERENCE_NER
        ), sentence
