"""Text-processing substrate: tokenizer, sentences, stemmer, POS, NER."""

from repro.text.annotator import AnnotatedText, AnnotatedToken, Annotator
from repro.text.engine import (
    AnnotationCache,
    AnnotationEngine,
    CacheStats,
)
from repro.text.ner import (
    ENTITY_CATEGORIES,
    Entity,
    NamedEntityRecognizer,
    NerConfig,
)
from repro.text.pos import OPEN_CLASS_TAGS, TaggedToken, tag, tag_words
from repro.text.sentences import Sentence, split_sentence_texts, split_sentences
from repro.text.stem import PorterStemmer, stem
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.tokenizer import Token, tokenize, tokenize_words

__all__ = [
    "AnnotatedText",
    "AnnotatedToken",
    "AnnotationCache",
    "AnnotationEngine",
    "Annotator",
    "CacheStats",
    "ENTITY_CATEGORIES",
    "Entity",
    "NamedEntityRecognizer",
    "NerConfig",
    "OPEN_CLASS_TAGS",
    "PorterStemmer",
    "STOPWORDS",
    "Sentence",
    "TaggedToken",
    "Token",
    "is_stopword",
    "split_sentence_texts",
    "split_sentences",
    "stem",
    "tag",
    "tag_words",
    "tokenize",
    "tokenize_words",
]
