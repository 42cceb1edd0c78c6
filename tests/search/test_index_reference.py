"""The index's write path against an argsort reference build.

:meth:`InvertedIndex.add_documents` merges each batch into the existing
term-major arrays instead of re-sorting every token.  This suite pins
that the merge is invisible: after any write history — replaced keys,
keys repeated within a batch, unseen terms, empty documents, clones
written on their own — every array equals (values and dtypes) the one a
test-local builder gets by stable-sorting all live tokens by term.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

from repro.search.index import InvertedIndex

ARRAYS = (
    "sorted_doc", "sorted_pos", "term_starts", "run_doc", "run_tf",
    "run_starts", "lengths",
)

KEYS = [f"doc-{i}" for i in range(6)]

#: Few enough words to repeat, yet later batches still bring unseen ones.
words = st.sampled_from([f"w{i}" for i in range(12)])
texts = st.lists(words, max_size=8).map(" ".join)  # "" is an empty doc
batches = st.lists(st.tuples(st.sampled_from(KEYS), texts), max_size=6)
#: A step writes one batch, or clones the index and writes to the clone.
steps = st.lists(
    st.one_of(batches, st.just("clone")), min_size=1, max_size=8
)


class Model:
    """What an index should hold after a write history."""

    def __init__(self) -> None:
        self.term_ids: dict[str, int] = {}
        self.docs: dict[str, str] = {}  # key -> text, in ingest order

    def copy(self) -> "Model":
        model = Model()
        model.term_ids = dict(self.term_ids)
        model.docs = dict(self.docs)
        return model

    def write(self, batch) -> None:
        last: dict[str, str] = {}
        for key, text in batch:
            last.pop(key, None)  # a repeated key keeps its last text
            last[key] = text
        for key, text in last.items():
            self.docs.pop(key, None)  # and moves to the end
            self.docs[key] = text
            for term in text.split():
                self.term_ids.setdefault(term, len(self.term_ids))

    def arrays(self) -> dict[str, np.ndarray]:
        """Every live token, stable-sorted by term in one argsort."""
        token_lists = [text.split() for text in self.docs.values()]
        lengths = np.array([len(t) for t in token_lists], dtype=np.int64)
        terms = np.array(
            [self.term_ids[t] for tokens in token_lists for t in tokens],
            dtype=np.int32,
        )
        docs = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        pos = np.array(
            [at for tokens in token_lists for at in range(len(tokens))],
            dtype=np.uint32,
        )
        order = np.argsort(terms, kind="stable")
        terms, docs, pos = terms[order], docs[order], pos[order]
        term_starts = np.searchsorted(
            terms, np.arange(len(self.term_ids) + 1)
        )
        first = np.ones(len(terms), dtype=bool)
        first[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
        run_at = np.flatnonzero(first)
        return {
            "sorted_doc": docs,
            "sorted_pos": pos,
            "term_starts": term_starts,
            "run_doc": docs[run_at],
            "run_tf": np.diff(run_at, append=len(terms)).astype(np.int32),
            "run_starts": np.searchsorted(run_at, term_starts),
            "lengths": lengths,
        }


def assert_matches(index: InvertedIndex, model: Model) -> None:
    expected = model.arrays()
    for name in ARRAYS:
        got = getattr(index, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name
    assert index.term_ids == model.term_ids
    assert index.keys == list(model.docs)
    assert [key for key in KEYS if key in index] == [
        key for key in KEYS if key in model.docs
    ]
    assert index.titles == [key.upper() for key in model.docs]
    assert index.total_terms == int(expected["lengths"].sum())
    assert [index.doc_length(key) for key in model.docs] == [
        len(text.split()) for text in model.docs.values()
    ]
    assert all(
        not getattr(index, name).flags.writeable
        for name in ("sorted_doc", "sorted_pos", "run_doc", "run_tf")
    )


def write(index: InvertedIndex, batch) -> None:
    index.add_documents(
        ((key, text, key.upper()) for key, text in batch),
        terms_of=str.split,
    )


@given(steps)
def test_every_write_history_equals_the_argsort_build(history):
    index, model = InvertedIndex(), Model()
    left_behind: list[tuple[InvertedIndex, Model]] = []
    for step in history:
        if step == "clone":
            # The clone takes the writes from here; the original must
            # keep its state whatever the clone is given.
            left_behind.append((index, model.copy()))
            index = index.clone()
            continue
        write(index, step)
        model.write(step)
        assert_matches(index, model)
    for original, frozen in left_behind:
        assert_matches(original, frozen)


@given(batches, batches)
def test_bulk_builds_equal_the_argsort_build(first, then):
    """A save/load round trip and a token stream are merges into an
    empty index, and later writes merge into them the same way."""
    model = Model()
    model.write(first)
    vocab = list(model.term_ids)
    token_lists = [text.split() for text in model.docs.values()]
    streamed = InvertedIndex.from_token_stream(
        vocab,
        list(model.docs),
        [key.upper() for key in model.docs],
        np.array(
            [model.term_ids[t] for tokens in token_lists for t in tokens],
            dtype=np.int32,
        ),
        np.cumsum([0] + [len(tokens) for tokens in token_lists]),
    )
    assert_matches(streamed, model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.npz"
        streamed.save(path)
        loaded = InvertedIndex.load(path)
    assert_matches(loaded, model)
    model.write(then)
    for index in (streamed, loaded):
        write(index, then)
        assert_matches(index, model)
