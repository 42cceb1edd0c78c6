"""Durability: model persistence, write-ahead log, checkpoints.

Three layers of state survive process death here:

* **trained classifiers** — a production deployment trains per-driver
  classifiers once and serves them across many crawl cycles;
  :func:`save_classifier` serializes a trained
  :class:`~repro.core.classifier.TriggerEventClassifier` — abstraction
  policy, vocabulary and model parameters — to a single JSON document,
  and :func:`load_classifier` restores it without retraining.
  The inner model is the pipeline's multinomial naive Bayes; any
  other model raises :class:`UnsupportedModelError`.
* **write-ahead log** — :class:`WriteAheadLog` appends schema-versioned
  JSONL records (the :class:`~repro.obs.events.Event` envelope, with
  ``stream_*`` record types) with a flush+fsync per record, so every
  acknowledged record survives a kill.  A deterministic
  ``kill_after`` crash hook lets tests kill the process after *any*
  record position.
* **checkpoints** — :class:`CheckpointStore` writes numbered JSON
  snapshots of processor state atomically (temp file + ``os.replace``),
  keeps the newest two and restores the latest complete one, ignoring
  torn leftovers.

The streaming processor (:mod:`repro.stream`) composes the WAL and the
checkpoint store into the recovery contract documented in
docs/STREAMING.md: resume from the latest checkpoint, learn what was
already emitted from the WAL tail, and reprocess the rest exactly once.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.core.classifier import TriggerEventClassifier
from repro.features.abstraction import AbstractionPolicy
from repro.features.vectorizer import VectorizerConfig
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.obs.clock import MonotonicClock
from repro.obs.events import EVENT_TYPES, Event, new_run_id
from repro.text.engine import AnnotationEngine

FORMAT_VERSION = 1


class UnsupportedModelError(TypeError):
    """Raised when the classifier's inner model cannot be serialized."""


def _dump_model(model) -> dict:
    if isinstance(model, MultinomialNaiveBayes):
        return {
            "kind": "multinomial_nb",
            "alpha": model.alpha,
            "class_log_prior": model.class_log_prior_.tolist(),
            "feature_log_prob": model.feature_log_prob_.tolist(),
        }
    raise UnsupportedModelError(
        f"cannot serialize model of type {type(model).__name__}"
    )


def _load_model(record: dict):
    kind = record["kind"]
    if kind == "multinomial_nb":
        model = MultinomialNaiveBayes(alpha=record["alpha"])
        model.class_log_prior_ = np.array(record["class_log_prior"])
        model.feature_log_prob_ = np.array(record["feature_log_prob"])
        model._fitted = True
        return model
    raise UnsupportedModelError(f"unknown model kind {kind!r}")


def classifier_to_dict(classifier: TriggerEventClassifier) -> dict:
    """Serialize a *trained* classifier to a JSON-compatible dict."""
    if classifier._model is None:
        raise ValueError("classifier must be trained before saving")
    return {
        "format_version": FORMAT_VERSION,
        "driver_id": classifier.driver_id,
        "policy": sorted(classifier.policy.abstract_categories),
        "vectorizer": {
            "min_df": classifier.vectorizer.config.min_df,
            "binary": classifier.vectorizer.config.binary,
            "max_features": classifier.vectorizer.config.max_features,
            "ngram_range": list(classifier.vectorizer.config.ngram_range),
            "vocabulary": classifier.vectorizer.vocabulary,
        },
        "model": _dump_model(classifier._model),
    }


def classifier_from_dict(
    record: dict, text_engine: AnnotationEngine | None = None
) -> TriggerEventClassifier:
    """Rebuild a classifier saved by :func:`classifier_to_dict`.

    ``text_engine`` is the annotation engine it reads features through
    (a private one when ``None``).
    """
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported classifier format version {version!r}"
        )
    vec_record = record["vectorizer"]
    classifier = TriggerEventClassifier(
        record["driver_id"],
        policy=AbstractionPolicy(
            abstract_categories=frozenset(record["policy"])
        ),
        vectorizer_config=VectorizerConfig(
            min_df=vec_record["min_df"],
            binary=vec_record["binary"],
            max_features=vec_record["max_features"],
            # Records written before n-grams were saved are unigram.
            ngram_range=tuple(vec_record.get("ngram_range", (1, 1))),
        ),
        text_engine=text_engine,
    )
    vectorizer = classifier.vectorizer
    vectorizer.vocabulary = dict(vec_record["vocabulary"])
    vectorizer._fitted = True
    classifier._model = _load_model(record["model"])
    return classifier


def save_classifier(
    classifier: TriggerEventClassifier, path: str | Path
) -> None:
    """Write a trained classifier to a JSON file."""
    Path(path).write_text(
        json.dumps(classifier_to_dict(classifier)), encoding="utf-8"
    )


def load_classifier(
    path: str | Path, text_engine: AnnotationEngine | None = None
) -> TriggerEventClassifier:
    """Load a classifier written by :func:`save_classifier`."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    return classifier_from_dict(record, text_engine)


def save_classifiers(
    classifiers: dict[str, TriggerEventClassifier], directory: str | Path
) -> list[Path]:
    """Save one JSON file per driver into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for driver_id, classifier in classifiers.items():
        path = directory / f"{driver_id}.classifier.json"
        save_classifier(classifier, path)
        written.append(path)
    return written


def load_classifiers(
    directory: str | Path,
    text_engine: AnnotationEngine | None = None,
) -> dict[str, TriggerEventClassifier]:
    """Load every ``*.classifier.json`` in ``directory``.

    The classifiers share ``text_engine``, so each sentence is
    featurized once for all of them.
    """
    directory = Path(directory)
    classifiers = {}
    for path in sorted(directory.glob("*.classifier.json")):
        classifier = load_classifier(path, text_engine)
        classifiers[classifier.driver_id] = classifier
    return classifiers


# -- write-ahead log -----------------------------------------------------------

class SimulatedCrash(RuntimeError):
    """Deterministic kill: raised after the Nth WAL record is durable.

    The record that trips the kill is already flushed and fsynced when
    this raises, so a "crash after record N" leaves exactly N records
    on disk — the contract the recovery fuzz suite kills against.
    """

    def __init__(self, records_written: int) -> None:
        self.records_written = records_written
        super().__init__(
            f"simulated crash after WAL record {records_written}"
        )


class WriteAheadLog:
    """Append-only, fsynced JSONL log of streaming-processor records.

    Records reuse the flight recorder's schema-versioned
    :class:`~repro.obs.events.Event` envelope (``stream_batch_begin``,
    ``stream_alert``, ``late_arrival``, ``stream_batch_commit``,
    ``checkpoint_written``, ``stream_resumed``), so one set of tooling
    validates both logs.  Unlike :class:`~repro.obs.events.EventLog`
    this log *appends* to an existing file — sequence numbers continue
    across process restarts — and flushes + fsyncs every record, making
    each append a durability point.

    ``kill_after`` arms the deterministic crash hook: the append that
    writes the ``kill_after``-th record of this process's lifetime
    completes durably, then raises :class:`SimulatedCrash`.
    """

    def __init__(
        self, path: str | Path, kill_after: int | None = None
    ) -> None:
        if kill_after is not None and kill_after < 1:
            raise ValueError("kill_after must be >= 1")
        self.path = Path(path)
        self.clock = MonotonicClock()
        self.kill_after = kill_after
        #: Records appended by THIS process (the kill counter).
        self.records_written = 0
        existing = self.read()
        self._seq = existing[-1].seq + 1 if existing else 0
        self.run_id = existing[-1].run_id if existing else new_run_id()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    @property
    def last_seq(self) -> int:
        """Sequence number of the last durable record (-1 when empty)."""
        return self._seq - 1

    def append(self, event_type: str, **payload) -> Event:
        """Durably append one record; the schema floor is enforced.

        Returns only after flush + fsync — when this returns (or raises
        :class:`SimulatedCrash`), the record is on disk.
        """
        required = EVENT_TYPES.get(event_type)
        if required is None:
            raise ValueError(f"unknown WAL record type {event_type!r}")
        missing = required - set(payload)
        if missing:
            raise ValueError(
                f"{event_type}: missing payload fields {sorted(missing)}"
            )
        record = Event(
            event_type=event_type,
            run_id=self.run_id,
            seq=self._seq,
            ts=self.clock.now(),
            payload=payload,
        )
        self._handle.write(record.to_json() + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._seq += 1
        self.records_written += 1
        if (
            self.kill_after is not None
            and self.records_written >= self.kill_after
        ):
            raise SimulatedCrash(self.records_written)
        return record

    def read(self) -> list[Event]:
        """Every durable record, oldest first (tolerates a torn tail).

        A crash can leave a final partial line (the write that never
        finished); reading stops there — it was never acknowledged.
        """
        if not self.path.exists():
            return []
        events: list[Event] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(Event.from_json(line))
                except (ValueError, json.JSONDecodeError):
                    break  # torn tail: everything after is unacked
        return events

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- checkpoints ---------------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1


def encode(value) -> str:
    """The checkpoint encoding: ``json.dumps(value, sort_keys=True)``."""
    return json.dumps(value, sort_keys=True)


def encode_array(items: Iterable[str]) -> str:
    """:func:`encode` of a list whose items are given already encoded."""
    return "[" + ", ".join(items) + "]"


def encode_object(members: Mapping[str, str]) -> str:
    """:func:`encode` of a dict whose values are given already encoded."""
    return "{" + ", ".join(
        f"{encode(key)}: {members[key]}" for key in sorted(members)
    ) + "}"


class CheckpointStore:
    """Numbered, atomically written JSON checkpoints in one directory.

    Each checkpoint is a single ``checkpoint-NNNNNN.json`` file written
    via temp file + ``os.replace``, so a crash mid-write leaves either
    the previous complete file set or a stray ``*.tmp`` — never a torn
    checkpoint.  :meth:`latest` returns the newest *readable* state and
    skips unreadable or version-mismatched files instead of failing the
    whole recovery.  A save keeps the checkpoint it wrote and the newest
    one before it, the fallback, and deletes the older ones.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_of(self, checkpoint_id: int) -> Path:
        return self.directory / f"checkpoint-{checkpoint_id:06d}.json"

    def save(self, checkpoint_id: int, state: str) -> Path:
        """Atomically persist one checkpoint; returns its path.

        ``state`` is the :func:`encode` text of the state; the file
        holds :func:`encode` of the envelope around it.
        """
        if checkpoint_id < 0:
            raise ValueError("checkpoint_id must be >= 0")
        text = encode_object({
            "format_version": encode(CHECKPOINT_FORMAT_VERSION),
            "checkpoint_id": encode(checkpoint_id),
            "state": state,
        })
        path = self.path_of(checkpoint_id)
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The rename must be durable before the fallbacks go.
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        older = [i for i in self.checkpoint_ids() if i < checkpoint_id]
        for stale in older[:-1]:
            self.path_of(stale).unlink(missing_ok=True)
        return path

    def checkpoint_ids(self) -> list[int]:
        """All complete checkpoint ids, oldest first."""
        ids = []
        for path in self.directory.glob("checkpoint-*.json"):
            stem = path.stem.rsplit("-", 1)[-1]
            if stem.isdigit():
                ids.append(int(stem))
        return sorted(ids)

    def load(self, checkpoint_id: int) -> dict:
        """Load one checkpoint's state; raises on version mismatch."""
        payload = json.loads(
            self.path_of(checkpoint_id).read_text(encoding="utf-8")
        )
        version = payload.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format version {version!r}"
            )
        return payload["state"]

    def latest(self) -> tuple[int, dict] | None:
        """Newest loadable ``(checkpoint_id, state)``, or ``None``.

        Unreadable or version-mismatched files are skipped (a crashed
        writer must never block recovery from an older good one).
        """
        for checkpoint_id in reversed(self.checkpoint_ids()):
            try:
                return checkpoint_id, self.load(checkpoint_id)
            except (ValueError, json.JSONDecodeError, OSError):
                continue
        return None
