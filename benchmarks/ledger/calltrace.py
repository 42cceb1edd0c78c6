"""Call-boundary tracer for the benchmark's traced runs.

The tracer records spans from outside the program: for the duration of a
run it replaces public methods of the program's classes (and public
module functions, in every ``repro`` module that imported them) with
wrappers that time each call, then puts the originals back.  Nothing in
``src/`` knows it is being traced.

Each span holds its name, start, end, parent span, op id and thread.
Spans stay in memory until :meth:`CallTracer.ledger` aggregates them.
A layer's self time is its spans' time minus the time their child spans
cover.  Threads the program starts for its own helpers (the portal's
query workers, the gatherer's cache warm-up pool) have no parent span of
their own; their root spans are attached to the innermost span of a
driving thread that encloses them, so waiting is not counted twice.
Shard worker *processes* are not traced; the parent's ``ingest.ingest``
span covers them.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


def _n(args, result) -> int:
    return len(result)


def _arg(index: int):
    return lambda args, result: len(args[index])


#: (span name, module, class or None for a module function, attribute,
#: items of work per call or None).  The span name's first component is
#: the layer.  ``items`` receives the call's positional arguments
#: (``self`` first for methods) and its result.
TARGETS = (
    ("crawler.crawl", "repro.search.crawler", "FocusedCrawler", "crawl",
     lambda args, result: len(result.pages)),
    ("gather.gather", "repro.gather.pipeline", "DataGatherer", "gather",
     lambda args, result: result.documents_stored),
    ("store.try_add", "repro.gather.store", "DocumentStore", "try_add", None),
    ("ingest.ingest", "repro.gather.ingest", "ShardedIngester", "ingest",
     _arg(2)),
    ("text.annotate", "repro.text.engine", "AnnotationEngine", "annotate",
     None),
    ("text.sentences", "repro.text.engine", "AnnotationEngine", "sentences",
     None),
    ("text.index_terms", "repro.text.engine", "AnnotationEngine",
     "index_terms", None),
    ("text.features", "repro.text.engine", "AnnotationEngine", "features",
     None),
    ("features.fit", "repro.features.vectorizer", "Vectorizer", "fit",
     _arg(1)),
    ("features.transform", "repro.features.vectorizer", "Vectorizer",
     "transform", _arg(1)),
    ("search.engine", "repro.search.engine", "SearchEngine", "search", None),
    ("search.snapshot", "repro.serve.shards", "IndexSnapshot", "search",
     None),
    ("index.postings", "repro.search.index", "InvertedIndex", "postings",
     None),
    ("index.phrase_docs", "repro.search.index", "InvertedIndex",
     "phrase_docs", None),
    ("index.clone", "repro.search.index", "InvertedIndex", "clone", None),
    ("index.add_document", "repro.search.index", "InvertedIndex",
     "add_document", None),
    ("training.noisy_positive", "repro.core.training",
     "TrainingDataGenerator", "noisy_positive", None),
    ("training.negative_sample", "repro.core.training",
     "TrainingDataGenerator", "negative_sample", _n),
    ("training.snippets_of_document", "repro.core.training",
     "TrainingDataGenerator", "snippets_of_document", _n),
    ("training.annotate_snippets", "repro.core.training",
     "TrainingDataGenerator", "annotate_snippets", _n),
    ("classifier.fit", "repro.core.classifier", "TriggerEventClassifier",
     "fit", None),
    ("classifier.score", "repro.core.classifier", "TriggerEventClassifier",
     "score", _n),
    ("classifier.denoise", "repro.ml.noise", "IterativeNoiseReducer", "fit",
     None),
    ("ranking.make_trigger_events", "repro.core.ranking", None,
     "make_trigger_events", _n),
    ("ranking.rank_events", "repro.core.ranking", None, "rank_events", _n),
    ("ranking.score_companies", "repro.core.ranking", "CompanyRanker",
     "score_companies", _n),
    ("alerts.poll", "repro.core.alerts", "AlertService", "poll",
     lambda args, result: len(result.alerts)),
    ("serve.query", "repro.serve.portal", "AlertPortal", "query", None),
    ("serve.refresh", "repro.serve.portal", "AlertPortal", "refresh", None),
    ("serve.publish", "repro.serve.portal", "AlertPortal", "publish", None),
    ("serve.poll_alerts", "repro.serve.portal", "AlertPortal",
     "poll_alerts", _n),
    ("serve.cache.get", "repro.serve.cache", "QueryCache", "get", None),
    ("serve.cache.put", "repro.serve.cache", "QueryCache", "put", None),
    ("serve.cache.invalidate", "repro.serve.cache", "QueryCache",
     "invalidate_other_generations", lambda args, result: result),
    ("serve.workers.execute", "repro.serve.workers", "WorkerPool",
     "execute", None),
    ("serve.admission.admit", "repro.serve.admission",
     "AdmissionController", "admit",
     lambda args, result: 0 if result else 1),
    ("shards.extend", "repro.serve.shards", "ShardedIndex", "extend", None),
    ("shards.rebuild", "repro.serve.shards", "ShardedIndex",
     "rebuild_from_store", None),
    ("shards.restore", "repro.serve.shards", "ShardedIndex", "restore",
     None),
    ("stream.process_batch", "repro.stream.processor", "StreamProcessor",
     "process_batch", lambda args, result: result.n_ingested),
    ("stream.resume", "repro.stream.processor", "StreamProcessor", "resume",
     None),
    ("wal.append", "repro.core.persistence", "WriteAheadLog", "append",
     None),
    ("checkpoint.save", "repro.core.persistence", "CheckpointStore", "save",
     lambda args, result: result.stat().st_size),
    ("checkpoint.load", "repro.core.persistence", "CheckpointStore", "load",
     None),
    ("checkpoint.latest", "repro.core.persistence", "CheckpointStore",
     "latest", None),
)


class Span:
    __slots__ = ("name", "parent", "op", "thread", "start", "end", "items")

    def __init__(self, name, parent, op, thread) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.items = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class NameStats:
    """Aggregate of every span that carries one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class Ledger:
    """What a traced run measured, aggregated per span name."""

    names: dict[str, NameStats]
    #: Per layer, the durations of its calls made from another layer
    #: (a snapshot search counts once, not once per shard engine).
    entries: dict[str, list[float]]
    #: Share of the ops' wall time covered by the top-level spans they ran.
    coverage: float
    n_spans: int
    n_ops: int

    def layer_self_s(self, layer: str) -> float:
        return sum(
            stats.self_s
            for name, stats in self.names.items()
            if _layer(name) == layer
        )

    def stat(self, name: str) -> NameStats:
        return self.names.get(name, NameStats())


class CallTracer:
    """Patches the program's public calls for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (op id, thread, start, end) of every op run under :meth:`op`.
        self.ops: list[tuple[object, int, float, float]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, items):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                name,
                stack[-1] if stack else None,
                getattr(tracer._local, "op", None),
                threading.get_ident(),
            )
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if items is not None:
                span.items = int(items(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Mark one timed operation of the workload on this thread."""
        self._local.op = op_id
        start = perf_counter()
        try:
            yield
        finally:
            self.ops.append(
                (op_id, threading.get_ident(), start, perf_counter())
            )
            self._local.op = None

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for name, module_name, owner_name, attr, items in TARGETS:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    self._patch_function(module, attr, name, items)
                else:
                    self._patch_method(
                        getattr(module, owner_name), attr, name, items
                    )
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch_method(self, owner, attr, name, items) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, items))
        else:
            wrapped = self.wrap(name, original, items)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, attr, name, items) -> None:
        # ``from x import f`` binds f in the caller's namespace, so the
        # wrapper replaces every repro module's reference to f.
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, items)
        for caller in list(sys.modules.values()):
            if (
                getattr(caller, "__name__", "").startswith("repro")
                and getattr(caller, attr, None) is original
            ):
                self._patches.append((caller, attr, original))
                setattr(caller, attr, wrapped)

    # -- aggregation -------------------------------------------------------

    def ledger(self) -> Ledger:
        spans = self.spans
        driving = {thread for _, thread, _, _ in self.ops}
        driving.add(threading.main_thread().ident)
        by_thread: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            by_thread[span.thread].append(span)
        for thread_spans in by_thread.values():
            thread_spans.sort(key=lambda span: span.start)
        starts = {
            thread: [span.start for span in thread_spans]
            for thread, thread_spans in by_thread.items()
        }
        for span in spans:
            if span.parent is None and span.thread not in driving:
                span.parent = self._enclosing(
                    span, driving, by_thread, starts
                )

        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        names: dict[str, NameStats] = defaultdict(NameStats)
        entries: dict[str, list[float]] = defaultdict(list)
        for span in spans:
            stats = names[span.name]
            stats.calls += 1
            stats.total_s += span.duration
            stats.self_s += span.duration - child_time.get(id(span), 0.0)
            stats.items += span.items
            layer = _layer(span.name)
            if span.parent is None or _layer(span.parent.name) != layer:
                entries[layer].append(span.duration)

        op_wall = sum(end - start for _, _, start, end in self.ops)
        covered = sum(
            span.duration
            for span in spans
            if span.parent is None and span.op is not None
        )
        return Ledger(
            names=dict(names),
            entries=dict(entries),
            coverage=covered / op_wall if op_wall else 0.0,
            n_spans=len(spans),
            n_ops=len(self.ops),
        )

    @staticmethod
    def _enclosing(span, driving, by_thread, starts) -> Span | None:
        """Innermost driving-thread span enclosing ``span``, latest first."""
        best = None
        for thread in driving:
            index = bisect.bisect_right(starts.get(thread, []), span.start)
            if index == 0:
                continue
            candidate = by_thread[thread][index - 1]
            while candidate is not None and candidate.end < span.end:
                candidate = candidate.parent
            if candidate is not None and (
                best is None or candidate.start > best.start
            ):
                best = candidate
        return best
