"""ETAP — the Electronic Trigger Alert Program, end to end.

The facade composes the three components of Figure 1:

1. **data gathering** — crawl the (synthetic) web into a document store
   and search index;
2. **event identification** — generate training data per sales driver
   (smart queries + filters), train the noise-tolerant classifiers, and
   score every snippet in the collection;
3. **ranking** — order trigger events by classifier score (optionally by
   semantic orientation for revenue growth) and aggregate per company
   with Equation 2.

Typical use::

    etap = Etap.from_web(build_web(3000))
    etap.gather()
    etap.train()
    events = etap.extract_trigger_events()
    leads = etap.company_report(events)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.classifier import TriggerEventClassifier, TrainingSummary
from repro.core.company import CompanyNormalizer
from repro.core.drivers import SalesDriver, builtin_drivers
from repro.core.lexicon import revenue_growth_lexicon
from repro.core.ranking import (
    CompanyRanker,
    CompanyScore,
    SemanticOrientationRanker,
    TriggerEvent,
    make_trigger_events,
    rank_events,
)
from repro.core.training import (
    AnnotatedSnippet,
    NoisyPositiveReport,
    TrainingDataGenerator,
)
from repro.corpus.web import SyntheticWeb
from repro.gather.pipeline import DataGatherer, GatherReport
from repro.gather.store import DocumentStore
from repro.obs.drift import DriftBaseline, DriftMonitor
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.engine import SearchEngine
from repro.text.engine import AnnotationEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.industry import IndustryProfile

#: Posterior at or above which a snippet is a trigger event.
TRIGGER_THRESHOLD = 0.5
#: How many snippets per extraction feed the OOV drift monitor.
DRIFT_TOKEN_SAMPLE = 500


@dataclass
class EtapConfig:
    """The pipeline's corpus-scale settings (paper defaults).

    The paper's fixed parameters live with the components that use
    them: snippets of three sentences
    (:class:`~repro.core.snippets.SnippetGenerator`), and two denoising
    iterations of naive Bayes with pure positives oversampled 3x
    (:class:`~repro.core.classifier.TriggerEventClassifier`).
    """

    top_k_per_query: int = 200
    negative_sample_size: int = 6000
    #: Ingestion fan-out width (``--workers`` on the CLI).  With
    #: ``workers > 1`` the initial gather partitions documents by
    #: content hash and each worker *process* owns its shard
    #: end-to-end (tokenize, build its postings slice) before a
    #: deterministic merge — see :mod:`repro.gather.ingest`.
    #: ``workers=1`` runs the same shard code inline, warming the
    #: shared annotation cache for later stages.  Output is
    #: bit-identical for every worker count.
    workers: int = 1


class Etap:
    """The assembled pipeline; one instance per corpus."""

    def __init__(
        self,
        store: DocumentStore,
        engine: SearchEngine,
        drivers: Sequence[SalesDriver] | None = None,
        config: EtapConfig | None = None,
        web: SyntheticWeb | None = None,
        tracer: AnyTracer | None = None,
        text_engine: AnnotationEngine | None = None,
    ) -> None:
        self.config = config or EtapConfig()
        self.drivers = list(drivers) if drivers else builtin_drivers()
        self.store = store
        self.engine = engine
        self._web = web
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: The annotate-once engine shared by every stage: gathering,
        #: training and extraction all read annotations,
        #: sentence splits, sentence terms and abstracted features from
        #: its content-keyed caches instead of recomputing them per stage.
        self.text_engine = text_engine or AnnotationEngine()
        self.annotator = self.text_engine.annotator
        if engine.text_engine is None:
            engine.text_engine = self.text_engine
        self.training = TrainingDataGenerator(
            store=store,
            engine=engine,
            tracer=self.tracer,
            text_engine=self.text_engine,
        )
        self.normalizer = CompanyNormalizer()
        self.classifiers: dict[str, TriggerEventClassifier] = {}
        self.noisy_reports: dict[str, NoisyPositiveReport] = {}
        self.drift_monitors: dict[str, DriftMonitor] = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_web(
        cls,
        web: SyntheticWeb,
        drivers: Sequence[SalesDriver] | None = None,
        config: EtapConfig | None = None,
        tracer: AnyTracer | None = None,
        fetcher=None,
    ) -> "Etap":
        """Build an ETAP whose gather step crawls the given web.

        ``web`` may be a :class:`~repro.robustness.faults.FaultyWeb`;
        the gatherer then fetches through a
        :class:`~repro.robustness.fetcher.ResilientFetcher` (pass
        ``fetcher`` to override its retry/breaker policy) and the
        pipeline degrades gracefully instead of crashing.
        """
        config = config or EtapConfig()
        text_engine = AnnotationEngine()
        gatherer = DataGatherer(
            web,
            tracer=tracer,
            fetcher=fetcher,
            text_engine=text_engine,
            workers=config.workers,
        )
        etap = cls(
            store=gatherer.store,
            engine=gatherer.engine,
            drivers=drivers,
            config=config,
            web=web,
            tracer=tracer,
            text_engine=text_engine,
        )
        etap._gatherer = gatherer
        return etap

    # -- component 1: data gathering -------------------------------------------

    def gather(self) -> GatherReport:
        """Crawl and index the web (no-op when built from a store)."""
        gatherer = getattr(self, "_gatherer", None)
        if gatherer is None:
            raise RuntimeError(
                "this Etap was built from an existing store; "
                "use Etap.from_web to enable gathering"
            )
        return gatherer.gather()

    # -- component 2: event identification -------------------------------------

    def train(
        self,
        pure_positive: dict[str, Sequence[AnnotatedSnippet]] | None = None,
        negative_seed: int = 17,
    ) -> dict[str, TrainingSummary]:
        """Generate training data and fit one classifier per driver."""
        if len(self.store) == 0:
            raise RuntimeError("gather() must run before train()")
        pure_positive = pure_positive or {}
        with self.tracer.span("train") as span:
            negatives = self.training.negative_sample(
                self.config.negative_sample_size, seed=negative_seed
            )
            summaries: dict[str, TrainingSummary] = {}
            for driver in self.drivers:
                noisy, report = self.training.noisy_positive(
                    driver, top_k_per_query=self.config.top_k_per_query
                )
                self.noisy_reports[driver.driver_id] = report
                classifier = TriggerEventClassifier(
                    driver_id=driver.driver_id,
                    tracer=self.tracer,
                    text_engine=self.text_engine,
                )
                classifier.fit(
                    noisy_positive=noisy,
                    negative=negatives,
                    pure_positive=tuple(
                        pure_positive.get(driver.driver_id, ())
                    ),
                )
                self.classifiers[driver.driver_id] = classifier
                summaries[driver.driver_id] = classifier.summary
                if self.tracer.recording:
                    self._install_drift_monitor(
                        classifier, list(noisy) + list(negatives)
                    )
            span.add_items(
                sum(s.n_noisy_positive for s in summaries.values())
            )
        return summaries

    def score_snippets(
        self, driver_id: str, items: Sequence[AnnotatedSnippet]
    ):
        """Posterior trigger probabilities for prepared snippets."""
        return self._classifier(driver_id).score(items)

    def snippet_items(
        self, doc_ids: Iterable[str]
    ) -> list[AnnotatedSnippet]:
        """Annotated snippets of the given documents, in order."""
        items: list[AnnotatedSnippet] = []
        for doc_id in doc_ids:
            snippets = self.training.snippets_of_document(doc_id)
            items.extend(self.training.annotate_snippets(snippets))
        return items

    def trigger_events(
        self,
        driver_id: str,
        items: Sequence[AnnotatedSnippet],
        threshold: float,
    ) -> tuple[list[TriggerEvent], Sequence[float]]:
        """Score ``items`` for one driver; rank those at ``threshold`` up.

        The one scoring path behind extraction, alert polls and stream
        batches.  Returns the ranked events and every item's score (the
        drift monitors read the full batch, not just the flagged part).
        """
        scores = self.score_snippets(driver_id, items)
        flagged = [
            (item, score)
            for item, score in zip(items, scores)
            if score >= threshold
        ]
        events = make_trigger_events(
            driver_id,
            [item for item, _ in flagged],
            [score for _, score in flagged],
            normalizer=self.normalizer,
            url_of=self.url_of,
        )
        return rank_events(events), scores

    def extract_trigger_events(
        self,
        threshold: float | None = None,
        since_day: int | None = None,
    ) -> dict[str, list[TriggerEvent]]:
        """Scan the collection and return ranked events per driver.

        ``since_day`` restricts the scan to documents published on or
        after that simulated-calendar day — a freshness window, so old
        pages don't resurface as leads.
        """
        if not self.classifiers:
            raise RuntimeError("train() must run before extraction")
        threshold = TRIGGER_THRESHOLD if threshold is None else threshold
        with self.tracer.span("extract") as extract_span:
            with self.tracer.span("extract.annotate") as annotate_span:
                doc_ids = []
                for doc_id in self.store.doc_ids():
                    if since_day is not None:
                        published = self.store.get(doc_id).metadata.get(
                            "published_day"
                        )
                        if published is not None and published < since_day:
                            continue
                    doc_ids.append(doc_id)
                all_items = self.snippet_items(doc_ids)
                annotate_span.add_items(len(all_items))

            events: dict[str, list[TriggerEvent]] = {}
            for driver in self.drivers:
                driver_id = driver.driver_id
                with self.tracer.span(
                    f"extract.score[{driver_id}]"
                ) as score_span:
                    events[driver_id], scores = self.trigger_events(
                        driver_id, all_items, threshold
                    )
                    score_span.add_items(len(all_items))
                n_flagged = len(events[driver_id])
                self.tracer.count("extract.trigger_events", n_flagged)
                self.tracer.count(
                    f"extract.scored[{driver_id}]", len(all_items)
                )
                self.tracer.count(f"extract.flagged[{driver_id}]", n_flagged)
                if self.tracer.recording:
                    token_lists = None
                    if driver_id in self.drift_monitors:
                        classifier = self._classifier(driver_id)
                        token_lists = [
                            classifier.features_of(item)
                            for item in all_items[:DRIFT_TOKEN_SAMPLE]
                        ]
                    self.record_trigger_events(
                        driver_id, events[driver_id], scores, token_lists
                    )
            extract_span.add_items(len(all_items))
        return events

    # -- component 3: ranking ----------------------------------------------------

    def rank_by_semantic_orientation(
        self, events: Sequence[TriggerEvent]
    ) -> list[TriggerEvent]:
        """Figure 8 ordering for the revenue-growth driver."""
        ranker = SemanticOrientationRanker(revenue_growth_lexicon())
        return ranker.rank(events)

    def company_report(
        self,
        events_by_driver: dict[str, list[TriggerEvent]],
        industry: "IndustryProfile | None" = None,
    ) -> list[CompanyScore]:
        """Equation 2's company-level lead list.

        With an :class:`~repro.core.industry.IndustryProfile`, drivers
        are filtered and weighted per that industry (section 2's
        IT-vs-steel distinction).
        """
        if industry is not None:
            return industry.lead_list(events_by_driver)
        return CompanyRanker(tracer=self.tracer).score_companies(
            events_by_driver
        )

    # -- helpers ------------------------------------------------------------------

    def url_of(self, doc_id: str) -> str:
        """URL of a stored document; empty when unknown.

        The provenance join key threaded through every
        :class:`TriggerEvent` built by this facade.
        """
        if doc_id in self.store:
            return self.store.get(doc_id).url
        return ""

    def _install_drift_monitor(
        self,
        classifier: TriggerEventClassifier,
        training_items,
    ) -> None:
        """Freeze a train-time baseline for the drift monitors."""
        if not training_items:
            return
        baseline = DriftBaseline.from_training(
            driver_id=classifier.driver_id,
            scores=classifier.score(training_items),
            vocabulary=classifier.vectorizer.vocabulary,
            threshold=TRIGGER_THRESHOLD,
        )
        self.drift_monitors[classifier.driver_id] = DriftMonitor(baseline)

    def record_trigger_events(
        self,
        driver_id: str,
        ranked_events: Sequence[TriggerEvent],
        scores: Sequence[float],
        token_lists: Sequence[Sequence[str]] | None = None,
    ) -> None:
        """Flight-record one driver's scored batch.

        Emits ``snippet_scored`` + ``trigger_classified`` (with feature
        evidence) per ranked event, so every later alert has a complete
        provenance chain, and runs the driver's drift monitor over the
        full score batch — plus the vocabulary monitor when
        ``token_lists`` is given.  Call only with the recorder on, so
        the explain/drift cost never touches the default path.
        """
        classifier = self._classifier(driver_id)
        for event in ranked_events:
            self.tracer.emit(
                "snippet_scored",
                lineage_id=event.doc_id,
                snippet_id=event.snippet_id,
                doc_id=event.doc_id,
                driver_id=driver_id,
                score=event.score,
            )
            self.tracer.emit(
                "trigger_classified",
                lineage_id=event.doc_id,
                snippet_id=event.snippet_id,
                doc_id=event.doc_id,
                driver_id=driver_id,
                score=event.score,
                rank=event.rank,
                features=classifier.explain(event.item),
                companies=list(event.companies),
                text=event.text,
                url=event.url,
            )
        monitor = self.drift_monitors.get(driver_id)
        if monitor is None:
            return
        for report in monitor.check(list(scores), token_lists):
            self.tracer.emit(
                "drift_warning",
                monitor=report.monitor,
                value=report.value,
                threshold=report.threshold,
                driver_id=report.driver_id,
                detail=report.detail,
            )

    def _classifier(self, driver_id: str) -> TriggerEventClassifier:
        try:
            return self.classifiers[driver_id]
        except KeyError:
            raise KeyError(
                f"no trained classifier for {driver_id!r}; "
                f"trained: {sorted(self.classifiers)}"
            ) from None

    _gatherer: DataGatherer | None = None
