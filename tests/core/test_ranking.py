"""Ranking-component tests: score ranking, SO ranking, Equation 2."""

from __future__ import annotations

import pytest

from repro.core.company import CompanyNormalizer
from repro.core.lexicon import OrientationLexicon
from repro.core.ranking import (
    CompanyRanker,
    RecencyAdjustedRanker,
    SemanticOrientationRanker,
    TriggerEvent,
    make_trigger_events,
    rank_events,
)
from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.text.annotator import Annotator
from repro.text.ner import NerConfig

_annotator = Annotator(NerConfig(gazetteer_coverage=1.0))
_n = 0


def item(text):
    global _n
    _n += 1
    return AnnotatedSnippet(
        snippet=Snippet(doc_id=f"r{_n}", index=0, sentences=(text,)),
        annotated=_annotator.annotate(text),
    )


def event(text, score=0.5, driver="d"):
    return make_trigger_events(driver, [item(text)], [score])[0]


class TestMakeTriggerEvents:
    def test_pairs_scores_and_extracts_companies(self):
        events = make_trigger_events(
            "d",
            [item("Acme Inc acquired Globex Corp.")],
            [0.9],
        )
        assert events[0].score == 0.9
        assert set(events[0].companies) == {"acme", "globex"}

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_trigger_events("d", [item("x.")], [0.1, 0.2])


class TestRankEvents:
    def test_descending_scores_get_ascending_ranks(self):
        events = [
            event("Low scoring snippet.", 0.2),
            event("High scoring snippet.", 0.9),
            event("Middle scoring snippet.", 0.5),
        ]
        ranked = rank_events(events)
        assert [e.rank for e in ranked] == [1, 2, 3]
        assert ranked[0].score == 0.9

    def test_deterministic_tiebreak(self):
        events = [event("Tie one.", 0.5), event("Tie two.", 0.5)]
        assert [e.snippet_id for e in rank_events(events)] == [
            e.snippet_id for e in rank_events(events)
        ]

    def test_empty(self):
        assert rank_events([]) == []


class TestSemanticOrientationRanker:
    def test_ranks_by_orientation_magnitude(self):
        lexicon = OrientationLexicon(
            {"record profits": 2.0, "profit": 1.0, "severe losses": -2.0}
        )
        ranker = SemanticOrientationRanker(lexicon)
        events = [
            event("The firm made a profit."),
            event("The firm posted record profits."),
            event("The firm suffered severe losses."),
        ]
        ranked = ranker.rank(events)
        assert abs(ranked[0].score) == 2.0
        assert abs(ranked[-1].score) == 1.0

    def test_negative_orientation_preserved_in_sign(self):
        lexicon = OrientationLexicon({"severe losses": -2.0})
        ranker = SemanticOrientationRanker(lexicon)
        ranked = ranker.rank([event("They saw severe losses.")])
        assert ranked[0].score == -2.0


def event_with_default_score(text, score=0.9):
    return event(text, score)


class TestRecencyAdjustedRanker:
    def test_old_event_demoted(self):
        current = event(
            "Acme Inc announced a new CEO today.", 0.9
        )
        historical = event(
            "Mr. Smith was the CEO of Acme Inc from 1980-1985.", 0.9
        )
        ranked = RecencyAdjustedRanker(reference_year=2005).rank(
            [historical, current]
        )
        assert ranked[0].snippet_id == current.snippet_id
        assert ranked[1].score < 0.9


def _ranked(events):
    return rank_events(events)


class TestCompanyRanker:
    def test_equation_2_hand_computed(self):
        # Company "acme" has events at ranks 1 and 3 in one driver:
        # MRR = (1/1 + 1/3) / 2.
        e1 = event("Acme Inc acquired Globex Corp.", 0.9, "ma")
        e2 = event("Hooli Systems acquired Initech Ltd.", 0.8, "ma")
        e3 = event("Acme Inc acquired Nimbus Labs.", 0.7, "ma")
        ranked = rank_events([e1, e2, e3])
        scores = CompanyRanker().score_companies({"ma": ranked})
        acme = next(s for s in scores if s.company == "acme")
        assert acme.mrr == pytest.approx((1 + 1 / 3) / 2)
        assert acme.n_trigger_events == 2

    def test_aggregates_across_drivers(self):
        ma = rank_events([event("Acme Inc acquired Globex Corp.",
                                0.9, "ma")])
        rg = rank_events([event("Acme Inc reported revenue of $5 "
                                "billion.", 0.8, "rg")])
        scores = CompanyRanker().score_companies({"ma": ma, "rg": rg})
        acme = next(s for s in scores if s.company == "acme")
        assert acme.n_trigger_events == 2
        assert acme.mrr == pytest.approx(1.0)  # rank 1 in both drivers

    def test_unranked_events_rejected(self):
        unranked = event("Acme Inc acquired Globex Corp.", 0.9)
        with pytest.raises(ValueError):
            CompanyRanker().score_companies({"ma": [unranked]})

    def test_sorted_by_mrr(self):
        events = rank_events([
            event("Acme Inc acquired Globex Corp.", 0.9, "ma"),
            event("Hooli Systems acquired Initech Ltd.", 0.5, "ma"),
        ])
        scores = CompanyRanker().score_companies({"ma": events})
        mrrs = [s.mrr for s in scores]
        assert mrrs == sorted(mrrs, reverse=True)

    def test_custom_normalizer_merges_aliases(self):
        normalizer = CompanyNormalizer()
        events = make_trigger_events(
            "ma",
            [item("Acme Inc acquired Globex Corp."),
             item("Acme Incorporated reported results.")],
            [0.9, 0.8],
            normalizer=normalizer,
        )
        ranked = rank_events(events)
        scores = CompanyRanker().score_companies({"ma": ranked})
        acme = next(s for s in scores if s.company == "acme")
        assert acme.n_trigger_events == 2


class TestProvenanceJoinKeys:
    """Satellite pin: events carry stable doc_id + URL join keys."""

    def test_doc_id_is_the_snippet_document(self):
        snippet_item = item("Acme Inc acquired Globex Corp.")
        events = make_trigger_events("ma", [snippet_item], [0.9])
        assert events[0].doc_id == snippet_item.snippet.doc_id
        assert events[0].snippet_id.startswith(events[0].doc_id + "#")

    def test_url_of_resolver_populates_url(self):
        snippet_item = item("Acme Inc acquired Globex Corp.")
        doc_id = snippet_item.snippet.doc_id
        events = make_trigger_events(
            "ma",
            [snippet_item],
            [0.9],
            url_of=lambda d: f"http://corpus/{d}.html",
        )
        assert events[0].url == f"http://corpus/{doc_id}.html"

    def test_url_empty_without_resolver(self):
        assert event("Acme Inc acquired Globex Corp.").url == ""

    def test_rank_and_rescore_preserve_join_keys(self):
        events = rank_events(make_trigger_events(
            "ma",
            [item("Acme Inc acquired Globex Corp.")],
            [0.9],
            url_of=lambda d: f"http://corpus/{d}.html",
        ))
        assert events[0].url.startswith("http://corpus/")
        assert events[0].doc_id  # survives dataclasses.replace
