"""Portal answers on the analyst mix equal the dense reference scorer.

Analysts pair each driver's smart queries (quoted phrases) and a few
loose keywords with company names, so on a cold portal every query
string is new while its phrases and company-name terms repeat.  The
engine evaluates each phrase clause, and each loose term's BM25
contributions, once per index generation; a second pass with other
company names therefore runs on memoized clauses, and one with the same
names in another order on memoized term entries too.  Every pass, and
one query through each shard view, must equal
:func:`tests.search.helpers.dense_reference` on the snapshot's index,
which never reads the memo.
"""

from __future__ import annotations

import pytest

from repro.core.drivers import builtin_drivers
from repro.core.etap import Etap
from repro.corpus.generator import CorpusConfig
from repro.corpus.vocab import build_org_names
from repro.corpus.web import build_web
from repro.search.engine import parse_query
from repro.search.index import InvertedIndex
from repro.serve import AdmissionController, AlertPortal
from tests.search.helpers import dense_reference
from tests.serve.test_portal_parity import count_calls

LOOSE_KEYWORDS = [
    "acquisition",
    "revenue growth",
    "new ceo appointment",
    "quarterly earnings",
    "merger agreement",
]


def analyst_mix() -> list[str]:
    """Every built-in smart query, then the loose keywords: 20 templates."""
    smart = [
        query for driver in builtin_drivers() for query in driver.smart_queries
    ]
    return smart + LOOSE_KEYWORDS


@pytest.fixture(scope="module")
def portal():
    etap = Etap.from_web(build_web(400, CorpusConfig(seed=3)))
    etap.gather()
    with AlertPortal.from_etap(
        etap,
        n_shards=4,
        admission=AdmissionController(rate=1e9, burst=1e9),
    ) as portal:
        yield portal


def answers(results) -> list[tuple[str, float]]:
    return [(hit.doc_key, hit.score) for hit in results]


def send(portal, queries: list[str]) -> list:
    """Query the portal; every answer is computed, none cached."""
    responses = [portal.query("analyst", query, top_k=10) for query in queries]
    for response in responses:
        assert response.status == "ok"
        assert not response.cached
    return responses


def assert_match_reference(portal, queries, responses) -> None:
    engine = portal.shards.snapshot.engine
    for query, response in zip(queries, responses):
        assert answers(response.results) == dense_reference(
            engine, query, 10, None
        )


def test_analyst_mix_equals_reference_cold_and_warm(portal, monkeypatch):
    templates = analyst_mix()
    assert len(templates) == 20
    orgs = build_org_names(10)
    index = portal.shards.snapshot.engine.index
    phrase_sets = {parse_query(query).phrases for query in templates} - {()}
    cold = [f"{t} {org}" for org in orgs[:5] for t in templates]
    assert_match_reference(portal, cold, send(portal, cold))
    # Plus one entry per loose term of a query with phrases.
    loose = {
        term
        for query in cold
        if parse_query(query).phrases
        for term in parse_query(query).terms
    }
    assert set(index.phrase_memo) == phrase_sets | loose
    # Other company names: new query strings, so the cache misses, but
    # every phrase clause is already memoized.
    warm = [f"{t} {org}" for org in orgs[5:] for t in templates]
    matched = count_calls(monkeypatch, InvertedIndex, "phrase_matches")
    responses = send(portal, warm)
    assert matched == []
    monkeypatch.undo()
    assert_match_reference(portal, warm, responses)


def test_each_shard_view_equals_reference_cut_to_its_mask(portal):
    snapshot = portal.shards.snapshot
    org = build_org_names(1)[0]
    for shard, view in enumerate(snapshot.shards):
        query = f"{analyst_mix()[shard]} {org}"
        assert answers(view.search(query, top_k=10)) == dense_reference(
            snapshot.engine, query, 10, view.ordinals
        )


def test_company_names_read_warm_term_entries(portal, monkeypatch):
    # serve-cold's phrase queries: a smart query and a company name.
    # The second pass puts the name first: new query strings (the cache
    # misses) with the same phrases and loose terms, so it reads every
    # clause and term entry from the memo.
    smart = [query for query in analyst_mix() if parse_query(query).phrases]
    assert len(smart) == 15
    orgs = build_org_names(20)[10:]
    first = [f"{t} {org}" for org in orgs for t in smart]
    assert_match_reference(portal, first, send(portal, first))
    second = [f"{org} {t}" for org in orgs for t in smart]
    looked_up = count_calls(monkeypatch, InvertedIndex, "doc_postings")
    responses = send(portal, second)
    assert looked_up == []
    monkeypatch.undo()
    assert_match_reference(portal, second, responses)
    snapshot = portal.shards.snapshot
    for shard, view in enumerate(snapshot.shards):
        query = second[shard]
        assert answers(view.search(query, top_k=10)) == dense_reference(
            snapshot.engine, query, 10, view.ordinals
        )
