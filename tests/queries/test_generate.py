"""Candidate generation: determinism, dedup, seeds-first, capping."""

from __future__ import annotations

import pytest

from repro.core.drivers import available_driver_ids, get_driver
from repro.obs.tracer import Tracer
from repro.queries.generate import (
    SOURCE_SEED,
    SOURCE_TEMPLATE,
    CandidateGenerator,
    DriverQueryLexicon,
    QueryCandidate,
    _expand_template,
    default_lexicons,
    entity_slot_companies,
)


class TestDefaultLexicons:
    def test_every_available_driver_has_a_lexicon(self):
        lexicons = default_lexicons()
        assert set(lexicons) == set(available_driver_ids())

    def test_company_slot_override(self):
        lexicons = default_lexicons(companies=("Acme Corp",))
        ma = lexicons["mergers_acquisitions"]
        assert ma.slots["company"] == ("Acme Corp",)

    def test_entity_slot_companies_are_canonical_and_bounded(self):
        companies = entity_slot_companies(n=4)
        assert len(companies) == 4
        assert all(isinstance(name, str) and name for name in companies)
        # Deterministic: same inventory head every call.
        assert companies == entity_slot_companies(n=4)


class TestExpandTemplate:
    def test_no_slots_yields_template_verbatim(self):
        assert list(_expand_template("plain query", {})) == ["plain query"]

    def test_cartesian_expansion_in_inventory_order(self):
        out = list(_expand_template(
            "{a} {b}", {"a": ("x", "y"), "b": ("1", "2")}
        ))
        assert out == ["x 1", "x 2", "y 1", "y 2"]

    def test_unknown_slot_raises_with_known_slots_listed(self):
        with pytest.raises(KeyError, match="unknown slot 'missing'"):
            list(_expand_template("{missing}", {"present": ("v",)}))


class TestCandidateGenerator:
    def test_deterministic_across_calls_and_instances(self):
        driver = get_driver("funding_rounds")
        first = CandidateGenerator().generate(driver)
        second = CandidateGenerator().generate(driver)
        assert first == second

    def test_seeds_come_first_in_written_order(self):
        driver = get_driver("layoffs")
        candidates = CandidateGenerator().generate(driver)
        n_seeds = len(driver.smart_queries)
        head = candidates[:n_seeds]
        assert [c.query for c in head] == list(driver.smart_queries)
        assert all(c.source == SOURCE_SEED for c in head)
        assert all(
            c.source == SOURCE_TEMPLATE for c in candidates[n_seeds:]
        )

    def test_template_reproducing_a_seed_is_folded_into_it(self):
        driver = get_driver("layoffs")
        lexicon = DriverQueryLexicon(
            driver_id="layoffs",
            templates=('"{noun}"',),
            # '"job cuts"' is also a hand-written seed query.
            slots={"noun": ("job cuts", "severance package")},
        )
        candidates = CandidateGenerator(
            lexicons={"layoffs": lexicon}
        ).generate(driver)
        queries = [c.query for c in candidates]
        assert queries.count('"job cuts"') == 1
        by_query = {c.query: c for c in candidates}
        assert by_query['"job cuts"'].source == SOURCE_SEED
        assert by_query['"severance package"'].source == SOURCE_TEMPLATE

    def test_max_candidates_caps_templates_but_never_drops_seeds(self):
        driver = get_driver("mergers_acquisitions")
        n_seeds = len(driver.smart_queries)
        generator = CandidateGenerator(max_candidates=n_seeds - 1)
        candidates = generator.generate(driver)
        assert [c.query for c in candidates] == list(driver.smart_queries)

        capped = CandidateGenerator(max_candidates=n_seeds + 3)
        assert len(capped.generate(driver)) == n_seeds + 3

    def test_driver_without_lexicon_yields_only_seeds(self):
        driver = get_driver("revenue_growth")
        candidates = CandidateGenerator(lexicons={}).generate(driver)
        assert [c.query for c in candidates] == list(driver.smart_queries)

    def test_generation_counter_recorded(self):
        tracer = Tracer()
        driver = get_driver("funding_rounds")
        candidates = CandidateGenerator(tracer=tracer).generate(driver)
        assert tracer.registry.counters[
            "queries.candidates_generated"
        ] == len(candidates)

    def test_candidates_are_hashable_records(self):
        candidate = QueryCandidate("layoffs", '"job cuts"')
        assert candidate in {candidate}
