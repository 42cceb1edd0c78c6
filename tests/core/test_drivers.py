"""Sales-driver and snippet-filter tests."""

from __future__ import annotations

import pytest

from repro.core.drivers import (
    all_of,
    any_of,
    builtin_drivers,
    get_driver,
    has,
    has_at_least,
    has_keyword,
)
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.text.annotator import Annotator
from repro.text.ner import NerConfig


@pytest.fixture(scope="module")
def annotate():
    annotator = Annotator(NerConfig(gazetteer_coverage=1.0))
    return annotator.annotate


class TestCombinators:
    def test_has(self, annotate):
        snippet = annotate("Acme Inc announced results.")
        assert has("ORG")(snippet)
        assert not has("PRSN")(snippet)

    def test_has_at_least_distinct_surfaces(self, annotate):
        one_company_twice = annotate(
            "Acme Inc grew. Acme Inc also hired."
        )
        two_companies = annotate("Acme Inc acquired Globex Corp.")
        assert not has_at_least("ORG", 2)(one_company_twice)
        assert has_at_least("ORG", 2)(two_companies)

    def test_has_keyword_case_insensitive(self, annotate):
        snippet = annotate("They Acquired the firm.")
        assert has_keyword("acquired")(snippet)

    def test_all_of(self, annotate):
        snippet = annotate("Acme Inc named James Smith CEO.")
        check = all_of(has("ORG"), has("PRSN"), has("DESIG"))
        assert check(snippet)
        assert not all_of(has("ORG"), has("CURRENCY"))(snippet)

    def test_any_of(self, annotate):
        snippet = annotate("Revenue grew 12% in the quarter.")
        assert any_of(has("CURRENCY"), has("PRCNT"))(snippet)


class TestBuiltinDrivers:
    def test_three_builtins(self):
        drivers = builtin_drivers()
        assert {d.driver_id for d in drivers} == {
            MERGERS_ACQUISITIONS, CHANGE_IN_MANAGEMENT, REVENUE_GROWTH,
        }

    def test_each_has_five_smart_queries(self):
        # Section 5.1: "Five queries were used for generation of the
        # noisy positive training data for each sales driver."
        for driver in builtin_drivers():
            assert len(driver.smart_queries) == 5

    def test_lookup_by_id(self):
        driver = get_driver(CHANGE_IN_MANAGEMENT)
        assert driver.name == "Change in management"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_driver("steel_production")

    def test_ma_filter_needs_two_orgs(self, annotate):
        driver = get_driver(MERGERS_ACQUISITIONS)
        good = annotate("Acme Inc agreed to acquire Globex Corp.")
        one_org = annotate("Acme Inc agreed to acquire assets.")
        assert driver.snippet_filter(good)
        assert not driver.snippet_filter(one_org)

    def test_cim_filter_needs_designation(self, annotate):
        driver = get_driver(CHANGE_IN_MANAGEMENT)
        good = annotate("Acme Inc named James Smith its new CEO.")
        no_desig = annotate("Acme Inc hired James Smith last week.")
        assert driver.snippet_filter(good)
        assert not driver.snippet_filter(no_desig)

    def test_rg_filter_needs_figure(self, annotate):
        driver = get_driver(REVENUE_GROWTH)
        good = annotate("Acme Inc reported revenue growth of 12%.")
        no_figure = annotate("Acme Inc reported good revenue news.")
        assert driver.snippet_filter(good)
        assert not driver.snippet_filter(no_figure)

    def test_filters_reject_plain_boilerplate(self, annotate):
        boilerplate = annotate(
            "Shares of Acme Inc closed at $12 on Monday."
        )
        for driver in builtin_drivers():
            assert not driver.snippet_filter(boilerplate)
