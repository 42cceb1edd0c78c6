"""Recipe schema validation, loading, and end-to-end execution."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusConfig
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.queries.recipes import (
    Recipe,
    RecipeError,
    load_recipe,
    recipe_from_data,
    run_recipe,
    validate_recipe_data,
)

RECIPES_DIR = Path(__file__).resolve().parents[2] / "configs" / "recipes"

MINIMAL = {"name": "t", "drivers": ["layoffs"]}


class TestValidation:
    def test_minimal_recipe_is_valid(self):
        assert validate_recipe_data(MINIMAL) == []

    def test_non_mapping_rejected(self):
        assert validate_recipe_data(["not", "a", "mapping"]) == [
            "recipe must be a mapping of fields"
        ]

    def test_unknown_top_level_field(self):
        problems = validate_recipe_data({**MINIMAL, "budgett": 3})
        assert "unknown field 'budgett'" in problems

    def test_name_required(self):
        problems = validate_recipe_data({"drivers": ["layoffs"]})
        assert any("name is required" in p for p in problems)

    def test_drivers_required_and_known(self):
        assert any(
            "drivers is required" in p
            for p in validate_recipe_data({"name": "t"})
        )
        problems = validate_recipe_data(
            {"name": "t", "drivers": ["steel_output"]}
        )
        assert any(
            "unknown driver 'steel_output'" in p for p in problems
        )

    def test_integer_fields_checked(self):
        problems = validate_recipe_data(
            {**MINIMAL, "n_docs": "many", "top_k_per_query": 0}
        )
        assert "n_docs must be an integer" in problems
        assert "top_k_per_query must be >= 1" in problems

    def test_unknown_fault_profile(self):
        problems = validate_recipe_data(
            {**MINIMAL, "fault_profile": "volcanic"}
        )
        assert any(
            "unknown fault_profile 'volcanic'" in p for p in problems
        )

    def test_mix_doc_types_and_weights_checked(self):
        problems = validate_recipe_data({
            **MINIMAL,
            "mix": {"press_release": -1, "tabloid": 0.5},
        })
        assert any("unknown doc type 'tabloid'" in p for p in problems)
        assert any(
            "weight for 'press_release' must be > 0" in p
            for p in problems
        )

    def test_planner_fields_checked(self):
        problems = validate_recipe_data({
            **MINIMAL,
            "planner": {"enabled": "yes", "budget": 0, "knob": 1},
        })
        assert "planner.enabled must be a boolean" in problems
        assert "planner.budget must be >= 1" in problems
        assert "unknown planner field 'knob'" in problems

    def test_alerts_fields_checked(self):
        problems = validate_recipe_data({
            **MINIMAL,
            "alerts": {"threshold": 1.5, "cycles": -1, "pager": True},
        })
        assert any("threshold" in p for p in problems)
        assert "alerts.cycles must be >= 0" in problems
        assert "unknown alerts field 'pager'" in problems

    def test_all_problems_reported_at_once(self):
        problems = validate_recipe_data({
            "drivers": [],
            "fault_profile": "volcanic",
            "typo": 1,
        })
        assert len(problems) >= 3


class TestRecipeFromData:
    def test_invalid_data_raises_with_every_problem_listed(self):
        with pytest.raises(RecipeError) as excinfo:
            recipe_from_data(
                {"drivers": ["steel_output"], "typo": 1},
                source="inline",
            )
        message = str(excinfo.value)
        assert "invalid recipe inline" in message
        assert "unknown field 'typo'" in message
        assert "unknown driver 'steel_output'" in message

    def test_defaults_applied(self):
        recipe = recipe_from_data(MINIMAL)
        assert recipe.n_docs == 600
        assert recipe.planner.enabled is True
        assert recipe.planner.budget == 200
        assert recipe.alerts.cycles == 1


class TestCorpusMix:
    def test_extended_driver_doc_types_are_added(self):
        recipe = recipe_from_data(
            {"name": "t", "drivers": ["funding_rounds", "layoffs"]}
        )
        mix = recipe.corpus_mix()
        assert mix["funding_news"] == pytest.approx(0.07)
        assert mix["layoff_news"] == pytest.approx(0.07)

    def test_builtin_drivers_keep_the_paper_mix(self):
        recipe = recipe_from_data(
            {"name": "t", "drivers": ["mergers_acquisitions"]}
        )
        assert recipe.corpus_mix() == CorpusConfig().mix

    def test_explicit_mix_wins(self):
        recipe = recipe_from_data({
            **MINIMAL, "mix": {"layoff_news": 1.0},
        })
        assert recipe.corpus_mix() == {"layoff_news": 1.0}


class TestLoadRecipe:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "r.yaml"
        path.write_text(
            "name: tiny\ndrivers:\n  - layoffs\nn_docs: 120\n"
        )
        recipe = load_recipe(path)
        assert recipe.name == "tiny"
        assert recipe.drivers == ("layoffs",)
        assert recipe.n_docs == 120

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_recipe(path).name == "t"

    def test_missing_file_is_a_recipe_error(self, tmp_path):
        with pytest.raises(RecipeError, match="cannot read file"):
            load_recipe(tmp_path / "absent.yaml")

    def test_unparseable_yaml_is_a_recipe_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: [unclosed\n")
        with pytest.raises(RecipeError, match="invalid YAML"):
            load_recipe(path)


class TestCommittedRecipes:
    """Tier-1 guard: the example recipes under configs/ stay valid."""

    def test_examples_exist(self):
        assert len(list(RECIPES_DIR.glob("*.yaml"))) >= 3

    @pytest.mark.parametrize(
        "path",
        sorted(RECIPES_DIR.glob("*.yaml")),
        ids=lambda p: p.stem,
    )
    def test_committed_recipe_validates_and_loads(self, path):
        recipe = load_recipe(path)
        assert isinstance(recipe, Recipe)
        assert recipe.drivers


class TestPlannerDisabledBitIdentity:
    """With the planner off, a recipe is the paper's pipeline exactly."""

    def test_matches_the_default_pipeline(self):
        from repro.core.etap import Etap, EtapConfig
        from repro.corpus.web import build_web

        recipe = recipe_from_data({
            "name": "control",
            "drivers": [
                "mergers_acquisitions",
                "change_in_management",
                "revenue_growth",
            ],
            "n_docs": 180,
            "seed": 7,
            "top_k_per_query": 30,
            "negative_sample_size": 200,
            "planner": {"enabled": False},
            "alerts": {"cycles": 0},
        })
        result = run_recipe(recipe)
        assert result.plans == {}

        web = build_web(180, CorpusConfig(seed=7))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=30, negative_sample_size=200
            ),
        )
        etap.gather()
        etap.train()
        events = etap.extract_trigger_events()
        assert result.events_per_driver == {
            driver_id: len(items)
            for driver_id, items in events.items()
        }


class TestRunRecipe:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        recipe = recipe_from_data({
            "name": "tiny-layoffs",
            "drivers": ["layoffs"],
            "n_docs": 160,
            "seed": 13,
            "negative_sample_size": 200,
            "planner": {"budget": 80, "top_k": 20,
                        "max_candidates": 40},
            "alerts": {"cycles": 1, "docs_per_cycle": 15},
        })
        log = EventLog()
        tracer = Tracer(recorder=log)
        result = run_recipe(recipe, tracer=tracer)
        return result, tracer, log

    def test_end_to_end_shape(self, tiny_result):
        result, _, _ = tiny_result
        assert result.documents_stored > 0
        assert set(result.plans) == {"layoffs"}
        plan = result.plans["layoffs"]
        assert plan.planned.total_cost <= 80
        assert plan.n_candidates > len(plan.baseline.selected)
        assert result.cycles_run == 1

    def test_observability_flows_through(self, tiny_result):
        _, tracer, log = tiny_result
        counters = tracer.registry.counters
        assert counters["queries.candidates_evaluated"] > 0
        assert counters["queries.portfolios_selected"] == 1
        assert log.events("query_candidate_evaluated")
        assert len(log.events("portfolio_selected")) == 1

    def test_render_mentions_plans_and_alerts(self, tiny_result):
        result, _, _ = tiny_result
        text = result.render()
        assert "recipe 'tiny-layoffs'" in text
        assert "planned portfolios" in text
        assert "alerts minted" in text

    def test_n_docs_override(self):
        recipe = recipe_from_data({
            "name": "override",
            "drivers": ["layoffs"],
            "n_docs": 5000,
            "planner": {"enabled": False},
            "alerts": {"cycles": 0},
        })
        result = run_recipe(recipe, n_docs=120)
        assert result.documents_stored <= 120
        assert result.plans == {}
        assert result.alerts == []
