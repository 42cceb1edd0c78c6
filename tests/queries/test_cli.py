"""CLI e2e: `repro queries plan` and `repro recipe run/validate`."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

RECIPES_DIR = Path(__file__).resolve().parents[2] / "configs" / "recipes"


class TestQueriesPlan:
    def test_plan_single_driver(self, capsys):
        code = main([
            "queries", "plan", "--docs", "200", "--seed", "5",
            "--driver", "layoffs", "--budget", "80", "--top-k", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gathered" in out
        assert "layoffs" in out
        assert "planned:" in out
        assert "seeds:" in out
        assert "P@B" in out

    def test_unknown_driver_exits_2_with_clean_message(self, capsys):
        code = main([
            "queries", "plan", "--docs", "100",
            "--driver", "steel_output",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "steel_output" in err
        assert "available" in err
        assert "Traceback" not in err


class TestRecipeValidate:
    @pytest.mark.parametrize(
        "path",
        sorted(RECIPES_DIR.glob("*.yaml")),
        ids=lambda p: p.stem,
    )
    def test_committed_recipes_are_valid(self, path, capsys):
        code = main(["recipe", "validate", str(path)])
        assert code == 0
        assert "is valid" in capsys.readouterr().out

    def test_schema_errors_surface_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: broken\ndrivers:\n  - steel_output\ntypo: 1\n"
        )
        code = main(["recipe", "validate", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid recipe" in err
        assert "unknown driver 'steel_output'" in err
        assert "unknown field 'typo'" in err
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main([
            "recipe", "validate", str(tmp_path / "absent.yaml"),
        ])
        assert code == 2
        assert "cannot read file" in capsys.readouterr().err


class TestRecipeRun:
    def test_run_with_docs_override(self, tmp_path, capsys):
        recipe = tmp_path / "tiny.yaml"
        recipe.write_text(
            "name: tiny-cli\n"
            "drivers:\n"
            "  - layoffs\n"
            "n_docs: 600\n"
            "seed: 13\n"
            "negative_sample_size: 200\n"
            "planner:\n"
            "  budget: 80\n"
            "  top_k: 20\n"
            "  max_candidates: 40\n"
            "alerts:\n"
            "  cycles: 1\n"
            "  docs_per_cycle: 15\n"
        )
        code = main([
            "recipe", "run", str(recipe), "--docs", "160",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recipe 'tiny-cli'" in out
        assert "planned portfolios" in out
        assert "layoffs" in out
        assert "alerts minted" in out

    def test_invalid_recipe_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        code = main(["recipe", "run", str(bad)])
        assert code == 2
        assert "invalid YAML" in capsys.readouterr().err
