"""Experiment-runner tests: every table/figure regenerates with the
paper's qualitative shape (run on the small profile for speed)."""

from __future__ import annotations

import pytest

from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.evaluation.experiments import (
    PAPER_TABLE1,
    run_company_ranking,
    run_figure3,
    run_figure4,
    run_figure5_6,
    run_figure7,
    run_figure8,
    run_table1,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        return run_table1(
            dataset=small_dataset,
            drivers=(
                MERGERS_ACQUISITIONS,
                CHANGE_IN_MANAGEMENT,
                REVENUE_GROWTH,
            ),
        )

    def test_paper_reference_values(self):
        assert PAPER_TABLE1[MERGERS_ACQUISITIONS].f1 == 0.773
        assert PAPER_TABLE1[CHANGE_IN_MANAGEMENT].f1 == 0.715

    def test_f1_beats_trivial_baselines(self, result, small_dataset):
        # Predict-all-positive baseline F1 per driver.
        for row in result.rows:
            labels = small_dataset.test_labels[row.driver_id]
            all_pos_precision = labels.mean()
            baseline_f1 = (
                2 * all_pos_precision / (1 + all_pos_precision)
            )
            assert row.f1 > baseline_f1 + 0.2, row.driver_id

    def test_render_includes_paper_column(self, result):
        rendered = result.render()
        assert "Paper F1" in rendered
        assert "0.773" in rendered

    def test_reasonable_precision_and_recall(self, result):
        for row in result.rows:
            assert row.precision >= 0.4, row.driver_id
            assert row.recall >= 0.6, row.driver_id


class TestRigFigures:
    @pytest.fixture(scope="class")
    def fig3(self, small_dataset):
        return run_figure3(dataset=small_dataset)

    @pytest.fixture(scope="class")
    def fig4(self, small_dataset):
        return run_figure4(dataset=small_dataset)

    @pytest.mark.parametrize("category", ["vb", "nn"])
    def test_open_class_pos_prefers_instances(self, fig3, fig4, category):
        # The paper's observation 1: open-class words should NOT be
        # abstracted.  (jj/rb are too sparse for the small profile; the
        # full-scale benches cover them.)
        for figure in (fig3, fig4):
            comparison = figure.comparison(category)
            assert not comparison.prefer_abstraction, (
                figure.driver_id, category,
            )

    @pytest.mark.parametrize("category", ["PRSN", "PLC"])
    def test_entities_prefer_abstraction(self, fig3, fig4, category):
        # The paper's observation 2: entity categories should be
        # abstracted.  ORG needs the full-scale corpus to stabilize
        # (asserted in benchmarks/bench_fig3/4); PRSN and PLC are robust
        # even on the small profile.
        for figure in (fig3, fig4):
            assert figure.comparison(category).prefer_abstraction, (
                figure.driver_id, category,
            )

    def test_rig_values_bounded(self, fig3):
        for comparison in fig3.comparisons:
            assert 0 <= comparison.rig_pa <= 1
            assert 0 <= comparison.rig_iv <= 1

    def test_render_shows_chart_and_table(self, fig3):
        rendered = fig3.render()
        assert "RIG(PA)" in rendered
        assert "log10=" in rendered


class TestFigure56:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        return run_figure5_6(dataset=small_dataset)

    def test_query_yields_both_kinds(self, result):
        # Figure 5: trigger snippets exist; Figure 6: noise coexists.
        assert result.kept_snippets
        assert result.rejected_snippets

    def test_kept_snippets_look_like_triggers(self, result):
        mentions = sum(
            "new" in text.lower() or "ceo" in text.lower()
            for text in result.kept_snippets
        )
        assert mentions / len(result.kept_snippets) >= 0.5

    def test_render(self, result):
        rendered = result.render(limit=2)
        assert "Figure 5" in rendered and "Figure 6" in rendered


class TestRankedOutput:
    def test_figure7_ranked_by_score(self, small_dataset):
        result = run_figure7(dataset=small_dataset)
        assert result.driver_id == CHANGE_IN_MANAGEMENT
        scores = [e.score for e in result.events]
        assert scores == sorted(scores, reverse=True)
        assert result.render(limit=3)

    def test_figure8_ranked_by_orientation(self, small_dataset):
        result = run_figure8(dataset=small_dataset)
        assert result.driver_id == REVENUE_GROWTH
        magnitudes = [abs(e.score) for e in result.events]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestCompanyRanking:
    def test_report_generated(self, small_dataset):
        result = run_company_ranking(dataset=small_dataset)
        assert result.scores
        rendered = result.render(limit=3)
        assert "MRR" in rendered
