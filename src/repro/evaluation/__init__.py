"""Evaluation harness: datasets, experiment runners, reporting."""

from repro.evaluation.curves import (
    CurvePoint,
    best_operating_point,
    precision_recall_curve,
    render_curve,
)
from repro.evaluation.datasets import (
    DatasetSpec,
    EvaluationDataset,
    build_evaluation_dataset,
)
from repro.evaluation.experiments import (
    PAPER_TABLE1,
    CompanyRankingResult,
    Figure56Result,
    RankedOutputResult,
    RigFigureResult,
    Table1Result,
    run_company_ranking,
    run_figure3,
    run_figure4,
    run_figure5_6,
    run_figure7,
    run_figure8,
    run_rig_figure,
    run_table1,
)
from repro.evaluation.error_analysis import (
    ErrorReport,
    analyze_errors,
    classify_false_positive,
)
from repro.evaluation.report import generate_report, write_report
from repro.evaluation.reporting import ascii_table, format_float, log_bar_chart

__all__ = [
    "CompanyRankingResult",
    "CurvePoint",
    "ErrorReport",
    "analyze_errors",
    "classify_false_positive",
    "best_operating_point",
    "precision_recall_curve",
    "render_curve",
    "DatasetSpec",
    "EvaluationDataset",
    "Figure56Result",
    "PAPER_TABLE1",
    "RankedOutputResult",
    "RigFigureResult",
    "Table1Result",
    "ascii_table",
    "build_evaluation_dataset",
    "format_float",
    "generate_report",
    "log_bar_chart",
    "write_report",
    "run_company_ranking",
    "run_figure3",
    "run_figure4",
    "run_figure5_6",
    "run_figure7",
    "run_figure8",
    "run_rig_figure",
    "run_table1",
]
