"""Experiment harness reproducing the Section 5 evaluation."""

from .experiments import (
    EXPERIMENTS,
    FIGURES,
    DatasetSpec,
    ExperimentResult,
    SweepTask,
    cost_model_validation,
    paper_datasets,
    paper_specs,
    run_figure,
    run_sweep_task,
    run_tasks,
    storage_overheads,
    table2_datasets,
    table3_schemes,
)
from .checkpoint import SweepCheckpoint
from .reporting import format_table, pivot_by_scheme, reduction_rate, save_csv
from .runner import (
    BenchContext,
    experiment_query_count,
    experiment_scale,
    run_knwc_setting,
    run_nwc_setting,
    window_scale_factor,
)

__all__ = [
    "BenchContext",
    "DatasetSpec",
    "EXPERIMENTS",
    "ExperimentResult",
    "FIGURES",
    "SweepCheckpoint",
    "SweepTask",
    "cost_model_validation",
    "experiment_query_count",
    "experiment_scale",
    "format_table",
    "paper_datasets",
    "paper_specs",
    "pivot_by_scheme",
    "reduction_rate",
    "run_figure",
    "run_sweep_task",
    "run_tasks",
    "run_knwc_setting",
    "run_nwc_setting",
    "save_csv",
    "storage_overheads",
    "table2_datasets",
    "table3_schemes",
    "window_scale_factor",
]
