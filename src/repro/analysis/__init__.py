"""Experiment reproduction, validation metrics and sweeps."""

from .experiments import (
    REPORTED_NODE,
    ExperimentResult,
    ExperimentRow,
    Figure4Result,
    TABLE_REPRODUCERS,
    reproduce_figure4,
    reproduce_table1,
    reproduce_table2,
    reproduce_table3,
    reproduce_table4,
)
from .closed_form import AnalyticEnergy, explain as explain_analytic, \
    predict as predict_analytic
from .summary import full_report
from .golden import GOLDENS, check_goldens, compute_goldens
from .sensitivity import PARAMETERS as SENSITIVITY_PARAMETERS, \
    SensitivityEntry, render_tornado, tornado
from .figures import figure4_csv, figure4_series, render_figure4, \
    table_series
from .sweep import (
    SweepPoint,
    as_table,
    sweep_cycle_ms,
    sweep_custom,
    sweep_heart_rate,
    sweep_num_nodes,
    sweep_scenarios,
)
from .validation import (
    OverallValidation,
    TableValidation,
    validate_all,
    validate_table,
)

__all__ = [
    "REPORTED_NODE",
    "ExperimentResult",
    "ExperimentRow",
    "Figure4Result",
    "TABLE_REPRODUCERS",
    "reproduce_figure4",
    "reproduce_table1",
    "reproduce_table2",
    "reproduce_table3",
    "reproduce_table4",
    "AnalyticEnergy",
    "full_report",
    "explain_analytic",
    "predict_analytic",
    "GOLDENS",
    "check_goldens",
    "compute_goldens",
    "SENSITIVITY_PARAMETERS",
    "SensitivityEntry",
    "render_tornado",
    "tornado",
    "figure4_csv",
    "figure4_series",
    "render_figure4",
    "table_series",
    "SweepPoint",
    "as_table",
    "sweep_cycle_ms",
    "sweep_custom",
    "sweep_heart_rate",
    "sweep_num_nodes",
    "sweep_scenarios",
    "OverallValidation",
    "TableValidation",
    "validate_all",
    "validate_table",
]
