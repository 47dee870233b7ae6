"""The paper's published results (Tables 1-4 and Figure 4), verbatim.

These are the reproduction's reference data: the *Real* columns are the
authors' hardware measurements (our "testbed" substitute), the *Sim*
columns are their TOSSIM-based estimates.  Our benchmarks regenerate
the Sim side and report both comparisons.

All energies are millijoules over a 60 s window for the ECG node of a
5-node BAN (Section 5); the constant-power 25-channel ASIC is excluded,
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TableRow:
    """One row of a validation table.

    ``parameter`` is the row's swept value: the per-channel sampling
    frequency [Hz] for Table 1, the node count for Tables 2 and 4, and
    the TDMA cycle [ms] for Table 3.
    """

    parameter: float
    cycle_ms: float
    radio_real_mj: float
    radio_sim_mj: float
    mcu_real_mj: float
    mcu_sim_mj: float

    @property
    def radio_error(self) -> float:
        """Paper's |real - sim| / real for the radio."""
        return abs(self.radio_real_mj - self.radio_sim_mj) \
            / self.radio_real_mj

    @property
    def mcu_error(self) -> float:
        """Paper's |real - sim| / real for the MCU."""
        return abs(self.mcu_real_mj - self.mcu_sim_mj) / self.mcu_real_mj


@dataclass(frozen=True)
class PaperTable:
    """One published validation table."""

    table_id: str
    caption: str
    parameter_name: str
    rows: Tuple[TableRow, ...]
    #: Average errors as printed in the paper (radio, MCU), fractions.
    printed_avg_error: Tuple[float, float]

    def mean_radio_error(self) -> float:
        """Average radio error recomputed from the rows."""
        return sum(r.radio_error for r in self.rows) / len(self.rows)

    def mean_mcu_error(self) -> float:
        """Average MCU error recomputed from the rows."""
        return sum(r.mcu_error for r in self.rows) / len(self.rows)


#: Table 1 — ECG streaming application, static TDMA (sampling sweep).
TABLE_1 = PaperTable(
    table_id="table1",
    caption="Simulator estimations for ECG streaming application "
            "and static TDMA",
    parameter_name="F (Hz)",
    rows=(
        TableRow(205.0, 30.0, 540.6, 502.9, 170.2, 161.2),
        TableRow(105.0, 60.0, 267.7, 252.9, 131.6, 135.9),
        TableRow(70.0, 90.0, 177.2, 167.9, 119.4, 127.6),
        TableRow(55.0, 120.0, 132.2, 126.2, 113.7, 123.5),
    ),
    printed_avg_error=(0.056, 0.060),
)

#: Table 2 — ECG streaming application, dynamic TDMA (node-count sweep).
TABLE_2 = PaperTable(
    table_id="table2",
    caption="Simulator estimations for ECG streaming application "
            "and dynamic TDMA",
    parameter_name="# nodes",
    rows=(
        TableRow(1, 20.0, 628.5, 665.6, 165.9, 178.1),
        TableRow(2, 30.0, 451.4, 496.5, 140.2, 147.6),
        TableRow(3, 40.0, 356.9, 354.8, 137.4, 142.6),
        TableRow(4, 50.0, 298.4, 281.8, 130.4, 132.3),
        TableRow(5, 60.0, 263.9, 249.5, 122.9, 129.9),
    ),
    printed_avg_error=(0.055, 0.047),
)

#: Table 3 — Rpeak application, static TDMA (cycle sweep, 200 Hz fixed).
TABLE_3 = PaperTable(
    table_id="table3",
    caption="Simulator estimations for Rpeak application and static TDMA",
    parameter_name="Cycle (ms)",
    rows=(
        TableRow(30.0, 30.0, 446.3, 455.4, 153.3, 145.41),
        TableRow(60.0, 60.0, 228.5, 229.6, 139.8, 137.0),
        TableRow(90.0, 90.0, 159.0, 154.4, 135.5, 134.3),
        TableRow(120.0, 120.0, 113.1, 116.7, 133.1, 132.8),
    ),
    printed_avg_error=(0.022, 0.021),
)

#: Table 4 — Rpeak application, dynamic TDMA (node-count sweep).
TABLE_4 = PaperTable(
    table_id="table4",
    caption="Simulator estimations for Rpeak application and dynamic TDMA",
    parameter_name="# nodes",
    rows=(
        TableRow(1, 20.0, 507.1, 494.9, 150.7, 153.0),
        TableRow(2, 30.0, 405.6, 373.1, 144.3, 141.3),
        TableRow(3, 40.0, 305.5, 299.9, 141.0, 137.2),
        TableRow(4, 50.0, 255.7, 246.0, 138.6, 135.9),
        TableRow(5, 60.0, 222.1, 210.5, 136.3, 134.5),
    ),
    printed_avg_error=(0.043, 0.033),
)

#: All four validation tables.
ALL_TABLES = (TABLE_1, TABLE_2, TABLE_3, TABLE_4)


@dataclass(frozen=True)
class Figure4Bar:
    """One bar group of Figure 4 (radio + MCU stacked energies)."""

    label: str
    source: str  # "real" or "sim"
    radio_mj: float
    mcu_mj: float

    @property
    def total_mj(self) -> float:
        """Stacked total (what the figure's bar height shows)."""
        return self.radio_mj + self.mcu_mj


#: Figure 4 — ECG streaming (30 ms cycle) vs Rpeak (120 ms cycle).
FIGURE_4 = (
    Figure4Bar("ECG streaming", "real", 540.6, 170.2),
    Figure4Bar("ECG streaming", "sim", 502.9, 161.2),
    Figure4Bar("Rpeak", "real", 113.1, 133.1),
    Figure4Bar("Rpeak", "sim", 116.7, 132.8),
)

#: The paper's headline Figure-4 numbers: streaming total, Rpeak total,
#: and the resulting saving ("the total energy can be reduced to 246.2
#: mJ, with a energy save of 65%").
FIGURE_4_STREAMING_TOTAL_MJ = 710.8
#: Figure 4's Rpeak total ("can be reduced to 246.2 mJ").
FIGURE_4_RPEAK_TOTAL_MJ = 246.2
#: Figure 4's saving of Rpeak over streaming ("energy save of 65%").
FIGURE_4_SAVING_FRACTION = 0.65  # unit: ratio

#: Overall average estimation error the abstract/conclusion report.
PAPER_OVERALL_ERROR = 0.04  # unit: ratio


__all__ = [
    "TableRow",
    "PaperTable",
    "TABLE_1",
    "TABLE_2",
    "TABLE_3",
    "TABLE_4",
    "ALL_TABLES",
    "Figure4Bar",
    "FIGURE_4",
    "FIGURE_4_STREAMING_TOTAL_MJ",
    "FIGURE_4_RPEAK_TOTAL_MJ",
    "FIGURE_4_SAVING_FRACTION",
    "PAPER_OVERALL_ERROR",
]
