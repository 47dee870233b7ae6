"""Tests for experiment reproduction, validation, figures and sweeps.

These run the actual table scenarios with shortened windows (the energy
model is time-proportional, which `test_scenario` verifies separately),
keeping the suite fast while still executing every reproduction path.
"""

import pytest

from repro.analysis.experiments import (
    Figure4Result,
    reproduce_figure4,
    reproduce_table1,
    reproduce_table2,
    reproduce_table3,
    reproduce_table4,
)
from repro.analysis.figures import (
    figure4_csv,
    figure4_series,
    render_figure4,
    table_series,
)
from repro.analysis.sweep import (
    as_table,
    sweep_cycle_ms,
    sweep_heart_rate,
    sweep_num_nodes,
    sweep_scenarios,
)
from repro.analysis.validation import validate_all, validate_table
from repro.data.paper_tables import ALL_TABLES, TABLE_1, TABLE_3
from repro.net.scenario import BanScenarioConfig

WINDOW_S = 6.0


@pytest.fixture(scope="module")
def table1():
    return reproduce_table1(measure_s=WINDOW_S)


@pytest.fixture(scope="module")
def table3():
    return reproduce_table3(measure_s=WINDOW_S)


class TestPaperTablesData:
    def test_row_counts(self):
        assert len(TABLE_1.rows) == 4
        assert len(TABLE_3.rows) == 4
        assert all(len(t.rows) in (4, 5) for t in ALL_TABLES)

    def test_printed_errors_match_recomputed(self):
        """The embedded data must reproduce the errors the paper prints
        (within rounding of the printed averages).

        Exception: Table 4's printed uC average (3.3%) does not match
        its own rows, which recompute to 1.9% — an inconsistency in the
        paper itself (the other seven printed averages all agree with
        their rows).  EXPERIMENTS.md documents this.
        """
        for table in ALL_TABLES:
            printed_radio, printed_mcu = table.printed_avg_error
            assert table.mean_radio_error() \
                == pytest.approx(printed_radio, abs=0.007)
            if table.table_id == "table4":
                assert table.mean_mcu_error() \
                    == pytest.approx(0.019, abs=0.007)
            else:
                assert table.mean_mcu_error() \
                    == pytest.approx(printed_mcu, abs=0.007)

    def test_monotone_radio_energy_vs_cycle(self):
        """Radio energy decreases with the cycle in every table."""
        for table in ALL_TABLES:
            values = [row.radio_real_mj for row in table.rows]
            ordered = sorted(zip((r.cycle_ms for r in table.rows), values))
            radios = [v for _, v in ordered]
            assert radios == sorted(radios, reverse=True)


class TestTableReproduction:
    def test_table1_static_accuracy(self, table1):
        # Our model was fitted on these rows: ~1-2% against the paper's
        # simulator is expected.
        assert table1.mean_error("paper_sim", "radio") < 0.03
        assert table1.mean_error("paper_sim", "mcu") < 0.03
        # And against hardware, within the paper's own error band.
        assert table1.mean_error("real", "radio") < 0.10
        assert table1.mean_error("real", "mcu") < 0.10

    def test_table3_rpeak_accuracy(self, table3):
        assert table3.mean_error("paper_sim", "radio") < 0.03
        assert table3.mean_error("paper_sim", "mcu") < 0.04
        assert table3.mean_error("real", "radio") < 0.06
        assert table3.mean_error("real", "mcu") < 0.06

    def test_table2_dynamic_shape(self):
        table2 = reproduce_table2(measure_s=WINDOW_S)
        radios = [row.radio_ours_mj for row in table2.rows]
        # Monotonically decreasing with node count, like the paper.
        assert radios == sorted(radios, reverse=True)
        assert table2.mean_error("real", "radio") < 0.12
        assert table2.mean_error("real", "mcu") < 0.15

    def test_table4_dynamic_shape(self):
        table4 = reproduce_table4(measure_s=WINDOW_S)
        radios = [row.radio_ours_mj for row in table4.rows]
        assert radios == sorted(radios, reverse=True)
        assert table4.mean_error("real", "radio") < 0.10
        assert table4.mean_error("real", "mcu") < 0.10

    def test_render_contains_all_rows(self, table1):
        text = table1.render()
        assert "Radio ours" in text
        assert text.count("\n") >= 7
        assert "Avg err vs real" in text

    def test_row_error_helper(self, table1):
        row = table1.rows[0]
        assert row.error_vs("real", "radio") == pytest.approx(
            abs(row.radio_ours_mj - row.radio_real_mj)
            / row.radio_real_mj)
        with pytest.raises(KeyError):
            row.error_vs("imagination", "radio")


class TestFigure4:
    @pytest.fixture(scope="class")
    def figure(self):
        return reproduce_figure4(measure_s=WINDOW_S)

    def test_saving_matches_paper(self, figure):
        # Paper: 65% saved by on-node preprocessing.
        assert figure.saving == pytest.approx(0.65, abs=0.05)

    def test_totals_near_paper(self, figure):
        assert figure.streaming_total_mj == pytest.approx(
            figure.paper_streaming_total_mj, rel=0.12)
        assert figure.rpeak_total_mj == pytest.approx(
            figure.paper_rpeak_total_mj, rel=0.08)

    def test_series_has_six_bars(self, figure):
        records = figure4_series(figure)
        assert len(records) == 6
        assert {r["source"] for r in records} == {"real", "sim", "ours"}

    def test_csv_shape(self, figure):
        csv = figure4_csv(figure)
        lines = csv.splitlines()
        assert lines[0].startswith("application,")
        assert len(lines) == 7

    def test_render(self, figure):
        text = render_figure4(figure)
        assert "Rpeak" in text and "ours" in text and "%" in text

    def test_table_series_helper(self, figure):
        table = reproduce_table3(measure_s=WINDOW_S)
        params, series = table_series(table)
        assert params == [30.0, 60.0, 90.0, 120.0]
        assert len(series["radio_ours_mj"]) == 4


class TestValidationMetrics:
    def test_validate_table(self, table1):
        validation = validate_table(table1, TABLE_1.printed_avg_error)
        assert validation.table_id == "table1"
        assert 0 <= validation.radio_vs_real < 0.15
        assert validation.within_paper_band

    def test_validate_all_and_render(self, table1, table3):
        overall = validate_all({"table1": table1, "table3": table3})
        assert 0 < overall.overall_vs_real < 0.10
        text = overall.render()
        assert "table1" in text and "overall" in text

    def test_overall_vs_paper_sim_small(self, table1, table3):
        overall = validate_all({"table1": table1, "table3": table3})
        assert overall.overall_vs_paper_sim < 0.04


class TestSweeps:
    BASE = BanScenarioConfig(mac="static", app="rpeak", num_nodes=2,
                             cycle_ms=60.0, measure_s=2.0)

    def test_cycle_sweep_monotone(self):
        points = sweep_cycle_ms(self.BASE, [30.0, 60.0, 120.0])
        radios = [p.node.radio_mj for p in points]
        assert radios == sorted(radios, reverse=True)

    def test_node_count_sweep(self):
        base = BanScenarioConfig(mac="dynamic", app="rpeak",
                                 measure_s=2.0)
        points = sweep_num_nodes(base, [1, 3])
        assert points[0].node.radio_mj > points[1].node.radio_mj

    def test_heart_rate_sweep_increases_traffic(self):
        points = sweep_heart_rate(self.BASE, [50.0, 150.0])
        assert points[1].node.traffic.data_tx \
            > points[0].node.traffic.data_tx

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_scenarios(self.BASE, "warp_factor", [1.0])

    def test_as_table(self):
        points = sweep_cycle_ms(self.BASE, [60.0])
        records = as_table(points, value_name="cycle_ms")
        assert records[0]["cycle_ms"] == 60.0
        assert records[0]["total_mj"] > 0
