"""Tests for the command-line interface."""

import pytest

from repro.cli import BATTERIES, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_exist(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4",
                        "figure4", "validate", "run", "explain",
                        "baseline", "interference", "sensitivity"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_flags(self):
        args = build_parser().parse_args(["table1", "--measure-s", "5",
                                          "--seed", "3"])
        assert args.measure_s == 5.0
        assert args.seed == 3

    def test_run_flags(self):
        args = build_parser().parse_args([
            "run", "--mac", "dynamic", "--app", "rpeak", "--nodes", "2",
            "--battery", "lipo160", "--losses", "--join"])
        assert args.mac == "dynamic"
        assert args.app == "rpeak"
        assert args.nodes == 2
        assert args.battery == "lipo160"
        assert args.losses and args.join

    def test_invalid_mac_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mac", "tokenring"])

    def test_batteries_registry(self):
        assert set(BATTERIES) == {"cr2477", "lipo160"}

    @pytest.mark.parametrize("flags", [["--jobs", "-1"]])
    def test_bad_executor_flag_is_a_usage_error(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--measure-s", "0.1", *flags])
        assert str(excinfo.value.code).startswith("repro-ban: error:")


class TestExecution:
    def test_table3_output(self, capsys):
        assert main(["table3", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "Rpeak application and static TDMA" in out
        assert "Avg err vs paper sim" in out

    def test_figure4_output(self, capsys):
        assert main(["figure4", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "preprocessing saving" in out

    def test_run_output(self, capsys):
        assert main(["run", "--app", "rpeak", "--nodes", "2",
                     "--cycle-ms", "60", "--measure-s", "1",
                     "--losses"]) == 0
        out = capsys.readouterr().out
        assert "node1" in out and "node2" in out
        assert "days" in out
        assert "idle_listening" in out

    def test_run_dynamic_with_join(self, capsys):
        assert main(["run", "--mac", "dynamic", "--app", "ecg_streaming",
                     "--nodes", "2", "--measure-s", "1", "--join"]) == 0
        out = capsys.readouterr().out
        assert "dynamic MAC" in out

    def test_explain_output(self, capsys):
        assert main(["explain", "--app", "rpeak",
                     "--cycle-ms", "120"]) == 0
        out = capsys.readouterr().out
        assert "beacon window" in out
        assert "500.0 cycles" in out

    def test_baseline_output(self, capsys):
        assert main(["baseline"]) == 0
        out = capsys.readouterr().out
        assert "airtime_only" in out
        assert "guard_windows" in out

    def test_interference_output(self, capsys):
        assert main(["interference", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "collision" in out
        assert "ban1.node1" in out and "ban2.node3" in out

    def test_sensitivity_output(self, capsys):
        assert main(["sensitivity", "--relative", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Tornado" in out
        assert "radio_rx_current" in out

    def test_run_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "nodes.csv"
        json_path = tmp_path / "nodes.json"
        vcd_path = tmp_path / "ban.vcd"
        assert main(["run", "--nodes", "1", "--measure-s", "1",
                     "--csv", str(csv_path), "--json", str(json_path),
                     "--vcd", str(vcd_path)]) == 0
        assert csv_path.read_text().startswith("node,")
        assert '"node": "node1"' in json_path.read_text()
        assert vcd_path.read_text().startswith("$date")
