"""Executable mirror of docs/tutorial.md — the tutorial cannot rot."""

import pytest


class TestTutorialSnippets:
    def test_section_1_kernel_and_ledger(self):
        from repro.sim import Simulator, seconds
        from repro.core import PowerState, PowerStateTable, \
            PowerStateLedger

        sim = Simulator(seed=0)
        table = PowerStateTable([PowerState("on", 10e-3),
                                 PowerState("off", 0.0)])
        ledger = PowerStateLedger(sim, "lamp", table, supply_v=2.8,
                                  initial_state="off")
        sim.at(seconds(2.0), lambda: ledger.transition("on"))
        sim.run_until(seconds(5.0))
        assert abs(ledger.energy_mj() - 10e-3 * 2.8 * 3.0 * 1e3) < 1e-9

    def test_section_2_radio_pair(self):
        from repro.sim import Simulator, seconds
        from repro.core import DEFAULT_CALIBRATION
        from repro.phy import Channel
        from repro.hw import Nrf2401, Frame, FrameKind

        sim = Simulator()
        channel = Channel(sim)
        tx = Nrf2401(sim, DEFAULT_CALIBRATION, channel, "tx")
        rx = Nrf2401(sim, DEFAULT_CALIBRATION, channel, "rx")
        got = []
        rx.on_frame = got.append
        tx.power_up()
        rx.power_up()
        rx.start_rx()
        tx.send(Frame(src="tx", dest="rx", kind=FrameKind.DATA,
                      payload_bytes=18))
        sim.run_until(seconds(0.01))
        assert len(got) == 1
        assert tx.energy_mj() > 0

    def test_section_3_whole_ban(self):
        from repro import run_scenario
        from repro.core import RadioEnergyCategory

        result = run_scenario(mac="static", app="ecg_streaming",
                              num_nodes=5, cycle_ms=30.0,
                              sampling_hz=205.0, measure_s=6.0)
        node = result.node("node1")
        assert abs(node.radio_mj - 50.35) < 1.0
        assert abs(node.mcu_mj - 16.15) < 0.5
        idle = node.loss_fraction(RadioEnergyCategory.IDLE_LISTENING)
        assert idle > 0.8

    def test_section_4_reproduce_table(self):
        from repro.analysis import reproduce_table3

        table = reproduce_table3(measure_s=6.0)
        assert table.mean_error("paper_sim", "radio") < 0.03
        assert "Rpeak" in table.render()

    def test_section_5_design_question(self):
        from repro.analysis import predict_analytic, tornado
        from repro.net import BanScenarioConfig

        config = BanScenarioConfig(mac="static", app="rpeak",
                                   num_nodes=5, cycle_ms=120.0,
                                   measure_s=60.0)
        prediction = predict_analytic(config)
        assert abs(prediction.total_mj - 252.4) < 1.0
        ranking = tornado(config, relative=0.1)
        assert ranking[0].parameter in ("radio_rx_current",
                                        "static_guard_lead")

    def test_section_6_extension_imports(self):
        from repro.net import MultiBanScenario
        from repro.tinyos import ThresholdDeepSleep
        from repro.baselines import fidelity_ladder
        assert all((MultiBanScenario, ThresholdDeepSleep,
                    fidelity_ladder))

    def test_section_7_lost_beacons(self):
        from repro.net import BanScenario, BanScenarioConfig
        from repro.phy.lossmodels import DeterministicLoss

        loss = DeterministicLoss(
            {("base_station", "node1"): (20, 21, 22, 23)})
        config = BanScenarioConfig(mac="static", app="ecg_streaming",
                                   num_nodes=1, cycle_ms=30.0,
                                   measure_s=2.0, seed=3,
                                   loss_model=loss)

        scenario = BanScenario(config)
        result = scenario.run()

        mac = scenario.nodes[0].mac
        assert mac.counters.resyncs >= 1
        assert mac.is_synced
        assert BanScenario(config).run() == result
