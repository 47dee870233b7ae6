"""Tests for the deterministic fault-injection subsystem.

Covers the spec value types and their CLI parser, the injector's fault
mechanics on real scenarios (crash/reboot, radio lockup, beacon-loss
burst, clock step, battery brownout), the reproducibility contract
(same seed, same schedule, same ledgers; faults participate in the
cache fingerprint), and the promise that a config without faults is
byte-identical to one predating the subsystem.
"""

import dataclasses

import pytest

from repro.exec import config_fingerprint
from repro.faults import (
    BatteryBrownout,
    BeaconLossBurst,
    ClockStep,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    RadioLockup,
    RandomFaults,
    parse_fault_spec,
    random_fault_plan,
)
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.obs import MetricsRegistry
from repro.sim.simtime import TICKS_PER_SECOND, microseconds, seconds
from repro.sim.trace import TraceRecorder

MEASURE_S = 2.0


def _config(**overrides) -> BanScenarioConfig:
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=2,
                    cycle_ms=30.0, measure_s=MEASURE_S, seed=11)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


class TestSpecs:
    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NodeCrash(node="", at_s=1.0)
        with pytest.raises(ValueError):
            NodeCrash(node="node1", at_s=-1.0)
        with pytest.raises(ValueError):
            NodeCrash(node="node1", at_s=1.0, reboot_after_s=0.0)
        with pytest.raises(ValueError):
            RadioLockup(node="node1", at_s=1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            BeaconLossBurst(node="node1", at_s=1.0, count=0)
        with pytest.raises(ValueError):
            ClockStep(node="node1", at_s=1.0, offset_ms=0.0)
        with pytest.raises(ValueError):
            BatteryBrownout(node="node1", capacity_mah=0.0)
        with pytest.raises(ValueError):
            BatteryBrownout(node="node1", capacity_mah=1.0,
                            soc_threshold=1.5)
        with pytest.raises(ValueError):
            RandomFaults(count=0)

    def test_plan_truthiness(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(NodeCrash(node="node1", at_s=1.0),))

    def test_specs_are_hashable_dataclasses(self):
        plan = FaultPlan(faults=(NodeCrash(node="node1", at_s=1.0),))
        assert dataclasses.is_dataclass(plan)
        assert hash(plan.faults[0]) == hash(NodeCrash(node="node1",
                                                      at_s=1.0))


class TestParser:
    def test_parses_every_kind(self):
        plan = parse_fault_spec(
            "crash,node=node1,at=5,reboot=3; "
            "lockup,node=node2,at=8,dur=2; "
            "beacons,node=node1,at=12,count=5; "
            "clockstep,node=node1,at=20,ms=-40; "
            "brownout,node=node3,mah=0.02,soc=0.1; "
            "random,count=4,horizon=30")
        kinds = [type(fault).__name__ for fault in plan.faults]
        assert kinds == ["NodeCrash", "RadioLockup", "BeaconLossBurst",
                         "ClockStep", "BatteryBrownout", "RandomFaults"]
        assert plan.faults[0].reboot_after_s == 3.0
        assert plan.faults[3].offset_ms == -40.0

    def test_crash_without_reboot(self):
        plan = parse_fault_spec("crash,node=node1,at=5")
        assert plan.faults[0].reboot_after_s is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("meteor,node=node1,at=1")

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_fault_spec("lockup,node=node1,at=1")

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault_spec("crash,node1,at=1")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no fault entries"):
            parse_fault_spec(" ; ")


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        nodes = ["node1", "node2", "node3"]
        assert random_fault_plan(42, nodes, 6) \
            == random_fault_plan(42, nodes, 6)

    def test_different_seed_different_plan(self):
        nodes = ["node1", "node2"]
        assert random_fault_plan(1, nodes, 6) \
            != random_fault_plan(2, nodes, 6)

    def test_times_inside_horizon(self):
        for fault in random_fault_plan(7, ["node1"], 20, horizon_s=10.0):
            assert 0.0 < fault.at_s < 10.0


class TestInjection:
    def test_crash_without_reboot_silences_node(self):
        clean = BanScenario(_config()).run()
        plan = FaultPlan(faults=(NodeCrash(node="node1", at_s=0.3),))
        scenario = BanScenario(_config(faults=plan))
        result = scenario.run()
        assert scenario.fault_injector.summary() == {
            "node1": {"crashes": 1}}
        # The node is down for most of the window: radio off, no slots.
        assert result.nodes["node1"].radio_mj \
            < 0.5 * clean.nodes["node1"].radio_mj
        assert not scenario.nodes[0].mac.started
        assert scenario.nodes[0].radio.state == "power_down"

    def test_crash_and_reboot_resyncs(self):
        plan = FaultPlan(faults=(
            NodeCrash(node="node1", at_s=0.3, reboot_after_s=0.5),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        assert scenario.fault_injector.summary() == {
            "node1": {"crashes": 1, "reboots": 1}}
        mac = scenario.nodes[0].mac
        assert mac.started
        assert mac.is_synced
        # Re-entering SYNCED after the reboot counts as a recovery.
        assert mac.counters.recoveries >= 1

    def test_lockup_recovers(self):
        plan = FaultPlan(faults=(
            RadioLockup(node="node2", at_s=0.4, duration_s=0.3),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        counters = scenario.fault_injector.counters_for("node2")
        assert counters.lockups == 1
        assert counters.lockup_recoveries == 1
        radio = scenario.nodes[1].radio
        assert not radio.fault_rx_deaf
        assert radio.fault_frames_dropped > 0
        assert scenario.nodes[1].mac.is_synced

    def test_crash_mid_airtime_reports_fault_dropped(self):
        """Regression: a crash landing inside a beacon's airtime used to
        leave the half-captured frame unaccounted — the quiesce cleared
        the capture set, so the frame showed up neither as received nor
        as corrupted.  It must surface as an explicit fault drop."""
        # Beacon #1 airtime runs 10.201..10.305 ms into the measurement
        # window; 10.245 ms lands the crash mid-capture.
        plan = FaultPlan(faults=(NodeCrash(node="node1", at_s=0.010245),))
        scenario = BanScenario(_config(
            num_nodes=1, measure_s=0.5, sampling_hz=205.0, faults=plan))
        result = scenario.run()
        radio = scenario.nodes[0].radio
        assert radio.state == "power_down"
        assert radio.fault_frames_dropped == 1
        # The truncated capture keeps the attribution invariant intact.
        node = result.nodes["node1"]
        assert node.losses.total_j * 1e3 \
            == pytest.approx(node.radio_mj, rel=1e-9)

    def test_beacon_burst_drops_exactly_n(self):
        plan = FaultPlan(faults=(
            BeaconLossBurst(node="node1", at_s=0.5, count=3),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        radio = scenario.nodes[0].radio
        assert radio.fault_drop_beacons == 0  # burst fully consumed
        assert radio.fault_frames_dropped == 3
        assert scenario.nodes[0].mac.counters.beacons_missed >= 3
        assert scenario.nodes[0].mac.is_synced

    def test_clock_step_forces_resync(self):
        clean = BanScenario(_config())
        clean.run()
        missed_clean = clean.nodes[0].mac.counters.beacons_missed
        plan = FaultPlan(faults=(
            ClockStep(node="node1", at_s=0.5, offset_ms=20.0),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        mac = scenario.nodes[0].mac
        assert scenario.fault_injector.counters_for("node1").clock_steps \
            == 1
        assert mac.counters.beacons_missed > missed_clean
        assert mac.is_synced

    def test_brownout_crashes_permanently(self):
        plan = FaultPlan(faults=(
            BatteryBrownout(node="node2", capacity_mah=0.001,
                            soc_threshold=0.5, sample_period_s=0.05),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        assert scenario.fault_injector.counters_for("node2").brownouts == 1
        assert not scenario.nodes[1].mac.started
        assert len(scenario.fault_injector.monitors) == 1

    def test_unknown_node_rejected(self):
        plan = FaultPlan(faults=(NodeCrash(node="node9", at_s=0.5),))
        with pytest.raises(ValueError, match="unknown node"):
            BanScenario(_config(faults=plan))

    def test_clockstep_on_aloha_rejected(self):
        plan = FaultPlan(faults=(
            ClockStep(node="node1", at_s=0.5, offset_ms=10.0),))
        with pytest.raises(ValueError, match="beacon-synchronised"):
            BanScenario(_config(mac="aloha", faults=plan))

    def test_double_arm_rejected(self):
        scenario = BanScenario(_config())
        injector = FaultInjector(scenario, FaultPlan(
            faults=(NodeCrash(node="node1", at_s=0.5),)))
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_random_faults_expand_and_run(self):
        plan = FaultPlan(faults=(RandomFaults(count=3, horizon_s=1.5),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        fired = sum(counts.total for counts
                    in scenario.fault_injector._counters.values())
        assert fired >= 3  # the three faults (+ any recoveries)


class TestRebootMidBurst:
    @pytest.mark.parametrize("mac", ["static", "dynamic", "aloha", "csma"])
    def test_restart_waits_for_the_burst(self, mac):
        """Regression: a node that crashed and rebooted inside its own
        ShockBurst restarted while the radio still transmitted, and the
        TDMA MACs' restart (start_rx) killed the run with RadioError.
        The restart now lands on the burst's last tick."""
        config = _config(mac=mac)
        trace = TraceRecorder()
        BanScenario(config, trace=trace).run()
        burst = next(record.time for record in trace
                     if record.source == "node1.radio"
                     and record.kind == "tx_start"
                     and record.time >= seconds(1.0))
        crash = burst + microseconds(300)
        plan = FaultPlan((NodeCrash(node="node1",
                                    at_s=crash / TICKS_PER_SECOND,
                                    reboot_after_s=50e-6),))
        trace = TraceRecorder()
        scenario = BanScenario(dataclasses.replace(config, faults=plan),
                               trace=trace)
        scenario.run()
        after = [record for record in trace if record.time >= crash
                 and record.source in ("node1.radio", "node1.mac")]
        tx_done = next(r.time for r in after if r.kind == "tx_done")
        start = next(r.time for r in after if r.kind == "start")
        assert tx_done > crash + microseconds(50)  # rebooted mid-burst
        assert start == tx_done
        assert any(r.kind == "tx_start" and r.time > start for r in after)
        assert scenario.fault_injector.summary() == {
            "node1": {"crashes": 1, "reboots": 1}}


class TestDeterminism:
    def test_empty_plan_is_no_plan(self):
        baseline = BanScenario(_config(faults=None)).run()
        empty = BanScenario(_config(faults=FaultPlan())).run()
        assert empty == baseline

    def test_same_seed_same_faulted_results(self):
        plan = FaultPlan(faults=(
            NodeCrash(node="node1", at_s=0.3, reboot_after_s=0.4),
            RadioLockup(node="node2", at_s=0.6, duration_s=0.2),
            RandomFaults(count=2, horizon_s=1.5),
        ))
        first = BanScenario(_config(faults=plan)).run()
        second = BanScenario(_config(faults=plan)).run()
        assert first == second

    def test_faults_change_results(self):
        plan = FaultPlan(faults=(NodeCrash(node="node1", at_s=0.3),))
        assert BanScenario(_config(faults=plan)).run() \
            != BanScenario(_config()).run()

    def test_fault_plan_in_cache_fingerprint(self):
        base = config_fingerprint(_config())
        crash = config_fingerprint(_config(faults=FaultPlan(
            faults=(NodeCrash(node="node1", at_s=0.3),))))
        lockup = config_fingerprint(_config(faults=FaultPlan(
            faults=(RadioLockup(node="node1", at_s=0.3,
                                duration_s=0.1),))))
        assert len({base, crash, lockup}) == 3

    def test_injector_metrics_export(self):
        plan = FaultPlan(faults=(
            NodeCrash(node="node1", at_s=0.3, reboot_after_s=0.4),))
        scenario = BanScenario(_config(faults=plan))
        scenario.run()
        registry = MetricsRegistry()
        scenario.fault_injector.observe_metrics(registry)
        assert registry.counter("faults", "node1", "crashes").value == 1
        assert registry.counter("faults", "node1", "reboots").value == 1
