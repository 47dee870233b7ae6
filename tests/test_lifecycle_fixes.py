"""Regression tests for the resource leaks the lifecycle lint found.

The LIF001/LIF004 findings over the shipped tree were real bugs, not
lint noise: MACs left their radio in stand-by after stopping (booking
0.9 mA against a dead node forever), the base station's beacon cadence
survived its own stop, periodic snapshotters could never be disarmed,
and a CLI command that aborted mid-run lost its trace file un-flushed.
Each test here fails against the pre-fix code and pins the repaired
behaviour.  Every MAC family shares one stop contract, checked by
``TestStopContract``: the stop releases the radio, and mid-ShockBurst
the burst completes before the power-down instead of raising
``RadioError``.
"""

import argparse
import json

import pytest

from repro.cli import _Observability
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401
from repro.mac.tdma_static import (StaticTdmaBaseMac, StaticTdmaConfig,
                                   StaticTdmaNodeMac)
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.obs.instrument import (PeriodicSnapshotter,
                                  attach_periodic_snapshots)
from repro.obs.metrics import MetricsRegistry
from repro.phy.channel import Channel
from repro.sim.kernel import Simulator
from repro.sim.simtime import microseconds, milliseconds, seconds
from repro.tinyos.scheduler import TaskScheduler

CAL = DEFAULT_CALIBRATION


def _tdma_pair(sim, num_nodes=1):
    """A hand-built static-TDMA base station plus nodes."""
    channel = Channel(sim)
    config = StaticTdmaConfig(cycle_ticks=milliseconds(30.0),
                              num_slots=max(1, num_nodes))
    bs_radio = Nrf2401(sim, CAL, channel, "base_station",
                       name="bs.radio")
    bs_mac = StaticTdmaBaseMac(
        sim, bs_radio, TaskScheduler(sim, Msp430(sim, CAL)),
        CAL, config)
    nodes = []
    for index in range(1, num_nodes + 1):
        node_id = f"node{index}"
        radio = Nrf2401(sim, CAL, channel, node_id,
                        name=f"{node_id}.radio")
        mac = StaticTdmaNodeMac(
            sim, radio, TaskScheduler(sim, Msp430(sim, CAL)),
            CAL, config, preassigned_slot=index)
        bs_mac.schedule.assign(index, node_id)
        mac.payload_provider = lambda: (18, {"d": 1})
        nodes.append((mac, radio))
    return bs_mac, bs_radio, nodes


def _run_until(sim, condition, deadline_ticks, step=microseconds(20.0)):
    """Advance in small steps until ``condition()`` holds."""
    while sim.now < deadline_ticks:
        sim.run_until(sim.now + step)
        if condition():
            return True
    return False


#: One stop contract over every MAC family: (mac, station) per rig.
STOP_RIGS = {
    "static-node": ("static", "node"),
    "dynamic-node": ("dynamic", "node"),
    "aloha-node": ("aloha", "node"),
    "csma-node": ("csma", "node"),
    "tdma-collector": ("static", "collector"),
    "aloha-collector": ("aloha", "collector"),
}
#: The rigs whose MAC transmits (the ALOHA collector only listens).
BURST_RIGS = {name: rig for name, rig in STOP_RIGS.items()
              if name != "aloha-collector"}


def _stop_rig(mac, station):
    """A started 2-node BAN; returns (sim, MAC under test, its radio,
    the counter its TX-done callback bumps)."""
    scenario = BanScenario(BanScenarioConfig(
        mac=mac, app="ecg_streaming", num_nodes=2, sampling_hz=205.0,
        measure_s=1.0, seed=3))
    scenario.start_all()
    if station == "node":
        node = scenario.nodes[0]
        return scenario.sim, node.mac, node.radio, "data_sent"
    collector = scenario.base_station
    return scenario.sim, collector.mac, collector.radio, "beacons_sent"


class TestStopContract:
    @pytest.mark.parametrize("mac,station", list(STOP_RIGS.values()),
                             ids=list(STOP_RIGS))
    def test_idle_stop_powers_down(self, mac, station):
        sim, stack_mac, radio, _ = _stop_rig(mac, station)
        sim.run_until(seconds(0.5))
        assert _run_until(sim, lambda: not radio.is_transmitting,
                          seconds(1.0))
        assert radio.state != "power_down"
        stack_mac.stop()
        assert radio.state == "power_down"

    @pytest.mark.parametrize("mac,station", list(BURST_RIGS.values()),
                             ids=list(BURST_RIGS))
    def test_stop_mid_burst_finishes_it(self, mac, station):
        sim, stack_mac, radio, counter = _stop_rig(mac, station)
        assert _run_until(sim, lambda: radio.is_transmitting,
                          seconds(2.0)), "never transmitted"
        sent = getattr(stack_mac.counters, counter)
        stack_mac.stop()  # must not raise RadioError mid-ShockBurst
        assert radio.state == "tx"  # the burst finishes first
        sim.run_until(sim.now + milliseconds(5.0))
        assert getattr(stack_mac.counters, counter) == sent + 1
        assert radio.state == "power_down"


class TestNodeMacReleasesRadio:
    def test_stopped_node_accrues_no_standby_energy(self, sim):
        bs_mac, _, nodes = _tdma_pair(sim)
        mac, radio = nodes[0]
        bs_mac.start()
        mac.start()
        sim.run_until(seconds(0.5))
        mac.stop()
        bs_mac.stop()
        settled = radio.energy_mj()
        sim.run_until(seconds(10.0))
        assert radio.energy_mj() == pytest.approx(settled)


class TestBaseStationMacReleasesRadio:
    def test_stop_powers_radio_down_and_kills_beacons(self, sim):
        bs_mac, bs_radio, _ = _tdma_pair(sim)
        bs_mac.start()
        sim.run_until(seconds(0.5))
        sent = bs_mac.counters.beacons_sent
        assert sent > 0
        bs_mac.stop()
        sim.run_until(seconds(2.0))
        assert bs_radio.state == "power_down"
        assert bs_mac.counters.beacons_sent == sent


class TestSnapshotterStop:
    def test_stop_disarms_future_fires(self, sim):
        registry = MetricsRegistry()
        snap = attach_periodic_snapshots(sim, registry, period_s=0.1)
        sim.run_until(seconds(1.05))
        taken = snap.samples
        assert taken >= 10
        snap.stop()
        sim.run_until(seconds(5.0))
        assert snap.samples == taken

    def test_stop_before_any_fire(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        sim.run_until(seconds(2.0))
        assert snap.samples == 0

    def test_stop_is_idempotent_and_rearmable(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        snap.stop()  # no-op, not an error
        snap.start()  # a stopped snapshotter may be re-armed
        sim.run_until(seconds(0.55))
        assert snap.samples == 5


class TestObservabilityUnwind:
    def _obs(self, trace_path):
        args = argparse.Namespace(metrics=None, trace_jsonl=trace_path,
                                  metrics_period=5.0, profile=False,
                                  spans=None, spans_perfetto=None,
                                  command="run")
        return _Observability(args)

    def test_close_flushes_sink_without_finish(self, tmp_path):
        """The unwind backstop: an aborted command still gets its
        trace records on disk."""
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        recorder = obs.make_trace()
        recorder.record(0, "node1", "boot", "")
        recorder.record(10, "node1", "tx", "frame=1")
        obs.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "tx"

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        obs.make_trace().record(0, "node1", "boot", "")
        obs.close()
        obs.close()
        assert len(path.read_text(encoding="utf-8")
                   .splitlines()) == 1

    def test_close_without_sink_is_noop(self, tmp_path):
        obs = self._obs(None)
        obs.close()  # no trace requested: nothing to flush
