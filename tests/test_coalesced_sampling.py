"""Coalesced sampling against the per-sample reference path.

A sampling-timer fire (or a cost-only post) that finds the node's
scheduler idle and its MCU in LPM0 books the task's wake, run and
sleep as planned ledger transitions instead of two dispatch events;
its body only records the acquisition tick, and the recorded ticks are
read as one block when something can observe them.  The per-sample
chain, which reads every sample on its own, runs whenever the
simulator has a ``TraceRecorder`` (or spans, or a deep-sleep policy),
so every test here runs the same thing twice, once with a trace, and
requires bit-identical results.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "tools"))
from determinism_check import fault_config, reference_configs  # noqa: E402

from repro.analysis.experiments import _TABLE_SPECS
from repro.analysis.waveforms import WaveformProbe
from repro.apps.base import SamplingApplication
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.ledger import PowerStateLedger
from repro.core.states import PowerState, PowerStateTable
from repro.exec.cache import config_fingerprint
from repro.hw.asic import BiopotentialAsic
from repro.net import BanScenario, BanScenarioConfig
from repro.net.multi import MultiBanScenario
from repro.net.node import SensorNode
from repro.obs import attach_span_tracer
from repro.phy.channel import Channel
from repro.signals.ecg import SyntheticEcg
from repro.signals.sources import ScaledSource
from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.simtime import milliseconds, seconds
from repro.sim.trace import TraceRecorder
from repro.tinyos.components import Component

WINDOW_S = 1.0

TABLE_ROWS = [(table_id, index, config)
              for table_id, (_, build) in sorted(_TABLE_SPECS.items())
              for index, config in enumerate(
                  build(WINDOW_S, 0, DEFAULT_CALIBRATION))]


def _fingerprint(result: Any) -> str:
    return hashlib.sha256(config_fingerprint(result).encode()).hexdigest()


def _node_counters(bans: List[BanScenario]) -> List[Tuple[Any, ...]]:
    rows = []
    for ban in bans:
        for station in [*ban.nodes, ban.base_station]:
            app = getattr(station, "app", None)
            asic = getattr(station, "asic", None)
            adc = getattr(station, "adc", None)
            rows.append((
                station.mcu.wakeups, station.mcu.cycles_executed,
                station.scheduler.tasks_run,
                getattr(app, "samples_taken", None),
                getattr(app, "codes_sent", None),
                getattr(app, "codes_dropped", None),
                getattr(app, "beats_detected", None),
                list(getattr(app, "_pending", ())),
                list(getattr(app, "_pending_reports", ())),
                list(getattr(app, "_stream_buffer", ())),
                getattr(app, "mode_changes", None),
                None if asic is None else asic.reads,
                None if adc is None else adc.conversions))
    return rows


def _timelines(probes: List[WaveformProbe]) -> List[Dict[str, Any]]:
    return [{name: probe.timeline(name) for name in probe.signals}
            for probe in probes]


def _run_ban(config: BanScenarioConfig, per_sample: bool
             ) -> Tuple[str, Any, Any, int]:
    trace = TraceRecorder(capacity=1) if per_sample else None
    scenario = BanScenario(config, trace=trace)
    probe = WaveformProbe.attach_to_scenario(scenario)
    result = scenario.run()
    return (_fingerprint(result), _node_counters([scenario]),
            _timelines([probe]), scenario.sim.events_dispatched)


@pytest.mark.parametrize("table_id,index,config", TABLE_ROWS,
                         ids=[f"{t}-row{i}" for t, i, _ in TABLE_ROWS])
def test_table_rows_are_bit_identical(table_id, index, config):
    coalesced = _run_ban(config, per_sample=False)
    reference = _run_ban(config, per_sample=True)
    assert coalesced[:3] == reference[:3]
    assert coalesced[3] < reference[3]


def test_ward_is_bit_identical():
    macs = ("static", "dynamic", "aloha", "csma")

    def run(per_sample: bool) -> Tuple[str, Any, Any, int]:
        configs = [BanScenarioConfig(mac=macs[index % 4],
                                     app="ecg_streaming", num_nodes=5,
                                     cycle_ms=120.0, sampling_hz=55.0,
                                     measure_s=WINDOW_S, seed=0)
                   for index in range(8)]
        ward = MultiBanScenario(
            configs, stagger_ms=7.8, seed=0,
            trace=TraceRecorder(capacity=1) if per_sample else None)
        probes = [WaveformProbe.attach_to_scenario(ban)
                  for ban in ward.bans]
        results = ward.run()
        return (_fingerprint(results), _node_counters(ward.bans),
                _timelines(probes), ward.sim.events_dispatched)

    coalesced, reference = run(False), run(True)
    assert coalesced[:3] == reference[:3]
    assert coalesced[3] < reference[3]


NOISY_AND_ADAPTIVE = [
    BanScenarioConfig(mac="static", app="ecg_streaming", num_nodes=3,
                      measure_s=WINDOW_S, seed=5, ecg_noise_mv=0.05),
    BanScenarioConfig(mac="static", app="rpeak", num_nodes=2,
                      measure_s=WINDOW_S, seed=5, ecg_noise_mv=0.05),
    reference_configs()[-1],
]


@pytest.mark.parametrize("config", NOISY_AND_ADAPTIVE,
                         ids=["noisy-streaming", "noisy-rpeak",
                              "adaptive-alarm"])
def test_noisy_and_adaptive_configs_are_bit_identical(config):
    coalesced = _run_ban(config, per_sample=False)
    reference = _run_ban(config, per_sample=True)
    assert coalesced[:3] == reference[:3]
    if config.app == "adaptive":
        # A mode change logged: the alarm fired, so raw codes streamed
        # from coalesced blocks.
        assert any(row[10] for row in coalesced[1])


def test_events_dispatched_is_pinned():
    """Table 1 row 1 (205 Hz, 30 ms): three events per idle sample
    become one, so the run dispatches under 60 % of the per-sample
    chain's events."""
    config = TABLE_ROWS[0][2]
    coalesced = _run_ban(config, per_sample=False)[3]
    reference = _run_ban(config, per_sample=True)[3]
    assert (coalesced, reference) == (3033, 5757)
    assert coalesced < 0.6 * reference


def test_crash_and_reboot_mid_sample_are_bit_identical():
    config = fault_config()
    crash = config.faults.faults[0]
    # node1 crashes 10 us into a coalesced sample: its task's end is
    # still a planned sleep when the crash has been handled.
    scenario = BanScenario(config)
    scenario.start_all()
    scenario.sim.run_until(seconds(crash.at_s))
    node = scenario.nodes[0]
    wake = seconds(DEFAULT_CALIBRATION.mcu_wakeup_s)
    task = node.mcu.cycles_to_ticks(
        2 * DEFAULT_CALIBRATION.mcu_costs.sample_acquisition)
    fire = seconds(crash.at_s) - 10_000 - wake
    assert fire % node.app.sample_period_ticks == 0
    assert not node.app.started
    assert node.scheduler._idle_at == fire + wake + task
    assert _run_ban(config, False)[:3] == _run_ban(config, True)[:3]


# ----------------------------------------------------------------------
# Hand-built edge cases: one node, one channel sampled at 200 Hz
# ----------------------------------------------------------------------
class _RecordingApp(SamplingApplication):
    """Logs every sample vector and every payload read."""

    def __init__(self, node: SensorNode, mac: Any, log: List[Any]) -> None:
        super().__init__(node.sim, node.scheduler, node.asic, node.adc, mac,
                         DEFAULT_CALIBRATION, channels=(0,),
                         sampling_hz=200.0, name="node1.app")
        self._log = log

    def handle_samples(self, codes: Tuple[int, ...]) -> None:
        self._log.append(("sample", self.sample_tick, codes))

    def next_payload(self) -> Optional[Tuple[int, object]]:
        self._log.append(("read", self._sim.now, self.samples_taken))
        return None


class _MacStub(Component):
    payload_provider: Optional[Callable[[], Any]] = None


class _Rig:
    """One sampling node; ``per_sample`` puts a trace on the kernel."""

    #: The first sample fire.
    FIRE = milliseconds(5)
    #: The sampling period (200 Hz).
    PERIOD = milliseconds(5)

    def __init__(self, per_sample: bool) -> None:
        self.sim = Simulator(seed=1, trace=(TraceRecorder(capacity=1)
                                            if per_sample else None))
        self.node = SensorNode(self.sim, Channel(self.sim),
                               DEFAULT_CALIBRATION, "node1")
        self.node.asic.connect_source(
            0, ScaledSource(SyntheticEcg(first_beat_s=0.004), gain=0.8,
                            offset=1.25))
        self.mac = _MacStub(self.sim, "node1.mac")
        self.node.install_mac(self.mac)
        self.log: List[Any] = []
        self.app = _RecordingApp(self.node, self.mac, self.log)
        self.node.install_app(self.app)
        self.probe = WaveformProbe()
        self.probe.attach("mcu", self.node.mcu.ledger)
        self.app.start()

    @property
    def wake(self) -> int:
        return seconds(DEFAULT_CALIBRATION.mcu_wakeup_s)

    @property
    def task(self) -> int:
        return self.node.mcu.cycles_to_ticks(
            DEFAULT_CALIBRATION.mcu_costs.sample_acquisition)

    def post_at(self, time: int, cycles: int, label: str = "mac") -> None:
        def post() -> None:
            self.node.scheduler.post(
                lambda: self.log.append((label, self.sim.now)), cycles,
                label)
        self.sim.at(time, post)

    def read_at(self, time: int) -> None:
        assert self.mac.payload_provider is not None
        self.sim.at(time, self.mac.payload_provider)

    def outcome(self) -> Tuple[Any, ...]:
        # A coalesced acquisition runs late in host order, stamped with
        # its tick, so the log compares in simulated-time order.
        mcu = self.node.mcu
        log = sorted(self.log, key=lambda entry: entry[1])
        return (log, self.probe.timeline("mcu"), mcu.wakeups,
                mcu.cycles_executed, self.node.scheduler.tasks_run,
                self.app.samples_taken, mcu.ledger.energy_j(),
                dict(mcu.ledger.energy_by_tag()), self.node.asic.reads,
                self.node.adc.conversions)


def _both(script: Callable[[_Rig], None], until: int = milliseconds(30)
          ) -> Tuple[_Rig, _Rig]:
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample)
        script(rig)
        rig.sim.run_until(until)
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()
    return rigs[0], rigs[1]


def test_an_idle_sample_costs_one_event():
    coalesced, reference = _both(lambda rig: None,
                                 until=milliseconds(7))
    assert coalesced.sim.events_dispatched == 1
    assert reference.sim.events_dispatched == 3


PREP = DEFAULT_CALIBRATION.mcu_costs.packet_preparation


def test_a_cost_only_post_on_an_idle_mcu_costs_no_event():
    def script(rig: _Rig) -> None:
        rig.sim.at(rig.FIRE + milliseconds(1),
                   lambda: rig.node.scheduler.post_cost_only(PREP, "proc"))

    coalesced, reference = _both(script, until=milliseconds(7))
    # The fire and the posting event; the per-task chain adds the
    # sample's two dispatches and the cost-only task's first one.
    assert coalesced.sim.events_dispatched == 2
    assert reference.sim.events_dispatched == 5


@pytest.mark.parametrize("offset", ["wake", "task"])
def test_mac_post_inside_the_sample(offset):
    def script(rig: _Rig) -> None:
        delay = rig.wake // 2 if offset == "wake" \
            else rig.wake + rig.task // 2
        rig.post_at(rig.FIRE + delay, PREP)

    coalesced, _ = _both(script)
    assert ("mac", _Rig.FIRE + coalesced.wake + coalesced.task) \
        in coalesced.log


@pytest.mark.parametrize("post", [False, True])
def test_clear_inside_the_wakeup_drops_the_sample(post):
    """A crash inside a coalesced sample's wake-up drops the sample, as
    the per-task chain drops it from the queue.  A post made earlier in
    the wake-up is dropped with it; one made where the sample would
    have run wakes the MCU afresh."""
    def script(rig: _Rig) -> None:
        if post:
            rig.post_at(rig.FIRE + rig.wake // 3, PREP, "dropped")
        rig.sim.at(rig.FIRE + rig.wake // 2, rig.node.scheduler.clear)
        rig.post_at(rig.FIRE + rig.wake + rig.task // 2, PREP)

    coalesced, _ = _both(script)
    wake, task = coalesced.wake, coalesced.task
    ran = [entry[:2] for entry in coalesced.log]
    assert ("sample", _Rig.FIRE + wake) not in ran
    assert ("sample", 2 * _Rig.FIRE + wake) in ran
    assert ("mac", _Rig.FIRE + 2 * wake + task // 2) in ran
    assert not any(entry[0] == "dropped" for entry in ran)


def test_clear_at_the_sample_start_tick_raises():
    rig = _Rig(per_sample=False)
    rig.sim.at(rig.FIRE + rig.wake, rig.node.scheduler.clear)
    with pytest.raises(SimulationError, match="start tick"):
        rig.sim.run_until(milliseconds(30))


def test_mac_post_at_the_sample_end_tick_raises():
    def script(rig: _Rig) -> None:
        rig.post_at(rig.FIRE + rig.wake + rig.task, PREP)

    reference = _Rig(per_sample=True)
    script(reference)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False)
    script(coalesced)
    end = _Rig.FIRE + coalesced.wake + coalesced.task
    with pytest.raises(SimulationError, match=f"node1.*{end}"):
        coalesced.sim.run_until(milliseconds(30))


@pytest.mark.parametrize("delta", [-1, 1])
def test_payload_read_next_to_the_acquisition_tick(delta):
    coalesced, _ = _both(
        lambda rig: rig.read_at(rig.FIRE + rig.wake + delta))
    reads = [entry for entry in coalesced.log if entry[0] == "read"]
    assert reads == [("read", _Rig.FIRE + coalesced.wake + delta,
                      1 if delta > 0 else 0)]


def test_payload_read_at_the_acquisition_tick_raises():
    reference = _Rig(per_sample=True)
    reference.read_at(reference.FIRE + reference.wake)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False)
    acquisition = _Rig.FIRE + coalesced.wake
    coalesced.read_at(acquisition)
    with pytest.raises(SimulationError, match=f"node1.*{acquisition}"):
        coalesced.sim.run_until(milliseconds(30))


def test_payload_read_at_a_later_acquisition_tick_raises():
    # Two samples wait as recorded ticks; the read lands on the third
    # sample's acquisition tick and must still refuse to guess.
    coalesced = _Rig(per_sample=False)
    acquisition = _Rig.FIRE + 2 * _Rig.PERIOD + coalesced.wake
    coalesced.read_at(acquisition)
    with pytest.raises(SimulationError, match=f"node1.*{acquisition}"):
        coalesced.sim.run_until(milliseconds(30))


def test_payload_read_evaluates_the_deferred_block():
    read = _Rig.FIRE + 3 * _Rig.PERIOD
    coalesced, reference = _both(lambda rig: rig.read_at(read))
    assert ("read", read, 3) in coalesced.log
    # All three samples were read as one block after the fact: they
    # sit right before the read in host order.
    assert [entry[0] for entry in coalesced.log[:4]] \
        == ["sample", "sample", "sample", "read"]
    assert coalesced.node.asic.reads == reference.node.asic.reads


def test_a_posted_sample_flushes_earlier_ticks_first():
    # The 4.19 ms packet task starts 1 ms after the first (coalesced)
    # sample; the second sample fires inside it, so it is posted and
    # read on the scalar path, after the first sample's recorded tick.
    def script(rig: _Rig) -> None:
        rig.post_at(rig.FIRE + milliseconds(1), PREP)

    coalesced, reference = _both(script)
    samples = [entry[1] for entry in coalesced.log if entry[0] == "sample"]
    assert samples == sorted(samples)
    first, second = samples[:2]
    assert first == _Rig.FIRE + coalesced.wake
    assert second > _Rig.FIRE + _Rig.PERIOD + coalesced.wake
    # Host order: the MAC task ran before the first sample's values
    # were read, and the posted sample read them first.
    assert [entry[0] for entry in coalesced.log[:3]] \
        == ["mac", "sample", "sample"]
    assert [entry[0] for entry in reference.log[:3]] \
        == ["sample", "mac", "sample"]


def test_the_per_task_chain_reads_sample_by_sample(monkeypatch):
    def no_block(*args: Any) -> None:
        raise AssertionError("block read on the per-task chain")

    monkeypatch.setattr(BiopotentialAsic, "read_block", no_block)
    reference = _Rig(per_sample=True)
    reference.sim.run_until(milliseconds(30))
    assert reference.app.samples_taken == 5


def test_coalesced_samples_read_in_blocks_only(monkeypatch):
    def no_scalar(*args: Any) -> None:
        raise AssertionError("scalar read of a coalesced sample")

    monkeypatch.setattr(BiopotentialAsic, "read_channel", no_scalar)
    monkeypatch.setattr(SyntheticEcg, "value_at", no_scalar)
    coalesced = _Rig(per_sample=False)
    coalesced.sim.run_until(milliseconds(30))
    assert coalesced.app.samples_taken == 5
    assert coalesced.node.asic.reads == 5


def test_sample_fire_during_a_packet_prep_task():
    # The 4.19 ms task started 1 ms before the fire; the sample queues
    # behind it on both paths.
    coalesced, _ = _both(
        lambda rig: rig.post_at(rig.FIRE - milliseconds(1), PREP))
    samples = [entry[1] for entry in coalesced.log if entry[0] == "sample"]
    assert samples[0] > _Rig.FIRE + milliseconds(3)


@pytest.mark.parametrize("phase", ["wake", "task"])
def test_sample_straddling_the_warmup_reset(phase):
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample)
        reset = rig.FIRE + (rig.wake // 2 if phase == "wake"
                            else rig.wake + rig.task // 2)
        rig.sim.run_until(reset)
        rig.node.reset_measurement()
        rig.sim.run_until(milliseconds(30))
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()


def test_deferred_ticks_straddling_the_warmup_reset():
    # The reset runs inside an event, with three samples recorded and a
    # fourth mid-wake: it reads the recorded three (their ASIC reads
    # belong to the warm-up) before it zeroes the counters, and the
    # window counts the fourth and fifth.
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample)
        seen: List[Tuple[int, int]] = []

        def reset(rig: _Rig = rig, seen: List[Tuple[int, int]] = seen
                  ) -> None:
            rig.node.reset_measurement()
            seen.append((len(rig.log), rig.node.asic.reads))

        rig.sim.at(rig.FIRE + 3 * rig.PERIOD + rig.wake // 2, reset)
        rig.sim.run_until(milliseconds(30))
        assert seen == [(3, 0)]
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()
    assert rigs[0].node.asic.reads == 2


def test_deferred_ticks_at_the_horizon():
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample)
        # The horizon lands one tick after the fourth acquisition.
        rig.sim.run_until(rig.FIRE + 3 * rig.PERIOD + rig.wake + 1)
        assert len(rig.log) == 4
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()
    for rig in rigs:
        rig.sim.run_until(milliseconds(30))
    assert rigs[0].outcome() == rigs[1].outcome()


@pytest.mark.parametrize("phase", ["wake", "task"])
def test_sample_straddling_the_horizon(phase):
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample)
        horizon = rig.FIRE + (rig.wake // 2 if phase == "wake"
                              else rig.wake + rig.task // 2)
        rig.sim.run_until(horizon)
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()
    for rig in rigs:
        rig.sim.run_until(milliseconds(30))
    assert rigs[0].outcome() == rigs[1].outcome()


# ----------------------------------------------------------------------
# Which path runs
# ----------------------------------------------------------------------
def _quick(**overrides: Any) -> BanScenarioConfig:
    params: Dict[str, Any] = dict(mac="static", app="ecg_streaming",
                                  num_nodes=2, measure_s=0.5, seed=3)
    params.update(overrides)
    return BanScenarioConfig(**params)


def test_plain_scenario_coalesces():
    scenario = BanScenario(_quick())
    assert all(node.scheduler.coalescing() for node in scenario.nodes)


def test_trace_selects_the_per_sample_path():
    scenario = BanScenario(_quick(), trace=TraceRecorder(capacity=1))
    assert not any(node.scheduler.coalescing() for node in scenario.nodes)


def test_spans_keep_the_coalesced_path():
    scenario = BanScenario(_quick())
    attach_span_tracer(scenario)
    assert all(node.scheduler.coalescing() for node in scenario.nodes)
    assert scenario.base_station.scheduler.coalescing()


def test_deep_sleep_policy_selects_the_per_sample_path():
    config = _quick(deep_sleep_threshold_ms=1.0)
    scenario = BanScenario(config)
    assert not any(node.scheduler.coalescing() for node in scenario.nodes)
    # The base station keeps LPM0 and coalesces its own task ends.
    assert scenario.base_station.scheduler.coalescing()
    assert _run_ban(config, False)[:3] == _run_ban(config, True)[:3]


# ----------------------------------------------------------------------
# Planned ledger transitions
# ----------------------------------------------------------------------
def _ledger(sim: Simulator) -> PowerStateLedger:
    table = PowerStateTable([PowerState("on", 1e-3),
                             PowerState("off", 0.0)])
    return PowerStateLedger(sim, "probe", table, 3.0, initial_state="off")


def test_plans_apply_at_their_tick_on_the_next_entry_point():
    sim = Simulator()
    ledger = _ledger(sim)
    seen: List[Tuple[int, str, str]] = []
    ledger.on_transition = lambda *change: seen.append(change)
    ledger.plan((100, ("on", "work")), (250, ("off", "off")))
    sim.run_until(200)  # the end hook closes, applying the due plan
    assert seen == [(100, "on", "work")]
    assert ledger.ticks_in("on") == 100
    sim.run_until(1000)
    assert seen[-1] == (250, "off", "off")
    assert ledger.ticks_in("on") == 150
    assert ledger.ticks_in() == 1000


def test_plans_must_be_ordered_and_cancellable():
    sim = Simulator()
    ledger = _ledger(sim)
    ledger.plan((100, ("on", "on")))
    with pytest.raises(ValueError):
        ledger.plan((50, ("off", "off")))
    ledger.cancel_plan(100, "on")
    with pytest.raises(ValueError):
        ledger.cancel_plan(100, "on")
    sim.run_until(500)
    assert ledger.ticks_in("on") == 0


def test_reset_keeps_plans_that_are_not_due():
    sim = Simulator()
    ledger = _ledger(sim)
    ledger.plan((100, ("on", "on")), (300, ("off", "off")))
    sim.run_until(200)
    ledger.reset()
    sim.run_until(400)
    assert ledger.ticks_in("on") == 100
