"""Coalesced sampling against the per-sample reference path.

A sampling fire (or a cost-only post) that finds the node's scheduler
idle and its MCU in LPM0 books the task's wake, run and sleep as
planned ledger transitions instead of two dispatch events; its body
only records the acquisition tick, and the recorded ticks are read as
one block when something can observe them.  The sampling fires
themselves are no kernel events: the scheduler holds the app's grid
and books every fire that has come due at its next entry point.  The
per-sample chain, which fires a
kernel timer and reads every sample on its own, runs whenever the
simulator has a ``TraceRecorder`` (or a deep-sleep policy), so every
test here runs the same thing twice, once with a trace, and requires
bit-identical results.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "tools"))
from determinism_check import station_digest, station_rows  # noqa: E402

from conftest import record_ledger, record_timelines
from repro.analysis.experiments import _TABLE_SPECS
from repro.apps.base import SamplingApplication
from repro.apps.ecg_streaming import StreamPayload
from repro.apps.rpeak import RpeakApp
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.ledger import MAX_PENDING_PLANS, PowerStateLedger
from repro.core.states import PowerState, PowerStateTable
from repro.exec.cache import config_fingerprint
from repro.hw.asic import BiopotentialAsic
from repro.hw.mcu import Msp430
from repro.net import BanScenario, BanScenarioConfig
from repro.net.multi import MultiBanScenario
from repro.net.node import SensorNode
from repro.obs import attach_span_tracer
from repro.phy.channel import Channel
from repro.signals import ecg as ecg_module
from repro.signals.ecg import SyntheticEcg
from repro.signals.sources import ScaledSource
from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.simtime import milliseconds, seconds
from repro.sim.trace import TraceRecorder
from repro.tinyos.components import Component
from repro.tinyos.scheduler import TaskScheduler
from repro.tinyos.timers import VirtualTimer

WINDOW_S = 1.0

TABLE_ROWS = [(table_id, index, config)
              for table_id, (_, build) in sorted(_TABLE_SPECS.items())
              for index, config in enumerate(
                  build(WINDOW_S, 0, DEFAULT_CALIBRATION))]


def _fingerprint(result: Any) -> str:
    return hashlib.sha256(config_fingerprint(result).encode()).hexdigest()


def _run_ban(config: BanScenarioConfig, per_sample: bool
             ) -> Tuple[str, Any, Any, int]:
    trace = TraceRecorder(capacity=1) if per_sample else None
    scenario = BanScenario(config, trace=trace)
    timelines = record_timelines(scenario)
    result = scenario.run()
    return (_fingerprint(result), station_rows([scenario]), timelines,
            scenario.sim.events_dispatched)


@pytest.mark.parametrize("table_id,index,config", TABLE_ROWS,
                         ids=[f"{t}-row{i}" for t, i, _ in TABLE_ROWS])
def test_table_rows_are_bit_identical(table_id, index, config):
    coalesced = _run_ban(config, per_sample=False)
    reference = _run_ban(config, per_sample=True)
    assert coalesced[:3] == reference[:3]
    assert coalesced[3] < reference[3]


def _ward(per_sample: bool) -> MultiBanScenario:
    """Eight 5-node BANs on one channel, MACs mixed."""
    macs = ("static", "dynamic", "aloha", "csma")
    configs = [BanScenarioConfig(mac=macs[index % 4],
                                 app="ecg_streaming", num_nodes=5,
                                 cycle_ms=120.0, sampling_hz=55.0,
                                 measure_s=WINDOW_S, seed=0)
               for index in range(8)]
    return MultiBanScenario(
        configs, stagger_ms=7.8, seed=0,
        trace=TraceRecorder(capacity=1) if per_sample else None)


def test_ward_is_bit_identical():
    def run(per_sample: bool) -> Tuple[str, Any, Any, int]:
        ward = _ward(per_sample)
        timelines = [record_timelines(ban) for ban in ward.bans]
        results = ward.run()
        return (_fingerprint(results), station_rows(ward.bans),
                timelines, ward.sim.events_dispatched)

    coalesced, reference = run(False), run(True)
    assert coalesced[:3] == reference[:3]
    assert coalesced[3] < reference[3]


# Streaming configs whose payloads carry codes of coalesced samples:
# every MAC family and one that oversamples (24 codes per 30 ms cycle
# for 12 sent, so the bounded buffer drops).
STREAMING = {
    "static": {},
    "dynamic": {"mac": "dynamic"},
    "aloha": {"mac": "aloha", "sampling_hz": 205.0},
    "csma": {"mac": "csma", "sampling_hz": 205.0},
    "oversampled": {"sampling_hz": 400.0},
}


def _stream_run(config: BanScenarioConfig, mode: str) -> Tuple[Any, ...]:
    """Run ``config`` and read every delivered payload's codes.

    ``mode``: "per_sample" (traced, codes read as sampled), "after"
    (coalesced, payloads read newest first once the run is over) or
    "during" (coalesced, each payload read as the base station
    delivers it).  Returns the result fingerprint, (arrival, source,
    codes, packed) per delivered frame, and each node's ASIC reads,
    ADC conversions and dropped codes at the measurement reset and at
    the horizon.
    """
    scenario = BanScenario(config, trace=(TraceRecorder(capacity=1)
                                          if mode == "per_sample" else None))

    def counters(node: SensorNode) -> Tuple[int, int, int]:
        return (node.asic.reads, node.adc.conversions,
                node.app.codes_dropped)

    at_reset: Dict[str, Tuple[int, int, int]] = {}
    for node in scenario.nodes:
        def reset(node: SensorNode = node,
                  zero: Callable[[], None] = node.asic.reset_measurement
                  ) -> None:
            # The node has flushed its warm-up samples by now.
            at_reset[node.node_id] = counters(node)
            zero()

        node.asic.reset_measurement = reset  # type: ignore[method-assign]
    if mode == "during":
        mac = scenario.base_station.mac
        deliver = mac.data_sink

        def reading(frame: Any) -> None:
            deliver(frame)
            frame.payload.get("codes")

        mac.data_sink = reading
    result = scenario.run()
    deliveries = scenario.base_station.deliveries
    payloads = [frame.payload for _, frame in deliveries]
    assert all(isinstance(payload, StreamPayload) for payload in payloads)
    newest_first = [payload["codes"] for payload in reversed(payloads)]
    frames = [(time, frame.src, frame.payload["codes"],
               frame.payload["packed"]) for time, frame in deliveries]
    # Read twice: the same codes.
    assert [row[2] for row in frames] == newest_first[::-1]
    return (_fingerprint(result), frames, at_reset,
            [counters(node) for node in scenario.nodes])


@pytest.mark.parametrize("name", list(STREAMING))
def test_stream_payloads_equal_the_per_task_run(name):
    """Codes read when first looked at, in any order or during the run,
    are the codes the per-task chain reads as it samples; the flush
    counts the reads, conversions and drops an eager read counts."""
    params: Dict[str, Any] = dict(mac="static", app="ecg_streaming",
                                  num_nodes=3, measure_s=WINDOW_S, seed=5)
    params.update(STREAMING[name])
    config = BanScenarioConfig(**params)
    reference = _stream_run(config, "per_sample")
    assert _stream_run(config, "after") == reference
    assert _stream_run(config, "during") == reference
    _, frames, at_reset, at_horizon = reference
    assert len(frames) > 20 and all(row[2] for row in frames)
    assert len(at_reset) == config.num_nodes
    dropped = [node[2] for node in at_horizon]
    assert (min(dropped) > 0) if name == "oversampled" else not any(dropped)


def test_events_dispatched_is_pinned():
    """Table 1 row 1 (205 Hz, 30 ms): the three events of an idle
    sample and the two of a sample that fires inside a coalesced task
    become none, so the run dispatches under 30 % of the per-sample
    chain's events."""
    config = TABLE_ROWS[0][2]
    coalesced = _run_ban(config, per_sample=False)[3]
    reference = _run_ban(config, per_sample=True)[3]
    assert (coalesced, reference) == (1681, 5757)
    assert coalesced < 0.3 * reference


def test_table_rows_read_no_sample_on_the_scalar_path(monkeypatch):
    """Untraced, every Table 1-4 row reads its samples in blocks, those
    that fire inside a coalesced task included, also when every
    delivered payload's codes are read."""
    def no_scalar(*args: Any) -> None:
        raise AssertionError("scalar read of a coalesced sample")

    continued = [0]
    continue_window = TaskScheduler._continue_window

    def counting(scheduler: TaskScheduler, *args: Any) -> None:
        continued[0] += 1
        continue_window(scheduler, *args)

    monkeypatch.setattr(BiopotentialAsic, "read_channel", no_scalar)
    monkeypatch.setattr(SyntheticEcg, "value_at", no_scalar)
    monkeypatch.setattr(TaskScheduler, "_continue_window", counting)
    for _, _, config in TABLE_ROWS:
        scenario = BanScenario(config)
        scenario.run()
        station_digest(scenario)  # reads every payload's codes
        assert all(node.asic.reads > 0 for node in scenario.nodes)
    assert continued[0] > 100  # busy fires


def test_ecg_recordings_leave_the_rpeak_rows_unchanged(monkeypatch):
    """Tables 3+4 give node i the same patient in every row, so after
    the first row its block reads are served from the recording.  The
    rows run forward, in reverse (every read served from what the
    forward pass recorded) and each with the registry emptied (every
    read synthesized) give the same results and station digests."""
    rows = [config for table_id, _, config in TABLE_ROWS
            if table_id in ("table3", "table4")]
    synthesized = [0]
    synthesize = SyntheticEcg._synthesize

    def counting(self: SyntheticEcg, times: Any) -> List[float]:
        synthesized[0] += len(times)
        return synthesize(self, times)

    monkeypatch.setattr(SyntheticEcg, "_synthesize", counting)

    def run(config: BanScenarioConfig) -> Tuple[str, str]:
        scenario = BanScenario(config)
        result = scenario.run()
        return _fingerprint(result), station_digest(scenario)

    def recorded() -> List[int]:
        return [len(instants)
                for instants, _ in ecg_module._RECORDINGS.values()]

    ecg_module._RECORDINGS.clear()
    forward = [run(config) for config in rows]
    forward_synthesized, kept = synthesized[0], recorded()
    reverse = [run(config) for config in reversed(rows)][::-1]
    assert recorded() == kept
    reverse_synthesized = synthesized[0] - forward_synthesized
    emptied = []
    for config in rows:
        ecg_module._RECORDINGS.clear()
        emptied.append(run(config))
    emptied_synthesized = (synthesized[0] - forward_synthesized
                           - reverse_synthesized)
    assert forward == reverse == emptied
    assert reverse_synthesized == 0 < forward_synthesized < emptied_synthesized


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
    """One sampling node; ``per_sample`` puts a trace on the kernel,
    ``probe`` records the MCU ledger's timeline (an observer, so the
    grid books every fire one by one), and ``start`` starts the app
    (False: the test starts it)."""

    #: The first sample fire.
    FIRE = milliseconds(5)
    #: The sampling period (200 Hz).
    PERIOD = milliseconds(5)

    def __init__(self, per_sample: bool, probe: bool = True,
                 start: bool = True) -> None:
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
        self.timeline = (record_ledger(self.node.mcu.ledger) if probe
                         else None)
        if start:
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
        return (log, self.timeline, mcu.wakeups,
                mcu.cycles_executed, self.node.scheduler.tasks_run,
                self.app.samples_taken, mcu.ledger.energy_j(),
                dict(mcu.ledger.energy_by_tag()), self.node.asic.reads,
                self.node.adc.conversions)


def _both(script: Callable[[_Rig], None], until: int = milliseconds(30),
          probe: bool = True) -> Tuple[_Rig, _Rig]:
    rigs = []
    for per_sample in (False, True):
        rig = _Rig(per_sample, probe)
        script(rig)
        rig.sim.run_until(until)
        rigs.append(rig)
    assert rigs[0].outcome() == rigs[1].outcome()
    return rigs[0], rigs[1]


def test_an_idle_sample_costs_no_event():
    coalesced, reference = _both(lambda rig: None,
                                 until=milliseconds(7))
    assert coalesced.sim.events_dispatched == 0
    assert reference.sim.events_dispatched == 3


PREP = DEFAULT_CALIBRATION.mcu_costs.packet_preparation


def test_a_cost_only_post_on_an_idle_mcu_costs_no_event():
    def script(rig: _Rig) -> None:
        rig.sim.at(rig.FIRE + milliseconds(1),
                   lambda: rig.node.scheduler.post_cost_only(PREP, "proc"))

    coalesced, reference = _both(script, until=milliseconds(7))
    # The posting event; the per-task chain adds the fire, the
    # sample's two dispatches and the cost-only task's first one.
    assert coalesced.sim.events_dispatched == 1
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


def test_a_posted_sample_flushes_earlier_ticks_first(monkeypatch):
    """The 4.19 ms packet task starts 1 ms after the first (coalesced)
    sample, and the second sample fires inside it.  On the grid, the
    second sample is the task's continuation: its tick is recorded
    like the first's, and the two are read as one block.  A coalescing
    node without a grid (the scheduler refuses one whose idle fire
    would not end before the next) keeps the kernel timer: its busy
    fire posts the sample, which reads the first sample's recorded
    tick before its own, on the scalar path."""
    def script(rig: _Rig) -> None:
        rig.post_at(rig.FIRE + milliseconds(1), PREP)

    scalar = [0]
    read_channel = BiopotentialAsic.read_channel

    def counting(asic: BiopotentialAsic, *args: Any) -> float:
        scalar[0] += 1
        return read_channel(asic, *args)

    monkeypatch.setattr(BiopotentialAsic, "read_channel", counting)

    def run(per_sample: bool) -> Tuple[_Rig, int]:
        scalar[0] = 0
        rig = _Rig(per_sample)
        script(rig)
        rig.sim.run_until(milliseconds(30))
        return rig, scalar[0]

    reference, _ = run(True)
    for grid in (True, False):
        if not grid:
            monkeypatch.setattr(TaskScheduler, "start_grid",
                                lambda *args: False)
        coalesced, scalar_reads = run(False)
        assert coalesced.outcome() == reference.outcome()
        samples = _samples(coalesced)
        assert samples == sorted(samples)
        first, second = samples[:2]
        assert first == _Rig.FIRE + coalesced.wake
        assert second > _Rig.FIRE + _Rig.PERIOD + coalesced.wake
        # Host order: the MAC task ran before the first sample's values
        # were read; without a grid, the posted sample read them first.
        assert [entry[0] for entry in coalesced.log[:3]] \
            == ["mac", "sample", "sample"]
        assert scalar_reads == (0 if grid else 1)
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
    # The second fire lands inside this packet task.
    coalesced.post_at(coalesced.FIRE + milliseconds(1), PREP)
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
# The sampling grid: fires booked at the scheduler's next entry point
# ----------------------------------------------------------------------
def test_fires_pending_at_the_horizon_are_booked_before_the_ledger_closes():
    """Nothing enters the scheduler between the first fire and the
    horizon, and the MCU ledger's end hook runs before the
    scheduler's: reading the ledger to close it books the six fires."""
    coalesced, _ = _both(lambda rig: None,
                         until=_Rig.FIRE + 5 * _Rig.PERIOD + 1)
    hooks = coalesced.sim._end_hooks
    assert hooks.index(coalesced.node.mcu.ledger.close) \
        < hooks.index(coalesced.node.scheduler.settle)
    assert coalesced.sim.events_dispatched == 0
    assert coalesced.node.mcu.wakeups == 6
    assert coalesced.app.samples_taken == 5  # the sixth is still waking


def test_post_at_the_end_tick_of_a_stretch_raises():
    """Four fires are due when a post lands at exactly the fourth one's
    end tick: the stretch's last sleep is planned for that tick, and
    the post must raise as at a single sample's end, not treat the
    stretch as over."""
    def end(rig: _Rig) -> int:
        return rig.FIRE + 3 * rig.PERIOD + rig.wake + rig.task

    reference = _Rig(per_sample=True)
    reference.post_at(end(reference), PREP)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False)
    coalesced.post_at(end(coalesced), PREP)
    with pytest.raises(SimulationError, match=f"node1.*{end(coalesced)}"):
        coalesced.sim.run_until(milliseconds(30))


@pytest.mark.parametrize("scheduled", ["before", "after"])
def test_a_post_on_a_grid_tick_is_ordered_by_when_it_was_scheduled(
        scheduled):
    """A post at the third fire's tick, scheduled one tick before or
    after the second fire's: the timer re-arms its entry for the third
    fire when the second runs, so the fire precedes exactly the posts
    scheduled later.  Before: the post wakes the MCU and the sample
    queues behind it.  After: the sample is booked idle and the post
    waits for its end."""
    fire = _Rig.FIRE + 2 * _Rig.PERIOD

    def script(rig: _Rig) -> None:
        at = rig.FIRE + rig.PERIOD + (-1 if scheduled == "before" else 1)
        rig.sim.at(at, lambda: rig.post_at(fire, PREP))

    coalesced, _ = _both(script)
    wake, task = coalesced.wake, coalesced.task
    ran = [entry[:2] for entry in coalesced.log]
    if scheduled == "before":
        assert ("mac", fire + wake) in ran
        assert ("sample", fire + wake) not in ran
    else:
        assert ("sample", fire + wake) in ran
        assert ("mac", fire + wake + task) in ran


def test_a_post_scheduled_at_a_late_booked_fire_tick_raises():
    """Scheduled at exactly the second fire's tick, when nothing booked
    that fire then: whether the post precedes the third fire is
    unknown."""
    def script(rig: _Rig) -> None:
        rig.sim.at(rig.FIRE + rig.PERIOD,
                   lambda: rig.post_at(rig.FIRE + 2 * rig.PERIOD, PREP))

    reference = _Rig(per_sample=True)
    script(reference)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False)
    script(coalesced)
    with pytest.raises(SimulationError, match="previous sampling fire"):
        coalesced.sim.run_until(milliseconds(30))


@pytest.mark.parametrize("case", ["arming", "booked"])
def test_a_post_scheduled_at_the_previous_fire_tick_is_ordered(case):
    """The same tie, where the order is known: a post scheduled at the
    arming tick after the grid was armed, or at the second fire's tick
    after an entry point booked that fire, follows the next fire."""
    def script(rig: _Rig) -> None:
        if case == "arming":
            rig.post_at(rig.FIRE, PREP)
            return
        second = rig.FIRE + rig.PERIOD

        def enter() -> None:
            rig.node.scheduler.pending  # an entry point: books the fire
            rig.post_at(second + rig.PERIOD, PREP)

        rig.sim.at(rig.FIRE + 1, lambda: rig.sim.at(second, enter))

    coalesced, _ = _both(script)
    fire = _Rig.FIRE + (0 if case == "arming" else 2 * _Rig.PERIOD)
    assert ("sample", fire + coalesced.wake) in [entry[:2] for entry
                                                 in coalesced.log]


@pytest.mark.parametrize("armed", ["before", "after"])
def test_a_ledger_reader_on_the_sampling_period_is_ordered(armed):
    """A kernel timer reads the MCU ledger on every fire's tick, armed
    before or after the grid: each read is ordered as its timer entry
    is against the fire's, and reads what the per-task chain left."""
    def reads(per_sample: bool) -> List[Any]:
        rig = _Rig(per_sample, start=armed == "after")
        ledger, seen = rig.node.mcu.ledger, []

        def read() -> None:
            seen.append((rig.sim.now, ledger.transitions,
                         ledger.energy_j(), rig.node.mcu.wakeups))

        rig.sim.every(rig.PERIOD, read)
        if armed == "before":
            rig.app.start()
        rig.sim.run_until(milliseconds(30))
        return seen

    coalesced, reference = reads(False), reads(True)
    assert coalesced == reference
    # Armed before, a read precedes the fire at its tick; after, it
    # follows it and sees the wake-up.
    assert [row[3] for row in coalesced[:3]] \
        == ([0, 1, 2] if armed == "before" else [1, 2, 3])


def _energy_reads(scenario: BanScenario, period_s: float
                  ) -> List[Tuple[int, float, float]]:
    """Read node1's MCU and radio energy mid-run every ``period_s``, as
    a battery monitor would; returns the (tick, MCU J, radio J) reads
    taken so far."""
    node = scenario.nodes[0]
    reads: List[Tuple[int, float, float]] = []

    def read() -> None:
        reads.append((scenario.sim.now, node.mcu.ledger.energy_j(),
                      node.radio.ledger.energy_j()))

    VirtualTimer(scenario.sim, read, name="node1.reader").start_periodic(
        seconds(period_s))
    return reads


def test_a_battery_monitor_on_the_sampling_period_reads_per_task():
    """A timer reads the node's ledgers mid-run, every 5 ms, on the
    200 Hz grid of an R-peak node."""
    def history(per_sample: bool) -> Tuple[Any, ...]:
        config = BanScenarioConfig(mac="static", app="rpeak", num_nodes=2,
                                   measure_s=WINDOW_S, seed=5)
        scenario = BanScenario(config, trace=(TraceRecorder(capacity=1)
                                              if per_sample else None))
        reads = _energy_reads(scenario, 0.005)
        return _fingerprint(scenario.run()), reads

    coalesced, reference = history(False), history(True)
    assert coalesced == reference
    assert len(coalesced[1]) > 200


# ----------------------------------------------------------------------
# Busy fires: a fire inside a coalesced window is its continuation
# ----------------------------------------------------------------------
PROC = DEFAULT_CALIBRATION.mcu_costs.beacon_processing


def _samples(rig: _Rig) -> List[int]:
    """The acquisition ticks of the samples handled so far."""
    return [entry[1] for entry in rig.log if entry[0] == "sample"]


def _ticks(rig: _Rig, cycles: int) -> int:
    return rig.node.mcu.cycles_to_ticks(cycles)


def _prep_end(rig: _Rig) -> int:
    """End of the packet task :func:`_prep_inside` posts."""
    return rig.FIRE + milliseconds(1) + rig.wake + _ticks(rig, PREP)


def _prep_inside(rig: _Rig) -> None:
    """A 4.19 ms packet task from 1 ms after the first fire: it covers
    the second fire."""
    rig.post_at(rig.FIRE + milliseconds(1), PREP)


def test_a_fire_inside_a_coalesced_window_costs_no_event():
    """The packet task covers the second fire, which becomes the task's
    continuation: its sample starts at the task's end, in place of the
    planned sleep, without a kernel event."""
    coalesced, reference = _both(_prep_inside)
    assert _samples(coalesced)[1] == _prep_end(coalesced)
    # The posting event and the packet task's dispatch.
    assert coalesced.sim.events_dispatched == 2
    assert reference.sim.events_dispatched == 18


def test_pending_counts_tasks_booked_to_start_later():
    """The per-task chain queues a sample while its wake-up runs, and
    a busy fire's sample while the packet task runs; ``pending``
    counts both in coalesced runs too, where neither sits in the
    queue."""
    def script(rig: _Rig) -> None:
        _prep_inside(rig)
        for at in (rig.FIRE + rig.wake // 2,
                   _prep_end(rig) - milliseconds(0.1)):
            rig.sim.at(at, lambda: rig.log.append(
                ("pending", rig.sim.now, rig.node.scheduler.pending)))

    coalesced, _ = _both(script)
    assert [entry[2] for entry in coalesced.log
            if entry[0] == "pending"] == [1, 1]


@pytest.mark.parametrize("at", ["wake_tick", "mid_wake"])
def test_a_fire_inside_a_wakeup_waits_for_the_window_task(at):
    """A cost-only post books an idle window whose 6 us wake-up holds
    the third fire: at its wake tick (the post was scheduled before the
    second fire, so it goes first) or halfway through.  The sample
    starts where the window's task ends."""
    fire = _Rig.FIRE + 2 * _Rig.PERIOD

    def post(rig: _Rig) -> int:
        return fire if at == "wake_tick" else fire - rig.wake // 2

    def script(rig: _Rig) -> None:
        rig.sim.at(post(rig), lambda: rig.node.scheduler.post_cost_only(
            PROC, "proc"))

    coalesced, _ = _both(script)
    end = post(coalesced) + coalesced.wake + _ticks(coalesced, PROC)
    assert _samples(coalesced)[2] == end
    assert coalesced.sim.events_dispatched == 1


def test_two_fires_inside_one_window_run_back_to_back():
    """A 9 ms task covers the second and third fires: the two samples
    run one after the other from the task's end."""
    long_task = 72_000  # 9 ms at 8 MHz

    coalesced, _ = _both(
        lambda rig: rig.post_at(rig.FIRE + milliseconds(1), long_task))
    end = _Rig.FIRE + milliseconds(1) + coalesced.wake \
        + _ticks(coalesced, long_task)
    assert end > _Rig.FIRE + 2 * _Rig.PERIOD
    assert _samples(coalesced)[1:3] == [end, end + coalesced.task]
    assert coalesced.sim.events_dispatched == 2


def test_a_continuation_is_booked_after_its_window_ended():
    """Nothing enters the scheduler from the busy fire until a payload
    read 15 ms later, long after the packet task and the sample behind
    it ended: the read books the continuation at the ticks where the
    per-task chain ran it."""
    unbooked: List[Optional[int]] = []

    def script(rig: _Rig) -> None:
        _prep_inside(rig)
        # No entry point: reads the grid without booking anything.
        rig.sim.at(_prep_end(rig) + milliseconds(1),
                   lambda: unbooked.append(rig.node.scheduler._grid_next))
        rig.read_at(rig.FIRE + 3 * rig.PERIOD + milliseconds(1))

    coalesced, _ = _both(script)
    assert unbooked[0] == _Rig.FIRE + _Rig.PERIOD  # the busy fire
    assert _samples(coalesced)[1] == _prep_end(coalesced)
    assert ("read", _Rig.FIRE + 3 * _Rig.PERIOD + milliseconds(1), 4) \
        in coalesced.log


@pytest.mark.parametrize("when", ["before_the_fire", "waiting", "running"])
def test_a_post_around_a_continuation(when):
    """A post inside the packet task before the busy fire queues the
    sample behind it; one after the fire, while the continuation waits
    or runs, starts at the continuation's end."""
    def at(rig: _Rig) -> int:
        end = _prep_end(rig)
        return {"before_the_fire": rig.FIRE + milliseconds(3),
                "waiting": end - milliseconds(0.1),
                "running": end + rig.task // 2}[when]

    def script(rig: _Rig) -> None:
        _prep_inside(rig)
        rig.post_at(at(rig), PROC, "proc")

    coalesced, _ = _both(script)
    end, proc = _prep_end(coalesced), _ticks(coalesced, PROC)
    if when == "before_the_fire":
        assert ("proc", end) in coalesced.log
        assert _samples(coalesced)[1] == end + proc
    else:
        assert _samples(coalesced)[1] == end
        assert ("proc", end + coalesced.task) in coalesced.log


def test_a_battery_monitor_reads_across_busy_fires(monkeypatch):
    """Streaming nodes whose packet tasks cover sampling fires, with a
    timer reading node1's ledgers every 0.25 ms: reads land between a
    busy fire and its sample, and after it."""
    continued: List[str] = []
    continue_window = TaskScheduler._continue_window

    def counting(scheduler: TaskScheduler, *args: Any) -> None:
        continued.append(scheduler.name)
        continue_window(scheduler, *args)

    monkeypatch.setattr(TaskScheduler, "_continue_window", counting)

    def history(per_sample: bool) -> Tuple[Any, ...]:
        config = BanScenarioConfig(mac="static", app="ecg_streaming",
                                   num_nodes=3, measure_s=WINDOW_S, seed=5)
        scenario = BanScenario(config, trace=(TraceRecorder(capacity=1)
                                              if per_sample else None))
        reads = _energy_reads(scenario, 0.00025)
        result = scenario.run()
        return _fingerprint(result), station_digest(scenario), reads

    coalesced, reference = history(False), history(True)
    assert coalesced == reference
    assert len(coalesced[2]) > 4000
    assert continued.count("node1.sched") > 20


def test_a_fire_at_a_window_end_tick_raises():
    """The packet task ends at exactly the second fire's tick.  The
    per-task chain orders the fire against the task's end; the
    coalesced window does not know that order, and the fire raises as
    a post at that tick does."""
    def post(rig: _Rig) -> int:
        return rig.FIRE + rig.PERIOD - rig.wake - _ticks(rig, PREP)

    reference = _Rig(per_sample=True)
    reference.post_at(post(reference), PREP)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False)
    coalesced.post_at(post(coalesced), PREP)
    end = _Rig.FIRE + _Rig.PERIOD
    with pytest.raises(SimulationError, match=f"node1.*{end}, the end tick"):
        coalesced.sim.run_until(milliseconds(30))


# Random configs over the whole space the CLI accepts for the paper's
# apps: every MAC, 1-8 nodes, short and long cycles and slots, and
# sampling from 20 Hz to 4 kHz (or the app's derived rate).
cross_mode_configs = st.builds(
    BanScenarioConfig,
    mac=st.sampled_from(["static", "dynamic", "aloha", "csma"]),
    app=st.sampled_from(["ecg_streaming", "rpeak"]),
    num_nodes=st.integers(min_value=1, max_value=8),
    cycle_ms=st.floats(min_value=10.0, max_value=200.0).map(
        lambda ms: round(ms, 1)),
    slot_ms=st.floats(min_value=2.0, max_value=20.0).map(
        lambda ms: round(ms, 1)),
    sampling_hz=st.one_of(st.none(), st.floats(
        min_value=20.0, max_value=4000.0).map(lambda hz: round(hz, 1))),
    measure_s=st.just(0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _outcome(config: BanScenarioConfig, traced: bool) -> Tuple[Any, ...]:
    """(fingerprint, station digest), or the error the run raised."""
    scenario = BanScenario(config, trace=(TraceRecorder(capacity=1)
                                          if traced else None))
    try:
        result = scenario.run()
    except SimulationError as exc:
        return ("raised", str(exc))
    return _fingerprint(result), station_digest(scenario)


@given(cross_mode_configs)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grid_and_kernel_timer_agree_on_random_configs(config):
    """Untraced runs book their sampling fires on the scheduler's grid;
    traced runs fire a kernel timer and run the per-task chain.  Every
    config gives equal fingerprints and station digests, or raises the
    same error in both modes."""
    assert _outcome(config, traced=False) == _outcome(config, traced=True)


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


def test_cancel_plan_removes_the_newest_match():
    sim = Simulator()
    ledger = _ledger(sim)
    ledger.plan((100, ("on", "first")), (100, ("on", "second")))
    ledger.cancel_plan(100, "on")
    sim.run_until(200)
    assert ledger.ticks_in(tag="first") == 100
    assert ledger.ticks_in(tag="second") == 0


# ----------------------------------------------------------------------
# Fires booked in bulk: an idle MCU's samples are booked when the
# ledger is next read, and their plans stay pending until then
# ----------------------------------------------------------------------
def _eager_state(ledger: PowerStateLedger) -> str:
    """The state read that books every due plan at once."""
    if ledger._plans:
        ledger._apply_plans()
    return ledger._state


def _due(rig: _Rig) -> int:
    """Grid fires that have come due and are not booked yet."""
    grid = rig.node.scheduler._grid_next
    return 0 if grid is None else (rig.sim.now - grid) // rig.PERIOD + 1


def _ledger_reads(rig: _Rig, due: List[int]) -> List[Any]:
    """Read the MCU ledger inside a wake-up, inside a task, at a
    measurement reset and at the horizon (each read books whatever is
    due); ``due`` gets the fires due just before the first three."""
    ledger = rig.node.mcu.ledger
    reads: List[Any] = []

    def read(what: str) -> None:
        reads.append((what, rig.sim.now, list(ledger._live_ticks().items()),
                      ledger.transitions, ledger.state, ledger.tag))

    def read_inside(what: str) -> None:
        due.append(_due(rig))
        read(what)

    period, wake, task = rig.PERIOD, rig.wake, rig.task
    rig.sim.at(rig.FIRE + 6 * period + wake // 2,
               lambda: read_inside("wake-up"))
    rig.sim.at(rig.FIRE + 13 * period + wake + task // 2,
               lambda: read_inside("task"))

    def reset() -> None:
        due.append(_due(rig))
        rig.node.reset_measurement()
        read("reset")

    rig.sim.at(rig.FIRE + 21 * period + wake // 3, reset)
    rig.sim.run_until(rig.FIRE + 30 * period + wake + task // 3)
    read("horizon")
    return reads


def test_fires_booked_in_bulk_read_as_booked_at_their_ticks(monkeypatch):
    """Each read finds several fires due and books them then, one by
    one, at their ticks (the rig records the MCU timeline, an observer,
    so no fire is counted).  Every read sees the same per-(state, tag)
    ticks in the same key order, transitions, state and tag as the
    per-task chain, which fires a kernel timer at every tick, and as a
    ledger that books every due plan at each state read."""
    bulk = _Rig(per_sample=False)
    bulk_due: List[int] = []
    bulk_reads = _ledger_reads(bulk, bulk_due)
    reference = _Rig(per_sample=True)
    reference_reads = _ledger_reads(reference, [])
    monkeypatch.setattr(PowerStateLedger, "state", property(_eager_state))
    eager = _Rig(per_sample=False)
    eager_due: List[int] = []
    eager_reads = _ledger_reads(eager, eager_due)
    assert bulk_reads == eager_reads == reference_reads
    assert bulk.timeline == eager.timeline == reference.timeline
    assert bulk.outcome() == eager.outcome() == reference.outcome()
    # Each read found several fires due and booked them at once.
    assert bulk_due == eager_due
    assert min(bulk_due) >= 6


# ----------------------------------------------------------------------
# Fires counted in closed form: with no observer on the MCU ledger, the
# idle fires that ended before an entry point are counted, not planned
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch: pytest.MonkeyPatch) -> List[int]:
    """The size of every stretch of fires the MCU books in closed
    form, in booking order."""
    counts: List[int] = []
    count_idle_tasks = Msp430.count_idle_tasks

    def recording(mcu: Msp430, cycles: int, count: int) -> bool:
        booked = count_idle_tasks(mcu, cycles, count)
        if booked:
            counts.append(count)
        return booked

    monkeypatch.setattr(Msp430, "count_idle_tasks", recording)
    return counts


def _read_ledger_at(rig: _Rig, time: int) -> None:
    """Log the MCU ledger's live ticks in key order, transitions, state
    and tag, read at ``time``."""
    ledger = rig.node.mcu.ledger

    def read() -> None:
        rig.log.append(("ledger", rig.sim.now,
                        list(ledger._live_ticks().items()),
                        ledger.transitions, ledger.state, ledger.tag))

    rig.sim.at(time, read)


def _mid_period(k: int) -> int:
    """Halfway between the ``k``-th fire after the first and the next."""
    return _Rig.FIRE + k * _Rig.PERIOD + _Rig.PERIOD // 2


def test_fires_counted_in_closed_form_read_as_booked_at_their_ticks(
        counted):
    """The reads of the bulk-booking test, with no probe on the ledger:
    the first read books the seven fires due one by one (the ledger
    holds none of the MCU's keys yet), and it puts them in the table;
    the read inside a task and the reset then count the fires that
    ended before them.  Every read equals the per-task chain's."""
    coalesced = _Rig(per_sample=False, probe=False)
    coalesced_reads = _ledger_reads(coalesced, [])
    reference = _Rig(per_sample=True, probe=False)
    assert coalesced_reads == _ledger_reads(reference, [])
    assert coalesced.outcome() == reference.outcome()
    assert counted == [6, 7]


@pytest.mark.parametrize("phase", ["wake", "task"])
def test_a_read_and_a_post_inside_the_last_fire_of_a_stretch(phase,
                                                             counted):
    """A ledger read and a MAC post land in the wake-up or the task of
    the sixth fire: the four fires before it, ended, are counted, and
    the sixth is booked with its plans, so the post waits for its
    end."""
    def script(rig: _Rig) -> None:
        _read_ledger_at(rig, _mid_period(0))  # the keys enter the table
        at = rig.FIRE + 5 * rig.PERIOD + (
            rig.wake // 2 if phase == "wake" else rig.wake + rig.task // 2)
        _read_ledger_at(rig, at)
        rig.post_at(at, PREP)

    coalesced, _ = _both(script, until=milliseconds(45), probe=False)
    assert counted == [4, 2]  # then the two that end before the horizon
    assert ("mac", _Rig.FIRE + 5 * _Rig.PERIOD + coalesced.wake
            + coalesced.task) in coalesced.log


def test_a_fire_ending_at_the_entry_tick_is_booked_one_by_one(counted):
    """A post lands at exactly the fifth fire's end tick: the three
    fires before it are counted, but the fifth, whose task ends at the
    post's tick, is booked with its planned sleep, so the post raises
    as at a single sample's end."""
    reference = _Rig(per_sample=True, probe=False)
    end = reference.FIRE + 4 * reference.PERIOD + reference.wake \
        + reference.task
    reference.post_at(end, PREP)
    reference.sim.run_until(milliseconds(30))
    coalesced = _Rig(per_sample=False, probe=False)
    _read_ledger_at(coalesced, _mid_period(0))
    coalesced.post_at(end, PREP)
    with pytest.raises(SimulationError, match=f"node1.*{end}, the end tick"):
        coalesced.sim.run_until(milliseconds(30))
    assert counted == [3]


def test_a_reset_right_after_a_counted_stretch(counted):
    """The measurement reset lands one tick after the seventh fire's
    end, so its entry counts the six fires since the first read and
    then discards them with the rest of the warm-up."""
    def script(rig: _Rig) -> None:
        _read_ledger_at(rig, _mid_period(0))
        rig.sim.at(rig.FIRE + 6 * rig.PERIOD + rig.wake + rig.task + 1,
                   rig.node.reset_measurement)
        _read_ledger_at(rig, _mid_period(8))

    _both(script, until=milliseconds(60), probe=False)
    assert counted == [6, 2]  # then the two since the read after it


def test_counters_read_mid_run_include_the_counted_fires(counted):
    """Between two fires, the scheduler's run tasks (an entry point),
    then the MCU's wake-ups and executed cycles and the app's samples
    count every fire so far, as the per-task chain's do."""
    def script(rig: _Rig) -> None:
        def read() -> None:
            mcu = rig.node.mcu
            rig.log.append(("counters", rig.sim.now,
                            rig.node.scheduler.tasks_run, mcu.wakeups,
                            mcu.cycles_executed, rig.app.samples_taken))

        _read_ledger_at(rig, _mid_period(0))
        rig.sim.at(_mid_period(5), read)

    coalesced, _ = _both(script, until=milliseconds(45), probe=False)
    assert counted == [5, 2]
    assert ("counters", _mid_period(5), 6, 6,
            6 * DEFAULT_CALIBRATION.mcu_costs.sample_acquisition,
            6) in coalesced.log


def test_the_first_read_after_a_reset_pins_the_key_order(counted):
    """A reset inside the first sample's task leaves the MCU active,
    so the per-task chain books its keys as task, sleep, wake-up.  The
    fires after the reset are booked one by one until their keys are
    in the table, so the first read sees that order; the next read
    counts the fires since."""
    def script(rig: _Rig) -> None:
        rig.sim.at(rig.FIRE + rig.wake + rig.task // 2,
                   rig.node.reset_measurement)
        _read_ledger_at(rig, _mid_period(5))
        _read_ledger_at(rig, _mid_period(10))

    coalesced, _ = _both(script, until=milliseconds(60), probe=False)
    assert counted == [5]
    first = next(entry for entry in coalesced.log if entry[0] == "ledger")
    assert [key for key, _ in first[2]] == [
        ("active", "task"), ("sleep", "sleep"), ("active", "wakeup")]


def test_collectors_hold_at_most_the_cap(monkeypatch):
    most: Dict[str, int] = {}
    plan = PowerStateLedger.plan

    def recording(ledger: PowerStateLedger, *changes: Any) -> None:
        plan(ledger, *changes)
        most[ledger.component] = max(most.get(ledger.component, 0),
                                     len(ledger._plans))

    monkeypatch.setattr(PowerStateLedger, "plan", recording)
    ward = _ward(per_sample=False)
    ward.run()
    collectors = [ban.base_station.mcu.ledger.component
                  for ban in ward.bans if ban.config.mac in ("aloha", "csma")]
    assert max(most.values()) <= MAX_PENDING_PLANS
    # Nothing reads a contention collector's MCU ledger before the
    # horizon, so each fills to the cap.
    assert all(most[name] > MAX_PENDING_PLANS - 3 for name in collectors)


# ----------------------------------------------------------------------
# Rpeak blocks: the detectors run over whole columns
# ----------------------------------------------------------------------
def _rpeak_rig(per_sample: bool) -> Tuple[Simulator, RpeakApp, List[Any]]:
    """One Rpeak node whose two channels see the same ECG, so both
    detectors confirm every beat at the same sample.  A stub MAC reads
    a payload every 1.5 s, so a block holds several beats per
    channel."""
    sim = Simulator(seed=1, trace=(TraceRecorder(capacity=1)
                                   if per_sample else None))
    node = SensorNode(sim, Channel(sim), DEFAULT_CALIBRATION, "node1")
    source = ScaledSource(SyntheticEcg(heart_rate_bpm=90.0), gain=0.8,
                          offset=1.25)
    for channel in (0, 1):
        node.asic.connect_source(channel, source)
    mac = _MacStub(sim, "node1.mac")
    node.install_mac(mac)
    app = RpeakApp(sim, node.scheduler, node.asic, node.adc, mac,
                   DEFAULT_CALIBRATION, channels=(0, 1), name="node1.rpeak")
    node.install_app(app)
    payloads: List[Any] = []
    for cycle in range(1, 4):
        sim.at(milliseconds(1500 * cycle + 2.5),
               lambda: payloads.append(mac.payload_provider()))
    app.start()
    sim.run_until(seconds(5.0))
    return sim, app, payloads


def test_beats_on_two_channels_at_one_sample_report_in_channel_order():
    coalesced, reference = _rpeak_rig(False), _rpeak_rig(True)
    reports = [payload[1] for payload in coalesced[2] if payload is not None]
    reports += list(coalesced[1]._pending)
    assert reports == [payload[1] for payload in reference[2]
                       if payload is not None] \
        + list(reference[1]._pending)
    assert coalesced[1].beats_detected == reference[1].beats_detected > 4
    assert coalesced[0].events_dispatched < reference[0].events_dispatched
    by_time: Dict[float, List[Tuple[int, int]]] = {}
    for report in reports:
        by_time.setdefault(report["detected_at_s"], []).append(
            (report["beat_id"], report["channel"]))
    assert len(by_time) > 2
    assert all(sorted(pairs) == [(pairs[0][0], 0), (pairs[0][0] + 1, 1)]
               for pairs in by_time.values())
