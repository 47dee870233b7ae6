"""Application base class: periodic multi-channel sampling.

Both case-study applications (Section 5) share the same skeleton: a
TinyOS timer fires at the sampling frequency, a task acquires one ADC
sample per monitored channel, and the application decides what (if
anything) to hand the MAC at its next slot.  The skeleton lives here;
subclasses implement :meth:`handle_samples` (what to do with a sample
vector) and :meth:`next_payload` (what to transmit).

MCU cost: each timer fire posts one task costing
``channels * sample_acquisition`` cycles plus whatever
:meth:`extra_cycles_per_channel` adds (the Rpeak detector's algorithm
cost) — exactly the calibrated per-sample decomposition.

A fire that finds the MCU idle books that task through
:meth:`~repro.tinyos.scheduler.TaskScheduler.run_idle` instead: its
body, run later, only records the acquisition tick.  The recorded
ticks are evaluated as one block at the first point that can observe
them (:meth:`SamplingApplication.flush_samples`): the MAC's payload
read, the next per-task sample, a simulator end hook, or the node's
measurement reset.  A block reads each channel once
(:meth:`~repro.hw.asic.BiopotentialAsic.read_block`,
:meth:`~repro.hw.adc.Adc12.convert_block`) and hands the sample
vectors to :meth:`SamplingApplication.handle_samples` in tick order,
each stamped with its tick (:attr:`SamplingApplication.sample_tick`),
with the values the per-sample reads would have given bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.calibration import ModelCalibration
from ..hw.adc import Adc12
from ..hw.asic import BiopotentialAsic
from ..mac.base import AppPayload, NodeMac
from ..sim.kernel import Simulator
from ..sim.simtime import TICKS_PER_SECOND
from ..sim.trace import TraceRecorder
from ..tinyos.components import Component
from ..tinyos.scheduler import TaskScheduler
from ..tinyos.timers import VirtualTimer

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer


class SamplingApplication(Component):
    """Periodic ADC sampling over a set of ASIC channels.

    Args:
        sim: simulation kernel.
        scheduler: the node's TinyOS scheduler (MCU cost sink).
        asic: the sensing front-end.
        adc: the MCU's ADC.
        mac: the node's MAC; the app registers as its payload provider.
        calibration: model constants.
        channels: ASIC channel indices to sample each period.
        sampling_hz: per-channel sampling frequency.
    """

    def __init__(self, sim: Simulator, scheduler: TaskScheduler,
                 asic: BiopotentialAsic, adc: Adc12, mac: NodeMac,
                 calibration: ModelCalibration,
                 channels: Sequence[int], sampling_hz: float,
                 name: str = "app",
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name, trace)
        if not channels:
            raise ValueError(f"{name}: need at least one channel")
        if sampling_hz <= 0:
            raise ValueError(
                f"{name}: sampling rate must be positive: {sampling_hz}")
        self._scheduler = scheduler
        self._asic = asic
        self._adc = adc
        self._mac = mac
        self._cal = calibration
        self.channels = tuple(channels)
        self.sampling_hz = sampling_hz
        self._timer = VirtualTimer(sim, self._sample_tick,
                                   name=f"{name}.sample_timer")
        self._samples_taken = 0
        #: Acquisition tick of the sample vector being handled; read it,
        #: not ``sim.now``, in :meth:`handle_samples`.
        self.sample_tick = 0
        #: Acquisition ticks of coalesced samples not yet evaluated.
        self._deferred_ticks: List[int] = []
        self._label_sample = f"{name}.sample"
        # Per-tick task cost: channel count and calibration are fixed, so
        # the timer handler books a precomputed constant.
        self._tick_cost = len(self.channels) * (
            calibration.mcu_costs.sample_acquisition
            + self.extra_cycles_per_channel())
        #: Optional causal-span tracer (:mod:`repro.obs.spans`), with
        #: the owning node's id (set by SensorNode.attach_spans).
        self.spans: Optional["SpanTracer"] = None
        self.spans_node: str = ""
        mac.payload_provider = self._provide_payload
        sim.add_end_hook(self.flush_samples)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def handle_samples(self, codes: Tuple[int, ...]) -> None:
        """Consume one sample vector (one ADC code per channel), taken
        at :attr:`sample_tick`."""
        raise NotImplementedError

    def next_payload(self) -> Optional[AppPayload]:
        """What the MAC should transmit in the upcoming slot, if anything."""
        raise NotImplementedError

    def extra_cycles_per_channel(self) -> int:
        """Additional per-channel-sample MCU cost (e.g. beat detection)."""
        return 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        period = round(TICKS_PER_SECOND / self.sampling_hz)
        self._timer.start_periodic(period)

    def on_stop(self) -> None:
        self._timer.stop()

    @property
    def samples_taken(self) -> int:
        """Sample vectors acquired so far (one per timer fire)."""
        return self._samples_taken

    @property
    def sample_period_ticks(self) -> int:
        """The sampling period in ticks."""
        return round(TICKS_PER_SECOND / self.sampling_hz)

    def next_wake_hint(self) -> Optional[int]:
        """Absolute time of the next sampling tick (power-policy hint)."""
        return self._timer.next_fire_ticks

    # ------------------------------------------------------------------
    # Sampling machinery
    # ------------------------------------------------------------------
    def _sample_tick(self) -> None:
        if not self._scheduler.run_idle(self._defer, self._tick_cost):
            self._scheduler.post(self._acquire, self._tick_cost,
                                 label=self._label_sample)

    def _defer(self, tick: int) -> None:
        """Body of a coalesced sample: record the tick, read nothing."""
        if self.spans is not None:
            self.spans.note_sample(self.spans_node, tick, self._tick_cost)
        self._samples_taken += 1
        self._deferred_ticks.append(tick)

    def _acquire(self) -> None:
        """Body of a per-task sample: the scalar reference path."""
        if self._deferred_ticks:
            self.flush_samples()  # earlier samples go first
        tick = self._sim.now
        if self.spans is not None:
            self.spans.note_sample(self.spans_node, tick, self._tick_cost)
        read_channel = self._asic.read_channel
        convert = self._adc.convert
        codes = tuple([convert(read_channel(c, tick))
                       for c in self.channels])
        self._samples_taken += 1
        self.sample_tick = tick
        self.handle_samples(codes)

    def flush_samples(self) -> None:
        """Evaluate the recorded coalesced samples as one block.

        One :meth:`~repro.hw.asic.BiopotentialAsic.read_block` and one
        :meth:`~repro.hw.adc.Adc12.convert_block` per channel, then
        :meth:`handle_samples` once per sample in tick order.  Called
        wherever the samples could be observed: the payload read, a
        per-task sample, the simulator's end hooks and the node's
        measurement reset.
        """
        ticks = self._deferred_ticks
        if not ticks:
            return
        self._deferred_ticks = []
        read_block = self._asic.read_block
        convert_block = self._adc.convert_block
        columns = [convert_block(read_block(c, ticks))
                   for c in self.channels]
        handle_samples = self.handle_samples
        for tick, codes in zip(ticks, zip(*columns)):
            self.sample_tick = tick
            handle_samples(codes)

    def _provide_payload(self) -> Optional[AppPayload]:
        # The MAC reads what the samples taken so far left behind.
        self._scheduler.settle()
        self.flush_samples()
        return self.next_payload()


__all__ = ["SamplingApplication"]
