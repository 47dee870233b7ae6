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
body, run later, only records the acquisition tick.  Where the
scheduler coalesces, the fires are no kernel events either: the app
hands its grid to the scheduler
(:meth:`~repro.tinyos.scheduler.TaskScheduler.start_grid`), which
books every fire that has come due at its next entry point, a fire
that finds the MCU busy too, with the same recording body, and hands
the idle fires that have already ended to a block body that records
all their ticks at once; a trace or a deep-sleep policy keeps the
timer.  The recorded
ticks are evaluated as one block at the first point that can observe
them (:meth:`SamplingApplication.flush_samples`): the MAC's payload
read, a per-task sample of the timer, a simulator end hook, or the
node's measurement reset.  A block reads each channel once
(:meth:`~repro.hw.asic.BiopotentialAsic.read_block`,
:meth:`~repro.hw.adc.Adc12.convert_block`) and hands the sample
columns to :meth:`SamplingApplication.handle_block`, whose default
hands each sample vector to :meth:`SamplingApplication.handle_samples`
in tick order, stamped with its tick
(:attr:`SamplingApplication.sample_tick`), with the values the
per-sample reads would have given bit for bit.  An app may override
:meth:`~SamplingApplication.handle_block` to consume a block at once
(the Rpeak app does); :meth:`~SamplingApplication.handle_samples`
stays the per-task reference path it must match.  An app whose values
nothing reads during the run may instead override
:meth:`~SamplingApplication.flush_samples` to count the block's reads
and conversions and compute the values when they are first read (the
ECG streaming app does, see :mod:`repro.apps.ecg_streaming`).
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

    def handle_block(self, ticks: Sequence[int],
                     columns: Sequence[Sequence[int]]) -> None:
        """Consume a block of coalesced samples.

        ``ticks`` are the acquisition ticks, ascending; ``columns``
        holds one column of ADC codes per channel, in channel order.
        The default hands each sample vector to :meth:`handle_samples`
        in tick order, stamped with its tick; an override must leave
        what that loop would leave.
        """
        handle_samples = self.handle_samples
        for tick, codes in zip(ticks, zip(*columns)):
            self.sample_tick = tick
            handle_samples(codes)

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
        period = self.sample_period_ticks
        if not self._scheduler.start_grid(
                self._sim.now + period, period, self._tick_cost,
                self._defer, self._defer_block, self._label_sample):
            self._timer.start_periodic(period)

    @property
    def samples_taken(self) -> int:
        """Sample vectors acquired so far (one per timer fire)."""
        return self._samples_taken

    @property
    def sample_period_ticks(self) -> int:
        """The sampling period in ticks."""
        return round(TICKS_PER_SECOND / self.sampling_hz)

    def next_wake_hint(self) -> Optional[int]:
        """Absolute time of the next sampling tick (power-policy hint).

        None while the scheduler holds the grid: a deep-sleep policy,
        the hint's reader, keeps the kernel timer."""
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

    def _defer_block(self, ticks: range) -> None:
        """Body of counted coalesced samples: :meth:`_defer` at each of
        ``ticks``, ascending."""
        spans = self.spans
        if spans is not None:
            for tick in ticks:
                spans.note_sample(self.spans_node, tick, self._tick_cost)
        self._samples_taken += len(ticks)
        self._deferred_ticks.extend(ticks)

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
        :meth:`handle_block` once.  Called wherever the samples could
        be observed: the payload read, a per-task sample, the
        simulator's end hooks and the node's measurement reset.  An
        override must count what this counts
        (:meth:`~repro.hw.asic.BiopotentialAsic.count_reads`,
        :meth:`~repro.hw.adc.Adc12.count_conversions`) and leave what
        :meth:`handle_block` would leave, up to values it computes
        when they are first read.
        """
        ticks = self._deferred_ticks
        if not ticks:
            return
        self._deferred_ticks = []
        read_block = self._asic.read_block
        convert_block = self._adc.convert_block
        self.handle_block(ticks, [convert_block(read_block(c, ticks))
                                  for c in self.channels])

    def _provide_payload(self) -> Optional[AppPayload]:
        # The MAC reads what the samples taken so far left behind.
        self._scheduler.settle()
        self.flush_samples()
        payload = self.next_payload()
        if payload is not None and self.spans is not None:
            self.spans.payload_read(self.spans_node, self._sim.now)
        return payload


__all__ = ["SamplingApplication"]
