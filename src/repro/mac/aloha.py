"""Unslotted ALOHA: the contention baseline TDMA is measured against.

The paper chooses TDMA for the BAN without quantifying the
alternative.  This module supplies it: the simplest possible MAC for
unidirectional node→base-station data.

* **Nodes never listen.**  There are no beacons and no
  synchronisation; a node polls its application every
  ``poll_interval`` and, when a payload exists, transmits it at a
  uniformly random instant inside the next poll window.  Radio energy
  is therefore *TX events only* — the guard windows that dominate the
  TDMA budget vanish entirely.
* **The base station listens continuously** (it does under TDMA too).
* **Nothing prevents collisions.**  Two nodes' transmissions overlap
  with probability ~ N·airtime/interval per frame; collided frames are
  CRC-discarded at the base station, and with no acknowledgements
  (ShockBurst has none) the loss is silent.

The resulting trade — ALOHA beats TDMA on node energy by an order of
magnitude but cannot bound its delivery ratio, and the gap widens with
offered load — is ablation A9 (`bench_ablation_aloha.py`).  It also
isolates how much of the TDMA energy is *coordination overhead*:
everything except the bare TX events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..core.calibration import ModelCalibration
from ..hw.frames import Frame, FrameKind
from ..hw.radio import Nrf2401, TxOutcome
from ..sim.kernel import Simulator
from ..sim.simtime import milliseconds
from ..sim.trace import TraceRecorder
from ..tinyos.components import Component
from ..tinyos.scheduler import TaskScheduler
from .base import AppPayload, MacCounters
from .messages import make_data
from .recovery import RecoveryConfig

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..obs.spans import SpanTracer


@dataclass(frozen=True)
class AlohaConfig:
    """Parameters of the ALOHA baseline.

    Attributes:
        poll_interval_ticks: how often a node offers its application a
            transmission opportunity (compare to the TDMA cycle).
        base_station: the collector's address.
        start_jitter: whether the first poll is randomised per node
            (decorrelates identically configured nodes).
    """

    poll_interval_ticks: int = milliseconds(30)
    base_station: str = "base_station"
    start_jitter: bool = True

    def __post_init__(self) -> None:
        if self.poll_interval_ticks <= 0:
            raise ValueError(
                f"poll interval must be positive: "
                f"{self.poll_interval_ticks}")


class AlohaNodeMac(Component):
    """Node side: poll the application, transmit at random instants.

    The poll loop is shared with CSMA/CA
    (:class:`~repro.mac.csma.CsmaNodeMac`), which overrides only the two
    hooks that decide what a poll does with a frame: :meth:`_offer`
    (ALOHA: wait a random offset inside the window) and
    :meth:`_transmit` (ALOHA: send as soon as the packet is prepared).

    Args:
        sim: simulation kernel.
        radio: this node's transceiver.
        scheduler: this node's TinyOS task scheduler (MCU cost sink).
        calibration: model constants.
        config: poll-loop parameters.
        recovery: opt-in recovery policy; only CSMA's backoff-cap
            widening reads it (plain ALOHA has nothing to recover).
    """

    #: RNG stream of the first poll's jitter (``<address>.aloha_start``).
    _start_stream = "aloha_start"

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: AlohaConfig,
                 recovery: Optional[RecoveryConfig] = None,
                 name: Optional[str] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name or f"{radio.address}.mac", trace)
        self._radio = radio
        self._scheduler = scheduler
        self._cal = calibration
        self.config = config
        self.recovery = recovery
        self.counters = MacCounters()
        #: Application hook, identical contract to the TDMA MACs.
        self.payload_provider: Optional[Callable[[], Optional[AppPayload]]] \
            = None
        #: Optional causal-span tracer (:mod:`repro.obs.spans`).
        self.spans: Optional["SpanTracer"] = None
        #: A frame still in contention from an earlier poll; polls skip
        #: while one is held (plain ALOHA never holds one).
        self._pending: Optional[Frame] = None
        #: Consecutive busy CCAs (CSMA's recovery signal).
        self._busy_streak = 0
        self._label_poll = f"{self.name}.poll"
        self._label_prep = f"{self.name}.pkt_prep"

    # The scenario runner aligns measurement windows via these two
    # attributes on any base MAC; nodes expose the poll interval for
    # symmetry/diagnostics.
    @property
    def poll_interval_ticks(self) -> int:
        """The node's transmission-opportunity period."""
        return self.config.poll_interval_ticks

    def on_start(self) -> None:
        # A (re)boot starts clean: nothing in contention, no busy streak.
        self._pending = None
        self._busy_streak = 0
        self._radio.power_up()
        interval = self.config.poll_interval_ticks
        if self.config.start_jitter:
            first = self._sim.rng.uniform_ticks(
                f"{self._radio.address}.{self._start_stream}",
                0, interval - 1)
        else:
            first = 0
        self.after(first, self._poll, label=self._label_poll)

    def on_stop(self) -> None:
        self._radio.release()

    def _poll(self) -> None:
        self.after(self.config.poll_interval_ticks, self._poll,
                   label=self._label_poll)
        if self._pending is not None or self.payload_provider is None:
            return
        payload = self.payload_provider()
        if payload is None:
            return
        payload_bytes, content = payload
        self._offer(make_data(self._radio.address, self.config.base_station,
                              payload_bytes, content))

    def _offer(self, frame: Frame) -> None:
        """Hook: place a polled frame at a random instant of the window."""
        interval = self.config.poll_interval_ticks
        tx_event = self._radio.tx_event_ticks(frame)
        if tx_event > interval:
            # The ShockBurst event would not fit inside one poll window:
            # any offset makes the airtime spill into the next window
            # and collide with this node's own next transmission.  Skip
            # the frame deterministically (no RNG draw) and count it.
            self.counters.oversize_skipped += 1
            if self._trace is not None:
                self._trace.record(self._sim.now, self.name,
                                   "oversize_skip", frame.describe())
            return
        offset = self._sim.rng.uniform_ticks(
            f"{self._radio.address}.aloha_tx", 0, interval - tx_event)
        if self.spans is not None:
            self.spans.note_wait(self._radio.address, "mac.tx_jitter",
                                 self._sim.now, self._sim.now + offset)
        self.after(offset, lambda: self._queue_tx(frame),
                   label=f"{self.name}.tx_at")

    def _queue_tx(self, frame: Frame) -> None:
        if self.spans is not None:
            self.spans.packet_queued(frame, self._sim.now, self._label_prep)
        self._scheduler.post(lambda: self._transmit(frame),
                             self._cal.mcu_costs.packet_preparation,
                             label=self._label_prep)

    def _transmit(self, frame: Frame) -> None:
        """Hook: the prepared frame's next step (ALOHA: send it now)."""
        self._radio.send(frame, self._tx_done)

    def _tx_done(self, outcome: TxOutcome) -> None:
        self.counters.data_sent += 1
        self._pending = None

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the node's MAC counters and poll period.

        The contention MACs have no beacons or slots, so only the
        shared counters and the transmission-opportunity period apply.
        Read-only: call once per collected run.
        """
        self.counters.observe_metrics(registry, node)
        registry.gauge("mac", node, "poll_interval_ticks").set(
            float(self.config.poll_interval_ticks))


class AlohaBaseMac(Component):
    """Base-station side: a permanently listening collector."""

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: AlohaConfig,
                 name: Optional[str] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name or f"{radio.address}.mac", trace)
        self._radio = radio
        self._scheduler = scheduler
        self._cal = calibration
        self.config = config
        self.counters = MacCounters()
        #: Upward hook, identical contract to the TDMA base MACs.
        self.data_sink: Optional[Callable[[Frame], None]] = None
        #: Scenario-alignment attributes (no beacons: the "cycle" is the
        #: poll interval and the grid starts at t=0).
        self.next_beacon_ticks = 0
        radio.on_frame = self._on_frame

    def current_cycle_ticks(self) -> int:
        """Alignment period for the scenario runner (poll interval)."""
        return self.config.poll_interval_ticks

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the collector's MAC counters (no schedule to report)."""
        self.counters.observe_metrics(registry, node)

    def on_start(self) -> None:
        self._radio.power_up()
        self._radio.start_rx()

    def on_stop(self) -> None:
        # Release the radio, not just the RX state: a collector left in
        # stand-by after its window keeps booking 0.9 mA forever.
        self._radio.release()

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind is not FrameKind.DATA:
            self.counters.software_discards += 1
            self._scheduler.post_cost_only(
                self._cal.mcu_costs.packet_reception,
                label=f"{self.name}.sw_discard")
            return
        self.counters.data_received += 1
        self._scheduler.post_cost_only(
            self._cal.mcu_costs.packet_reception,
            label=f"{self.name}.data_rx")
        if self.data_sink is not None:
            self.data_sink(frame)


__all__ = ["AlohaConfig", "AlohaNodeMac", "AlohaBaseMac"]
