"""Nordic nRF2401 radio model.

The nRF2401 features the paper relies on (Sections 3.1 and 4.2):

* **ShockBurst**: the MCU clocks the payload into an on-chip FIFO over
  SPI at a low rate (radio in stand-by, negligible current) and the chip
  then bursts the frame at the full air rate.  A transmission therefore
  costs a fixed radio-on event: PLL settle + frame airtime + shutdown
  tail, all at the TX current.
* **Hardware CRC**: corrupted frames (collisions, channel errors) are
  detected and dropped *inside the radio*; the MCU is never woken.
* **Hardware address filter**: frames addressed to another node are
  likewise dropped in the radio; the RX energy is still spent
  (overhearing), but the MCU stays asleep.
* **Clear-channel assessment**: contention MACs (CSMA/CA) dwell the
  receive chain for a short sensing window (:meth:`Nrf2401.cca`)
  without decoding frames; the window costs RX current and reports
  whether any transmission overlapped it.

The channel tells a radio about a frame only if its chain is on
(receiving or sensing) at the frame's first bit, or its receive chain
comes on at that same tick: a radio that is off never hears of frames
it could not capture.

Both hardware filters can be disabled for ablation studies
(:attr:`Nrf2401.crc_enabled`, :attr:`Nrf2401.address_filter_enabled`);
disabling the CRC reproduces stock TOSSIM's optimistic behaviour where
collided packets are still "received".

Energy is booked by the power-state ledger (states ``tx`` / ``rx`` /
``standby`` / ``power_down``); in parallel, every joule of TX/RX-state
energy is attributed to a :class:`~repro.core.losses.RadioEnergyCategory`
via the node's :class:`~repro.core.losses.LossAccountant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from ..core.calibration import ModelCalibration
from ..core.ledger import PowerStateLedger
from ..core.losses import LossAccountant, RadioEnergyCategory
from ..core.states import PowerState, PowerStateTable
from ..sim.kernel import Simulator
from ..sim.simtime import seconds, to_seconds
from ..sim.trace import TraceRecorder
from .frames import Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..core.report import TrafficCounters
    from ..obs.metrics import MetricsRegistry
    from ..obs.spans import SpanTracer
    from ..phy.channel import Channel, Transmission

#: Radio power-state names.
POWER_DOWN = "power_down"
STANDBY = "standby"
TX = "tx"
RX = "rx"
CCA = "cca"


@dataclass
class TxOutcome:
    """What happened to a transmitted frame.

    ``corrupted_at`` lists the addresses of in-range receivers where the
    frame arrived corrupted (collision or channel error).  ``delivered_to``
    lists receivers whose radio accepted it (CRC and address filter
    passed and the receiver was listening for the whole airtime).
    """

    frame: Frame
    corrupted_at: list = field(default_factory=list)
    delivered_to: list = field(default_factory=list)

    @property
    def reached_destination(self) -> bool:
        """True if a unicast frame was accepted by its destination."""
        return self.frame.dest in self.delivered_to


class RadioError(RuntimeError):
    """Illegal radio operation (e.g. TX while already transmitting)."""


class Nrf2401:
    """State-machine model of the nRF2401 transceiver.

    Args:
        sim: simulation kernel.
        calibration: electrical/timing constants.
        channel: the shared medium this radio is attached to.
        address: this radio's hardware address (the node id).
        accountant: loss-taxonomy accountant energy is attributed to.
        name: instance name for traces.
    """

    def __init__(self, sim: Simulator, calibration: ModelCalibration,
                 channel: "Channel", address: str,
                 accountant: Optional[LossAccountant] = None,
                 name: str = "radio",
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self._cal = calibration
        self._channel = channel
        self.address = address
        self.name = name
        self._trace = trace
        self.accountant = accountant if accountant is not None \
            else LossAccountant()
        table = PowerStateTable([
            PowerState(POWER_DOWN, calibration.radio_power_down_a),
            PowerState(STANDBY, calibration.radio_standby_a),
            PowerState(TX, calibration.radio_tx_a),
            PowerState(RX, calibration.radio_rx_a),
            # Carrier sensing keeps the receive chain on: RX current.
            PowerState(CCA, calibration.radio_rx_a),
        ])
        self.ledger = PowerStateLedger(
            sim, name, table, calibration.supply_v,
            initial_state=POWER_DOWN)
        #: Called with (frame,) when a frame passes the hardware filters.
        self.on_frame: Optional[Callable[[Frame], None]] = None
        #: Hardware CRC check (ablation: False = stock-TOSSIM optimism).
        self.crc_enabled = True
        #: Hardware destination-address filter (ablation switch).
        self.address_filter_enabled = True
        self._rf_channel = 0
        #: Fault injection (:mod:`repro.faults`): while True, the
        #: receive chain is locked up — every captured frame is lost
        #: inside the radio exactly like a CRC failure (RX energy
        #: spent, MCU never woken).
        self.fault_rx_deaf = False
        #: Fault injection: CRC-fail the next N captured beacons.
        self.fault_drop_beacons = 0
        #: Frames lost to the two injected receive-path faults above.
        self.fault_frames_dropped = 0
        #: Optional causal-span tracer (:mod:`repro.obs.spans`); hooks
        #: are plain calls, so None costs one attribute test.
        self.spans: Optional["SpanTracer"] = None

        self._rx_since: Optional[int] = None
        self._tx_busy = False
        # when_idle() callbacks waiting for the ShockBurst in flight.
        self._idle_waiters: List[Callable[[], None]] = []
        # Frames whose airtime this radio is actively capturing (RX on
        # since before first bit).  A fault-driven power_down() moves
        # them to _fault_cut with the cut tick, so frame_arrival_end
        # can report an explicit fault_dropped outcome instead of a
        # silent non-capture.
        self._capturing: Set[int] = set()
        # Captures abandoned by a software mode switch (stop_rx/send),
        # keyed by frame id -> abandon tick.  Normally these drain
        # silently at frame_arrival_end; if the radio powers down
        # before that, the teardown was a crash (release) and they are
        # promoted to fault cuts at their abandon tick.
        self._rx_abandoned: Dict[int, int] = {}
        self._fault_cut: Dict[int, int] = {}
        # Carrier-sense window bookkeeping: _cca_busy latches a carrier
        # on the air at the window's start or first reaching it during
        # the window.
        self._cca_since: Optional[int] = None
        self._cca_busy = False
        self._cca_on_result: Optional[Callable[[bool], None]] = None

        # Hot-path precomputation: the ShockBurst chain schedules three
        # callbacks per frame and the timing constants never change, so
        # labels and tick conversions are formed once here.  The
        # airtime/energy memos are keyed by payload size (a handful of
        # distinct values per scenario); the cached products repeat the
        # exact left-associated expressions of the uncached code, so
        # every booked energy stays bit-identical.
        timing = calibration.radio_timing
        self._label_txair = f"{name}.txair"
        self._label_txtail = f"{name}.txtail"
        self._label_txdone = f"{name}.txdone"
        self._label_rxtail = f"{name}.rxtail"
        self._label_ccadone = f"{name}.ccadone"
        self._tx_settle_ticks = seconds(timing.tx_settle_s)
        self._tx_tail_ticks = seconds(timing.tx_tail_s)
        self._rx_tail_ticks = seconds(timing.rx_tail_s)
        self._airtime_memo: Dict[int, int] = {}
        self._tx_event_memo: Dict[int, int] = {}
        self._tx_energy_memo: Dict[int, float] = {}
        self._rx_energy_memo: Dict[int, float] = {}
        self._cca_energy_memo: Dict[int, float] = {}

        # Traffic counters (read via snapshot_counters()).
        self._count_data_tx = 0
        self._count_data_rx = 0
        self._count_control_tx = 0
        self._count_control_rx = 0
        self._count_overheard = 0
        self._count_corrupted = 0

        channel.attach(self)

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current power-state name."""
        return self.ledger.state

    @property
    def rf_channel(self) -> int:
        """RF channel index (the nRF2401 tunes 2400-2524 MHz in 1 MHz
        steps).  Radios only hear transmissions on their own channel;
        multi-BAN deployments separate networks with it."""
        return self._rf_channel

    @rf_channel.setter
    def rf_channel(self, value: int) -> None:
        self._rf_channel = value
        self._channel.retuned()

    @property
    def is_receiving(self) -> bool:
        """Whether the receive chain is on."""
        return self.ledger.state == RX

    @property
    def is_transmitting(self) -> bool:
        """Whether a ShockBurst event is in flight (power-down would be
        illegal right now)."""
        return self._tx_busy

    def power_up(self) -> None:
        """POWER_DOWN -> STANDBY (configuration registers retained)."""
        if self.ledger.state == POWER_DOWN:
            self.ledger.transition(STANDBY)

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` now or, mid-ShockBurst, at the burst's last
        tick after its ``on_complete`` (in call order)."""
        if self._tx_busy:
            self._idle_waiters.append(callback)
        else:
            callback()

    def release(self) -> None:
        """Stop listening, then power down: the radio side of a MAC stop.

        Mid-ShockBurst the chip cannot be switched off, so the
        power-down waits for the burst (:meth:`when_idle`).
        """
        self.stop_rx()
        self.when_idle(self.power_down)

    def power_down(self) -> None:
        """Switch everything off.  Illegal mid-transmission."""
        if self._tx_busy:
            raise RadioError(f"{self.name}: power_down during transmission")
        if self._cca_since is not None:
            # A crash released the radio mid-sense: book the truncated
            # window (the ledger stops accruing CCA-state energy at
            # this instant) and drop the pending result callback.
            partial = (to_seconds(self._sim.now - self._cca_since)
                       * self._cal.radio_rx_a * self._cal.supply_v)
            self.accountant.book(RadioEnergyCategory.IDLE_LISTENING,
                                 partial, frames=0)
            self._cca_since = None
            self._cca_on_result = None
        if self._capturing:
            # Frames whose airtime we were capturing are cut here; the
            # channel will still deliver frame_arrival_end (listeners
            # are fixed at first bit), where the cut becomes an
            # explicit fault_dropped outcome.
            for frame_id in self._capturing:
                self._fault_cut[frame_id] = self._sim.now
            self._capturing.clear()
        if self._rx_abandoned:
            # The MAC's teardown stopped the receive chain moments ago
            # (stop_rx mid-capture) and now the whole radio goes dark:
            # that is a crash, not a routine mode switch.  The
            # abandoned captures become fault cuts at the tick the
            # chain actually stopped, so the energy booked at
            # frame_arrival_end matches what the ledger accrued.
            for frame_id, cut in self._rx_abandoned.items():
                self._fault_cut.setdefault(frame_id, cut)
            self._rx_abandoned.clear()
        self._rx_since = None
        self.ledger.transition(POWER_DOWN)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def start_rx(self) -> None:
        """Turn the receive chain on (stand-by -> RX).

        The chip cannot reach RX from power-down: the synthesizer and
        configuration logic come up in stand-by first (``power_up()``).
        """
        if self._tx_busy:
            raise RadioError(f"{self.name}: start_rx during transmission")
        if self.ledger.state == POWER_DOWN:
            raise RadioError(
                f"{self.name}: start_rx while powered down "
                f"(call power_up() first)")
        if self.ledger.state == CCA:
            raise RadioError(
                f"{self.name}: start_rx during carrier sensing "
                f"(wait for the CCA result)")
        if self.ledger.state == RX:
            if self._rx_since is None:
                # Re-arm during the turn-off tail: supersede the tail
                # and keep listening.
                self.ledger.retag("listen")
                self._rx_since = self._sim.now
                self._channel.rx_started(self)
            return
        self.ledger.transition(RX, tag="listen")
        self._rx_since = self._sim.now
        self._channel.rx_started(self)
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "rx_on", "")

    def stop_rx(self) -> None:
        """Turn the receive chain off, spending the turn-off tail.

        The tail (a fitted ~32 us at RX current) models the receive-chain
        shutdown; it is booked in the RX state and ends in STANDBY.
        """
        if self.ledger.state != RX:
            return
        self._rx_since = None
        # Frames mid-capture are abandoned (legitimately — the chain is
        # being turned off by the MAC, not cut by a fault).  Remember
        # the abandon tick: should the radio power down before the
        # frame drains, power_down() reclassifies these as fault cuts.
        for frame_id in self._capturing:
            self._rx_abandoned[frame_id] = self._sim.now
        self._capturing.clear()
        self.ledger.retag("tail")
        self._sim.after(self._rx_tail_ticks, self._finish_rx_tail,
                        label=self._label_rxtail)

    def _finish_rx_tail(self) -> None:
        # A start_rx()/send() issued during the tail supersedes it.
        if self.ledger.state == RX and self._rx_since is None:
            self.ledger.transition(STANDBY)
            if self._trace is not None:
                self._trace.record(self._sim.now, self.name, "rx_off", "")

    # ------------------------------------------------------------------
    # Carrier sensing (CCA)
    # ------------------------------------------------------------------
    def cca(self, duration_ticks: int,
            on_result: Callable[[bool], None]) -> None:
        """Assess the channel for ``duration_ticks`` (stand-by -> CCA).

        The receive chain dwells at RX current without decoding frames;
        ``on_result`` is invoked with ``True`` when any foreign carrier
        overlapped the window (energy-detect style: one on the air when
        the window opens, or one whose first bit arrives during it) or
        the receive chain is locked up and reads noise.  The window's
        energy is booked as idle listening — carrier sensing
        never captures a frame.  Like RX/TX, sensing is reachable only
        from stand-by.
        """
        if self._tx_busy:
            raise RadioError(f"{self.name}: cca during transmission")
        if self.ledger.state == POWER_DOWN:
            raise RadioError(
                f"{self.name}: cca while powered down "
                f"(call power_up() first)")
        if self.ledger.state == RX:
            raise RadioError(
                f"{self.name}: cca while listening (stop_rx() first)")
        if self.ledger.state == CCA:
            raise RadioError(f"{self.name}: cca already in progress")
        if duration_ticks <= 0:
            raise ValueError(
                f"{self.name}: cca duration must be > 0: {duration_ticks}")
        self._cca_since = self._sim.now
        self._cca_busy = self._channel.is_busy_at(self.address)
        self._cca_on_result = on_result
        self.ledger.transition(CCA, tag="sense")
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "cca_start", "")
        self._sim.after(duration_ticks, self._finish_cca,
                        label=self._label_ccadone)

    def _finish_cca(self) -> None:
        if self.ledger.state != CCA:
            return  # a fault powered the radio down mid-sense
        on_result = self._cca_on_result
        busy = self._cca_busy or self.fault_rx_deaf
        # _cca_since can be later than the window start: a measurement
        # reset mid-sense advances it so the booking matches the ledger.
        elapsed = self._sim.now - self._cca_since \
            if self._cca_since is not None else 0
        energy = self._cca_energy_memo.get(elapsed)
        if energy is None:
            energy = (to_seconds(elapsed)
                      * self._cal.radio_rx_a * self._cal.supply_v)
            self._cca_energy_memo[elapsed] = energy
        # Idle-listening class: the chain was on but no frame was (or
        # could be) captured, which is exactly what the taxonomy's
        # residual category means — here it is booked eagerly so the
        # attribution invariant covers the CCA ledger state too.
        self.accountant.book(RadioEnergyCategory.IDLE_LISTENING,
                             energy, frames=0)
        self._cca_since = None
        self._cca_busy = False
        self._cca_on_result = None
        self.ledger.transition(STANDBY)
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "cca_done",
                               "busy" if busy else "idle")
        if on_result is not None:
            on_result(busy)

    # ------------------------------------------------------------------
    # Transmit path (ShockBurst)
    # ------------------------------------------------------------------
    def airtime_ticks(self, frame: Frame) -> int:
        """On-air duration of ``frame`` in ticks."""
        num_bytes = frame.payload_bytes
        ticks = self._airtime_memo.get(num_bytes)
        if ticks is None:
            ticks = seconds(self._cal.radio_timing.airtime_s(num_bytes))
            self._airtime_memo[num_bytes] = ticks
        return ticks

    def tx_event_ticks(self, frame: Frame) -> int:
        """Total radio-on time of a ShockBurst transmission of ``frame``."""
        num_bytes = frame.payload_bytes
        ticks = self._tx_event_memo.get(num_bytes)
        if ticks is None:
            ticks = seconds(self._cal.radio_timing.tx_event_s(num_bytes))
            self._tx_event_memo[num_bytes] = ticks
        return ticks

    def send(self, frame: Frame,
             on_complete: Optional[Callable[[TxOutcome], None]] = None
             ) -> None:
        """Transmit ``frame`` as one ShockBurst event.

        The radio must not be transmitting already; an active receive
        chain is switched off first (mode switch).  ``on_complete`` is
        invoked, with the :class:`TxOutcome`, when the radio returns to
        stand-by.
        """
        if self._tx_busy:
            raise RadioError(f"{self.name}: send while already transmitting")
        if self.ledger.state == POWER_DOWN:
            raise RadioError(
                f"{self.name}: send while powered down "
                f"(call power_up() first)")
        if self.ledger.state == CCA:
            raise RadioError(
                f"{self.name}: send during carrier sensing "
                f"(wait for the CCA result)")
        if frame.src != self.address:
            raise RadioError(
                f"{self.name}: frame src {frame.src!r} != radio address "
                f"{self.address!r}")
        if self.ledger.state == RX:
            # Mode switch: abandon listening immediately (no RX tail; the
            # chip retunes the synthesizer, accounted in the TX settle).
            self._rx_since = None
            for frame_id in self._capturing:
                self._rx_abandoned[frame_id] = self._sim.now
            self._capturing.clear()
        self._tx_busy = True
        if frame.frame_id == 0:
            # First transmit: stamp the per-simulation serial (Frame is
            # frozen, so ids survive retransmits of the same object).
            object.__setattr__(frame, "frame_id",
                               self._sim.next_serial())
        self.ledger.transition(TX, tag="settle")
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "tx_start",
                               frame.describe())
        if self.spans is not None:
            self.spans.tx_start(frame, self._sim.now)
        self._sim.after(self._tx_settle_ticks,
                        lambda: self._begin_air(frame, on_complete),
                        label=self._label_txair)

    def _begin_air(self, frame: Frame,
                   on_complete: Optional[Callable[[TxOutcome], None]]
                   ) -> None:
        self.ledger.retag("air")
        airtime = self.airtime_ticks(frame)
        transmission = self._channel.begin_transmission(self, frame, airtime)
        self._sim.after(airtime,
                        lambda: self._end_air(transmission, on_complete),
                        label=self._label_txtail)

    def _end_air(self, transmission: "Transmission",
                 on_complete: Optional[Callable[[TxOutcome], None]]) -> None:
        outcome = self._channel.end_transmission(transmission)
        self.ledger.retag("tail")
        self._sim.after(self._tx_tail_ticks,
                        lambda: self._finish_tx(outcome, on_complete),
                        label=self._label_txdone)

    def _finish_tx(self, outcome: TxOutcome,
                   on_complete: Optional[Callable[[TxOutcome], None]]
                   ) -> None:
        self._tx_busy = False
        self.ledger.transition(STANDBY)
        self._book_tx_energy(outcome)
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "tx_done",
                               outcome.frame.describe())
        if self.spans is not None:
            self.spans.tx_finish(outcome, self._sim.now)
        if on_complete is not None:
            on_complete(outcome)
        if self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                waiter()

    def _book_tx_energy(self, outcome: TxOutcome) -> None:
        frame = outcome.frame
        energy = self._tx_energy_memo.get(frame.payload_bytes)
        if energy is None:
            energy = (self._cal.radio_timing.tx_event_s(frame.payload_bytes)
                      * self._cal.radio_tx_a * self._cal.supply_v)
            self._tx_energy_memo[frame.payload_bytes] = energy
        unicast_lost = (not frame.is_broadcast
                        and frame.dest in outcome.corrupted_at)
        if unicast_lost:
            self.accountant.book_collision_tx(energy)
            return
        if frame.kind.is_control:
            self.accountant.book(RadioEnergyCategory.CONTROL_TX, energy)
            self._count_control_tx += 1
        else:
            self.accountant.book(RadioEnergyCategory.DATA_TX, energy)
            self._count_data_tx += 1

    # ------------------------------------------------------------------
    # Channel-facing reception interface
    # ------------------------------------------------------------------
    def frame_arrival_start(self, transmission: "Transmission") -> None:
        """Channel notification: a frame's first bit reaches this radio
        while its chain is on.

        Receiving, the radio captures the frame (tracked so a
        fault-driven power_down mid-airtime becomes an explicit
        fault_dropped, not a silent miss).  Sensing, the CCA window now
        reads busy.
        """
        if self._rx_since is None:
            self._cca_busy = True
        else:
            self._capturing.add(transmission.frame.frame_id)

    def frame_arrival_end(self, transmission: "Transmission",
                          corrupted: bool) -> None:
        """Channel notification: a frame this radio listened to leaves
        the air.

        Decides whether the frame was captured and, if so, runs the
        hardware CRC and address filters and books the RX energy to the
        appropriate loss category.
        """
        frame_id = transmission.frame.frame_id
        self._capturing.discard(frame_id)
        if self._rx_abandoned:
            self._rx_abandoned.pop(frame_id, None)
        start = transmission.start_time
        cut = self._fault_cut.pop(frame_id, None) if self._fault_cut \
            else None
        if cut is not None:
            # The radio went dark (NodeCrash / BatteryBrownout) while
            # capturing this frame: the receive chain spent RX energy
            # from first bit to the cut, then went dark.  Book the
            # truncated capture as a collision-class loss and surface an
            # explicit fault_dropped outcome instead of a silent miss.
            partial = (to_seconds(cut - start)
                       * self._cal.radio_rx_a * self._cal.supply_v)
            self.accountant.book(RadioEnergyCategory.COLLISION, partial)
            self._count_corrupted += 1
            self.fault_frames_dropped += 1
            if self.spans is not None:
                self.spans.rx_outcome(transmission.frame, self.address,
                                      start, cut, "fault_dropped")
            return
        captured = (self._rx_since is not None and self._rx_since <= start)
        if not captured:
            return  # receiver was off (or turned on mid-frame): nothing seen
        frame = transmission.frame
        airtime = transmission.airtime
        rx_energy = self._rx_energy_memo.get(airtime)
        if rx_energy is None:
            rx_energy = (to_seconds(airtime)
                         * self._cal.radio_rx_a * self._cal.supply_v)
            self._rx_energy_memo[airtime] = rx_energy
        faulted = self.fault_rx_deaf
        if (not faulted and self.fault_drop_beacons > 0
                and frame.kind is FrameKind.BEACON):
            self.fault_drop_beacons -= 1
            faulted = True
        spans = self.spans
        end = transmission.end_time
        if faulted:
            # Injected receive-path fault: lost inside the radio like a
            # CRC failure — the energy is spent, the MCU stays asleep.
            self.fault_frames_dropped += 1
            self.accountant.book(RadioEnergyCategory.COLLISION, rx_energy)
            self._count_corrupted += 1
            if spans is not None:
                spans.rx_outcome(frame, self.address, start, end,
                                 "fault_dropped")
            return
        if corrupted and self.crc_enabled:
            self.accountant.book(RadioEnergyCategory.COLLISION, rx_energy)
            self._count_corrupted += 1
            if spans is not None:
                spans.rx_outcome(frame, self.address, start, end,
                                 "corrupted")
            return
        if not frame.addressed_to(self.address) \
                and self.address_filter_enabled:
            self.accountant.book(RadioEnergyCategory.OVERHEARING, rx_energy)
            self._count_overheard += 1
            if spans is not None:
                spans.rx_outcome(frame, self.address, start, end,
                                 "overheard")
            return
        # Frame is handed to software (possibly corrupted, if CRC is off;
        # possibly other-addressed, if the address filter is off).
        if frame.kind.is_control:
            self.accountant.book(RadioEnergyCategory.CONTROL_RX, rx_energy)
            self._count_control_rx += 1
        else:
            self.accountant.book(RadioEnergyCategory.DATA_RX, rx_energy)
            self._count_data_rx += 1
        transmission.delivered_to.append(self.address)
        if spans is not None:
            spans.rx_outcome(frame, self.address, start, end, "delivered")
        if self.on_frame is not None:
            self.on_frame(frame)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finalize_attribution(self) -> None:
        """Assign un-attributed RX energy to idle listening.

        Call after the simulation horizon (ledgers closed).
        """
        self.accountant.finalize(self.ledger.energy_j(state=RX))

    def snapshot_counters(self) -> "TrafficCounters":
        """Current traffic counters as a :class:`TrafficCounters`."""
        from ..core.report import TrafficCounters
        return TrafficCounters(
            data_tx=self._count_data_tx,
            data_rx=self._count_data_rx,
            control_tx=self._count_control_tx,
            control_rx=self._count_control_rx,
            overheard=self._count_overheard,
            corrupted=self._count_corrupted,
        )

    def energy_mj(self) -> float:
        """Total radio energy so far, in millijoules."""
        return self.ledger.energy_mj()

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull this radio's figures into a metrics registry.

        Records per-state residency and energy (state timers) plus the
        traffic counters the MAC surveys evaluate on (data/control
        TX/RX, overhearing, CRC-filtered corruption).  Read-only: call
        once per collected run.
        """
        residency = registry.state_timer("radio", node, "residency_s")
        for state, state_s in self.ledger.seconds_by_state().items():
            residency.add(state, state_s)
        energy = registry.state_timer("radio", node, "energy_mj")
        for state, joules in self.ledger.energy_by_state().items():
            energy.add(state, 1e3 * joules)
        counter = registry.counter
        counter("radio", node, "data_tx").inc(self._count_data_tx)
        counter("radio", node, "data_rx").inc(self._count_data_rx)
        counter("radio", node, "control_tx").inc(self._count_control_tx)
        counter("radio", node, "control_rx").inc(self._count_control_rx)
        counter("radio", node, "overheard").inc(self._count_overheard)
        counter("radio", node, "corrupted").inc(self._count_corrupted)
        counter("radio", node,
                "transitions").inc(self.ledger.transitions)
        if self.fault_frames_dropped:
            counter("radio", node,
                    "fault_frames_dropped").inc(self.fault_frames_dropped)

    def reset_measurement(self) -> None:
        """Clear ledger, attribution and counters at measurement start."""
        self.ledger.reset()
        self.accountant = LossAccountant()
        if self._cca_since is not None:
            # A sensing window straddling the reset: only its post-reset
            # part is in the fresh ledger, so only that part may be
            # booked when the window completes.
            self._cca_since = self._sim.now
        self._count_data_tx = 0
        self._count_data_rx = 0
        self._count_control_tx = 0
        self._count_control_rx = 0
        self._count_overheard = 0
        self._count_corrupted = 0


__all__ = ["Nrf2401", "RadioError", "TxOutcome",
           "POWER_DOWN", "STANDBY", "TX", "RX", "CCA"]
