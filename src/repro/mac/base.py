"""Shared TDMA machinery: node-side and base-station-side state machines.

Both TDMA variants (Figures 2 and 3) share their whole life cycle; they
differ only in slot geometry and in how a slot request is transmitted.
The common machinery lives here; :mod:`repro.mac.tdma_static` and
:mod:`repro.mac.tdma_dynamic` subclass it with the variant-specific
pieces.

Node life cycle
---------------

``ACQUIRING``
    The node does not know the beacon schedule: receiver on
    continuously until a beacon is captured.  (This is the expensive
    phase the guard windows exist to avoid.)
``JOINING``
    Synchronised but slotless: the node sends a slot request (SSR) per
    the variant's rules and watches beacons for its grant, retrying on
    collision/loss.
``SYNCED``
    Owns a slot: per cycle, wake the radio a guard *lead* before the
    expected beacon, receive it, post the beacon-processing task,
    transmit the application payload (if any) in the owned slot, sleep.

Missing ``max_missed_beacons`` consecutive beacons demotes the node to
``ACQUIRING`` (its clock can no longer be trusted).

Timing of energy-relevant events exactly reproduces the calibrated
model: the realised beacon window is ``lead + beacon airtime + RX
tail``; a data transmission is one ShockBurst event; the MCU pays
``beacon_processing`` per received beacon and ``packet_preparation``
per transmitted data packet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..core.calibration import ModelCalibration
from ..hw.frames import Frame, FrameKind
from ..hw.radio import Nrf2401, TxOutcome
from ..sim.events import EVT_TIME, EventEntry
from ..sim.kernel import Simulator
from ..sim.simtime import TICKS_PER_SECOND, microseconds
from ..sim.trace import TraceRecorder
from ..tinyos.components import Component
from ..tinyos.scheduler import TaskScheduler
from .messages import BeaconPayload, SlotRequestPayload, make_beacon, \
    make_data, make_slot_request
from .slots import SlotSchedule
from .sync import SyncPolicy

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..obs.spans import SpanTracer

#: A payload the application hands to the MAC: (on-air bytes, content).
AppPayload = Tuple[int, object]


class NodeState(enum.Enum):
    """Node-side MAC state."""

    ACQUIRING = "acquiring"
    JOINING = "joining"
    SYNCED = "synced"


@dataclass
class MacCounters:
    """Protocol-level event counters (per node / base station).

    The degraded-path counters (``slot_revocations``, ``recoveries``,
    ``sync_anomalies``) stay zero unless the protocol takes that path:
    they make degradation measurable rather than silent.
    """

    beacons_sent: int = 0
    beacons_received: int = 0
    beacons_missed: int = 0
    data_sent: int = 0
    data_received: int = 0
    slot_requests_sent: int = 0
    slot_requests_received: int = 0
    grants_observed: int = 0
    resyncs: int = 0
    software_discards: int = 0
    slot_revocations: int = 0
    recoveries: int = 0
    sync_anomalies: int = 0
    #: Contention-MAC counters (ALOHA / CSMA; zero under TDMA).
    oversize_skipped: int = 0
    cca_busy: int = 0
    backoff_attempts: int = 0
    tx_abandoned: int = 0

    def as_dict(self) -> dict:
        """Field-name -> count mapping (the metrics/export view)."""
        return {field: getattr(self, field)
                for field in self.__dataclass_fields__}

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull every counter into ``registry`` under ``mac/<node>/``."""
        for name, value in self.as_dict().items():
            registry.counter("mac", node, name).inc(value)


class NodeMac(Component):
    """Variant-independent node-side TDMA MAC.

    Args:
        sim: simulation kernel.
        radio: this node's transceiver.
        scheduler: this node's TinyOS task scheduler (MCU cost sink).
        calibration: model constants.
        sync_policy: guard-lead policy.
        base_station: the base station's address.
        preassigned_slot: skip the join protocol and start in SYNCED
            owning this slot (the paper's steady-state measurements).
            Requires ``first_beacon_ticks``.
        first_beacon_ticks: absolute time of the first beacon, for
            preassigned starts.
        clock_skew_ppm: this node's crystal error; its beacon-time
            estimates drift accordingly (0 = ideal crystal).
        max_missed_beacons: consecutive misses before falling back to
            acquisition.
    """

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 sync_policy: SyncPolicy,
                 base_station: str,
                 preassigned_slot: Optional[int] = None,
                 first_beacon_ticks: Optional[int] = None,
                 clock_skew_ppm: float = 0.0,
                 max_missed_beacons: int = 3,
                 name: Optional[str] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name or f"{radio.address}.mac", trace)
        self._radio = radio
        self._scheduler = scheduler
        self._cal = calibration
        self._sync = sync_policy
        self._bs = base_station
        self._preassigned_slot = preassigned_slot
        self._first_beacon = first_beacon_ticks
        self._skew_ppm = clock_skew_ppm
        self._max_missed = max_missed_beacons

        self._state = NodeState.ACQUIRING
        self._state_since = sim.now
        self._state_ticks = {state: 0 for state in NodeState}
        self._ever_synced = False
        self.counters = MacCounters()
        #: Application hook: called at slot time; returns (bytes, content)
        #: or None when there is nothing to send this cycle.
        self.payload_provider: Optional[Callable[[], Optional[AppPayload]]] \
            = None
        #: Application hook: called (with the BeaconPayload) after each
        #: received beacon, from task context.
        self.on_beacon: Optional[Callable[[BeaconPayload], None]] = None
        #: Optional causal-span tracer (:mod:`repro.obs.spans`).
        self.spans: Optional["SpanTracer"] = None

        self._slot: Optional[int] = preassigned_slot
        self._cycle_ticks: Optional[int] = None
        self._last_sync: Optional[int] = None
        self._missed = 0
        self._beacon_seen_this_window = False
        self._window_serial = 0
        self._join_pending = False
        self._next_window_open: Optional[int] = None
        self._next_slot_time: Optional[int] = None
        self._next_expected_beacon: Optional[int] = None

        # Event labels are scheduled once per cycle per node; precompute
        # them so the hot paths never rebuild the same f-string.
        name = self.name
        self._label_rxon = f"{name}.rxon"
        self._label_beacon_timeout = f"{name}.beacon_timeout"
        self._label_slot = f"{name}.slot"
        self._label_pkt_prep = f"{name}.pkt_prep"
        self._label_beacon_proc = f"{name}.beacon_proc"
        self._label_foreign_beacon = f"{name}.foreign_beacon"
        self._label_sw_discard = f"{name}.sw_discard"
        self._label_unexpected_rx = f"{name}.unexpected_rx"
        self._label_ssr = f"{name}.ssr"

        radio.on_frame = self._on_frame

    # ------------------------------------------------------------------
    # State (with residency accounting for the obs state timer)
    # ------------------------------------------------------------------
    @property
    def state(self) -> NodeState:
        """Current node-side MAC state."""
        return self._state

    @state.setter
    def state(self, new: NodeState) -> None:
        if new is self._state:
            return
        now = self._sim.now
        self._state_ticks[self._state] += now - self._state_since
        self._state_since = now
        if new is NodeState.SYNCED:
            if self._ever_synced:
                self.counters.recoveries += 1
            self._ever_synced = True
        self._state = new

    # ------------------------------------------------------------------
    # Variant-specific hooks
    # ------------------------------------------------------------------
    def _initial_cycle_ticks(self) -> int:
        """Cycle length before any beacon is seen (static knows it from
        configuration; dynamic must hear a beacon first)."""
        raise NotImplementedError

    def _cycle_from_beacon(self, payload: BeaconPayload) -> int:
        """Cycle length in effect for the cycle the beacon opens."""
        raise NotImplementedError

    def _slot_offset(self, cycle_ticks: int, slot: int) -> int:
        """Start of data slot ``slot`` relative to the beacon start."""
        raise NotImplementedError

    def _schedule_slot_request(self, beacon_start: int,
                               payload: BeaconPayload) -> None:
        """Arrange this cycle's SSR transmission (variant-specific)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._radio.power_up()
        if self._preassigned_slot is not None:
            if self._first_beacon is None:
                raise ValueError(
                    f"{self.name}: preassigned slot needs first_beacon_ticks")
            self.state = NodeState.SYNCED
            self._cycle_ticks = self._initial_cycle_ticks()
            self._last_sync = self._first_beacon - self._cycle_ticks
            self._arm_beacon_window(self._first_beacon)
        else:
            self._enter_acquisition()

    @property
    def slot(self) -> Optional[int]:
        """Currently owned data slot (None before the grant)."""
        return self._slot

    @property
    def sync_policy(self) -> SyncPolicy:
        """The guard-lead policy in use."""
        return self._sync

    def next_wake_hint(self) -> Optional[int]:
        """The MAC's next scheduled MCU-relevant instant (window open
        or slot transmission), for the deep-sleep power policy."""
        now = self._sim.now
        candidates = [t for t in (self._next_window_open,
                                  self._next_slot_time)
                      if t is not None and t > now]
        return min(candidates) if candidates else None

    @property
    def is_synced(self) -> bool:
        """Whether the node owns a slot and tracks the beacon schedule."""
        return self.state is NodeState.SYNCED

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull this MAC's protocol counters and sync figures.

        Counters cover the per-cause events the WBAN MAC surveys
        compare on (missed beacons, slot requests, resyncs, software
        discards); gauges expose the sync state, owned slot and the
        node's crystal skew (its systematic beacon-estimate drift
        source).  Read-only: call once per collected run.
        """
        self.counters.observe_metrics(registry, node)
        registry.gauge("mac", node, "synced").set(
            1.0 if self.state is NodeState.SYNCED else 0.0)
        registry.gauge("mac", node, "slot").set(
            -1.0 if self._slot is None else float(self._slot))
        registry.gauge("mac", node,
                       "clock_skew_ppm").set(self._skew_ppm)
        timer = registry.state_timer("mac", node, "state_s")
        now = self._sim.now
        for state in NodeState:
            ticks = self._state_ticks[state]
            if state is self._state:
                ticks += now - self._state_since
            if ticks:
                timer.add(state.value, ticks / TICKS_PER_SECOND)

    @property
    def cycle_ticks(self) -> Optional[int]:
        """Last known TDMA cycle length."""
        return self._cycle_ticks

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def _enter_acquisition(self) -> None:
        if self.state is not NodeState.ACQUIRING:
            self.counters.resyncs += 1
        self.state = NodeState.ACQUIRING
        self._slot = None if self._preassigned_slot is None else self._slot
        self._missed = 0
        # Reacquisition, like the join phase, is continuous listening.
        self._radio.start_rx()

    # ------------------------------------------------------------------
    # Beacon window management (SYNCED / JOINING)
    # ------------------------------------------------------------------
    def _estimate_with_skew(self, true_interval: int) -> int:
        return round(true_interval * (1.0 + self._skew_ppm * 1e-6))

    def _arm_beacon_window(self, expected_beacon: int) -> None:
        """Schedule RX-on ``lead`` before ``expected_beacon`` and the
        miss-timeout after it."""
        assert self._cycle_ticks is not None
        since_sync = expected_beacon - (self._last_sync
                                        if self._last_sync is not None
                                        else expected_beacon)
        if since_sync < 0:
            # Beacon bookkeeping went backwards.  No protocol path
            # produces this (expectations only ever advance from the
            # last sync point); it would mean a widening lead computed
            # from garbage, so trap it loudly instead of clamping in
            # silence.
            self.counters.sync_anomalies += 1
            if self._trace is not None:
                self._trace.record(
                    self._sim.now, self.name, "sync_anomaly",
                    f"since_sync={since_sync} "
                    f"expected={expected_beacon} last={self._last_sync}")
            since_sync = 0
        lead = self._sync.lead_ticks(self._cycle_ticks, since_sync)
        self._next_expected_beacon = expected_beacon
        wake = max(expected_beacon - lead, self._sim.now)
        self._beacon_seen_this_window = False
        self._window_serial += 1
        serial = self._window_serial
        self._next_window_open = wake
        self._sim.at(wake, lambda: self._open_window(serial),
                     self._label_rxon)
        # Keep listening one lead past the expected time before declaring
        # a miss (symmetric guard), plus a beacon airtime.
        airtime = microseconds(200)
        timeout = expected_beacon + lead + airtime
        self._sim.at(timeout,
                     lambda: self._beacon_timeout(expected_beacon, serial),
                     label=self._label_beacon_timeout)

    def _open_window(self, serial: int) -> None:
        if serial != self._window_serial:
            return  # superseded by a newer window
        if self.state is NodeState.ACQUIRING:
            return  # already listening continuously
        if not self._beacon_seen_this_window and not self._radio.is_receiving:
            self._radio.start_rx()

    def _beacon_timeout(self, expected_beacon: int, serial: int) -> None:
        if serial != self._window_serial:
            return  # superseded by a newer window
        if self._beacon_seen_this_window:
            return
        if self.state is NodeState.ACQUIRING:
            return
        self.counters.beacons_missed += 1
        self._missed += 1
        self._radio.stop_rx()
        if self._missed >= self._max_missed:
            self._enter_acquisition()
            return
        # Free-run: trust the local clock for another cycle.
        assert self._cycle_ticks is not None
        next_expected = expected_beacon \
            + self._estimate_with_skew(self._cycle_ticks)
        if self.state is NodeState.SYNCED and self._slot is not None:
            self._schedule_data_tx(expected_beacon)
        self._arm_beacon_window(next_expected)

    # ------------------------------------------------------------------
    # Frame reception (radio interrupt context)
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.BEACON:
            if frame.src != self._bs:
                # Another BAN's base station (co-channel interference):
                # synchronising to it would wreck the schedule.  The
                # software stack identifies and discards it.
                self.counters.software_discards += 1
                self._scheduler.post_cost_only(
                    self._cal.mcu_costs.packet_reception,
                    label=self._label_foreign_beacon)
                return
            self._handle_beacon(frame)
            return
        if not frame.addressed_to(self._radio.address):
            # Only reachable with the hardware address filter disabled:
            # the software stack pays a reception cost and discards.
            self.counters.software_discards += 1
            self._scheduler.post_cost_only(
                self._cal.mcu_costs.packet_reception,
                label=self._label_sw_discard)
            return
        # Nodes receive no unicast traffic in these protocols; anything
        # else is counted and dropped in task context.
        self.counters.software_discards += 1
        self._scheduler.post_cost_only(
            self._cal.mcu_costs.packet_reception,
            label=self._label_unexpected_rx)

    def _handle_beacon(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, BeaconPayload):
            raise TypeError(
                f"{self.name}: beacon frame without BeaconPayload")
        beacon_start = self._sim.now - self._radio.airtime_ticks(frame)
        self.counters.beacons_received += 1
        self._beacon_seen_this_window = True
        self._missed = 0
        self._last_sync = beacon_start
        self._radio.stop_rx()
        self._cycle_ticks = self._cycle_from_beacon(payload)

        # MCU cost of processing the beacon (sync bookkeeping, schedule
        # update, timer re-arm).
        self._scheduler.post_cost_only(
            self._cal.mcu_costs.beacon_processing,
            label=self._label_beacon_proc)

        if self.state is NodeState.ACQUIRING:
            self.state = NodeState.JOINING

        if self.state is NodeState.SYNCED:
            listed = payload.slot_of(self._radio.address)
            if listed is None:
                # The schedule no longer carries this node (the base
                # station released its slot).  Transmitting in a slot
                # the base station may hand to someone else would
                # double-allocate it, so surrender the slot and re-join.
                self.counters.slot_revocations += 1
                self._slot = None
                self.state = NodeState.JOINING
            elif listed != self._slot:
                # The base station moved us: its schedule is
                # authoritative.
                self._slot = listed

        if self.state is NodeState.JOINING:
            granted = payload.slot_of(self._radio.address)
            if granted is not None:
                self._slot = granted
                self.state = NodeState.SYNCED
                self.counters.grants_observed += 1
                self._join_pending = False
            else:
                self._schedule_slot_request(beacon_start, payload)

        if self.state is NodeState.SYNCED and self._slot is not None:
            self._schedule_data_tx(beacon_start)

        next_expected = beacon_start \
            + self._estimate_with_skew(self._cycle_ticks)
        self._arm_beacon_window(next_expected)

        if self.on_beacon is not None:
            self.on_beacon(payload)

    # ------------------------------------------------------------------
    # Data transmission
    # ------------------------------------------------------------------
    def _schedule_data_tx(self, beacon_start: int) -> None:
        assert self._cycle_ticks is not None and self._slot is not None
        offset = self._slot_offset(self._cycle_ticks, self._slot)
        tx_time = beacon_start + offset
        if tx_time <= self._sim.now:
            return  # the slot is already past (late join mid-cycle)
        self._next_slot_time = tx_time
        if self.spans is not None:
            self.spans.note_wait(self._radio.address, "mac.slot_wait",
                                 self._sim.now, tx_time)
        self._sim.at(tx_time, self._slot_fired, label=self._label_slot)

    def _slot_fired(self) -> None:
        if self.state is not NodeState.SYNCED or self._slot is None:
            return  # demoted between scheduling and firing
        if self.payload_provider is None:
            return
        payload = self.payload_provider()
        if payload is None:
            return  # nothing to send: radio stays off (Rpeak idle cycles)
        payload_bytes, content = payload
        frame = make_data(self._radio.address, self._bs,
                          payload_bytes, content)
        if self.spans is not None:
            self.spans.packet_queued(frame, self._sim.now,
                                     self._label_pkt_prep)
        # The MCU prepares the packet and clocks it into the radio FIFO;
        # the ShockBurst event itself starts when the task body runs.
        self._scheduler.post(
            lambda: self._radio.send(frame, self._data_tx_done),
            self._cal.mcu_costs.packet_preparation,
            label=self._label_pkt_prep)

    def _data_tx_done(self, outcome: TxOutcome) -> None:
        self.counters.data_sent += 1

    # ------------------------------------------------------------------
    # Slot requests (helpers for the variants)
    # ------------------------------------------------------------------
    def _send_slot_request(self, wanted_slot: Optional[int] = None) -> None:
        if self.state is not NodeState.JOINING:
            return  # a grant arrived in the meantime
        frame = make_slot_request(self._radio.address, self._bs,
                                  wanted_slot=wanted_slot)
        self.counters.slot_requests_sent += 1
        self._join_pending = True
        if self.spans is not None:
            self.spans.packet_queued(frame, self._sim.now,
                                     self._label_ssr)
        self._scheduler.post(
            lambda: self._radio.send(frame),
            self._cal.mcu_costs.packet_preparation,
            label=self._label_ssr)


class BaseStationMac(Component):
    """Variant-independent base-station TDMA MAC.

    The base station regulates the protocol (Section 3.2.2): it
    broadcasts the beacon at every cycle start and listens the rest of
    the time, assigning slots as requests arrive and delivering data
    frames upward.
    """

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 schedule: SlotSchedule,
                 first_beacon_ticks: int,
                 name: Optional[str] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name or f"{radio.address}.mac", trace)
        self._radio = radio
        self._scheduler = scheduler
        self._cal = calibration
        self.schedule = schedule
        self._first_beacon = first_beacon_ticks
        self.counters = MacCounters()
        #: Upward hook: called with each received data Frame.
        self.data_sink: Optional[Callable[[Frame], None]] = None
        #: Optional causal-span tracer (:mod:`repro.obs.spans`).
        self.spans: Optional["SpanTracer"] = None
        #: Kernel entry of the next beacon once started: the cadence's
        #: handle, whose time :attr:`next_beacon_ticks` reads.
        self._next_beacon: Optional[EventEntry] = None
        self._sequence = 0
        # Event/task labels are stable per instance; precompute them so
        # the per-cycle and per-frame paths avoid f-string formatting.
        name = self.name
        self._label_beacon = f"{name}.beacon"
        self._label_beacon_prep = f"{name}.beacon_prep"
        self._label_ssr_rx = f"{name}.ssr_rx"
        self._label_data_rx = f"{name}.data_rx"
        self._label_sw_discard = f"{name}.sw_discard"
        radio.on_frame = self._on_frame

    # ------------------------------------------------------------------
    # Variant-specific hooks
    # ------------------------------------------------------------------
    def _current_cycle_ticks(self) -> int:
        """Length of the cycle starting at the beacon about to be sent."""
        raise NotImplementedError

    def current_cycle_ticks(self) -> int:
        """Public view of the cycle length currently in effect."""
        return self._current_cycle_ticks()

    @property
    def next_beacon_ticks(self) -> int:
        """Absolute time of the next beacon (for scenario alignment and
        diagnostics)."""
        if self._next_beacon is None:
            return self._first_beacon
        return self._next_beacon[EVT_TIME]

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the base station's counters and schedule occupancy.

        Slot occupancy (assigned / capacity) is the utilisation figure
        TDMA evaluations report alongside the per-cause counters.
        Read-only: call once per collected run.
        """
        self.counters.observe_metrics(registry, node)
        schedule = self.schedule
        registry.gauge("mac", node, "slots_assigned").set(
            float(schedule.assigned_count))
        registry.gauge("mac", node, "num_slots").set(
            float(schedule.num_slots))
        if schedule.num_slots:
            registry.gauge("mac", node, "slot_occupancy").set(
                schedule.assigned_count / schedule.num_slots)

    def _handle_slot_request(self, payload: SlotRequestPayload) -> None:
        """Variant-specific assignment policy."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._radio.power_up()
        self._next_beacon = self._sim.at(self._first_beacon,
                                         self._beacon_time,
                                         label=self._label_beacon)

    # ------------------------------------------------------------------
    # Beacon cadence
    # ------------------------------------------------------------------
    def _beacon_time(self) -> None:
        cycle = self._current_cycle_ticks()
        self._sequence += 1
        payload = BeaconPayload(cycle_ticks=cycle,
                                slot_map=self.schedule.as_map(),
                                num_slots=self.schedule.num_slots,
                                sequence=self._sequence)
        frame = make_beacon(self._radio.address, payload)
        if self._radio.is_receiving:
            self._radio.stop_rx()
        if self.spans is not None:
            self.spans.packet_queued(frame, self._sim.now,
                                     self._label_beacon_prep)
        self._scheduler.post(
            lambda: self._radio.send(frame, self._beacon_sent),
            self._cal.mcu_costs.packet_preparation,
            label=self._label_beacon_prep)
        self._next_beacon = self._sim.at(self._sim.now + cycle,
                                         self._beacon_time,
                                         label=self._label_beacon)

    def _beacon_sent(self, outcome: TxOutcome) -> None:
        self.counters.beacons_sent += 1
        # Listen for the rest of the cycle (R region of Figure 2).
        self._radio.start_rx()

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.SLOT_REQUEST:
            payload = frame.payload
            if not isinstance(payload, SlotRequestPayload):
                raise TypeError(f"{self.name}: SSR without payload")
            self.counters.slot_requests_received += 1
            self._scheduler.post_cost_only(
                self._cal.mcu_costs.packet_reception,
                label=self._label_ssr_rx)
            self._handle_slot_request(payload)
            return
        if frame.kind is FrameKind.DATA:
            self.counters.data_received += 1
            self._scheduler.post_cost_only(
                self._cal.mcu_costs.packet_reception,
                label=self._label_data_rx)
            if self.data_sink is not None:
                self.data_sink(frame)
            return
        # Beacons from other base stations etc.: discard in software.
        self.counters.software_discards += 1
        self._scheduler.post_cost_only(
            self._cal.mcu_costs.packet_reception,
            label=self._label_sw_discard)


__all__ = ["AppPayload", "NodeState", "MacCounters",
           "NodeMac", "BaseStationMac"]
