"""Dynamic TDMA (Figure 3).

Slots have a fixed length and the cycle grows with the network: with N
joined nodes the cycle is ``(N + 1) * slot_len`` — one leading slot for
the beacon (SB) plus the empty-slot request window (ES), then one data
slot per node.  A joining node transmits its slot request at a random
instant inside the ES ("the node performs a SSR on a random time,
minimizing the risk of a collision of 2 requests within the same ES");
the base station creates a new slot, assigns it, and announces both the
assignment and the new cycle length in the next beacon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.calibration import ModelCalibration
from ..hw.radio import Nrf2401
from ..sim.kernel import Simulator
from ..sim.simtime import microseconds, milliseconds
from ..sim.trace import TraceRecorder
from ..tinyos.scheduler import TaskScheduler
from .base import BaseStationMac, NodeMac
from .messages import BeaconPayload, SlotRequestPayload
from .slots import SlotSchedule, dynamic_cycle_ticks, dynamic_slot_offset
from .sync import SyncPolicy, paper_dynamic_policy

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class DynamicTdmaConfig:
    """Parameters of a dynamic-TDMA network.

    Attributes:
        slot_ticks: fixed slot length (the paper's case studies: 10 ms).
        first_beacon_ticks: absolute time of the first beacon.
        base_station: the base station's address.
        initial_assigned: number of preassigned nodes when the scenario
            skips the join protocol (steady-state measurements); defines
            the initial cycle length.
        es_open_offset_ticks: earliest SSR instant after the beacon
            start (clears the beacon airtime).
        es_close_margin_ticks: latest-SSR margin before the ES slot
            ends (clears the SSR ShockBurst event).
    """

    slot_ticks: int = milliseconds(10)
    first_beacon_ticks: int = milliseconds(10)
    base_station: str = "base_station"
    initial_assigned: int = 0
    es_open_offset_ticks: int = microseconds(300)
    es_close_margin_ticks: int = microseconds(500)

    def __post_init__(self) -> None:
        if self.slot_ticks <= 0:
            raise ValueError(f"slot must be positive: {self.slot_ticks}")
        if self.initial_assigned < 0:
            raise ValueError(
                f"initial_assigned must be >= 0: {self.initial_assigned}")
        usable = self.slot_ticks - self.es_open_offset_ticks \
            - self.es_close_margin_ticks
        if usable <= 0:
            raise ValueError(
                f"slot {self.slot_ticks} leaves no ES window "
                f"(open {self.es_open_offset_ticks} + close "
                f"{self.es_close_margin_ticks})")


class DynamicTdmaNodeMac(NodeMac):
    """Node side of the dynamic TDMA protocol."""

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: DynamicTdmaConfig,
                 sync_policy: Optional[SyncPolicy] = None,
                 preassigned_slot: Optional[int] = None,
                 clock_skew_ppm: float = 0.0,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.config = config
        policy = sync_policy if sync_policy is not None \
            else paper_dynamic_policy(calibration)
        super().__init__(
            sim, radio, scheduler, calibration, policy,
            base_station=config.base_station,
            preassigned_slot=preassigned_slot,
            first_beacon_ticks=config.first_beacon_ticks,
            clock_skew_ppm=clock_skew_ppm,
            trace=trace)

    def _initial_cycle_ticks(self) -> int:
        return dynamic_cycle_ticks(self.config.slot_ticks,
                                   self.config.initial_assigned)

    def _cycle_from_beacon(self, payload: BeaconPayload) -> int:
        return payload.cycle_ticks

    def _slot_offset(self, cycle_ticks: int, slot: int) -> int:
        return dynamic_slot_offset(self.config.slot_ticks, slot)

    def _schedule_slot_request(self, beacon_start: int,
                               payload: BeaconPayload) -> None:
        earliest = beacon_start + self.config.es_open_offset_ticks
        latest = beacon_start + self.config.slot_ticks \
            - self.config.es_close_margin_ticks
        if latest <= self._sim.now:
            return  # ES already over; retry next cycle
        earliest = max(earliest, self._sim.now)
        request_time = self._sim.rng.uniform_ticks(
            f"{self._radio.address}.es", earliest, latest)
        if self.spans is not None:
            self.spans.note_wait(self._radio.address, "mac.ssr_wait",
                                 self._sim.now, request_time)
        self._sim.at(request_time,
                     lambda: self._send_slot_request(wanted_slot=None),
                     label=f"{self.name}.ssr_es")


class DynamicTdmaBaseMac(BaseStationMac):
    """Base-station side of the dynamic TDMA protocol."""

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: DynamicTdmaConfig,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.config = config
        schedule = SlotSchedule(max(1, config.initial_assigned))
        super().__init__(
            sim, radio, scheduler, calibration,
            schedule=schedule,
            first_beacon_ticks=config.first_beacon_ticks,
            trace=trace)

    def _current_cycle_ticks(self) -> int:
        # The beacon slot plus one data slot per *schedulable* slot; the
        # schedule only grows when joins outpace it, so the cycle always
        # covers every assigned slot.
        return dynamic_cycle_ticks(self.config.slot_ticks,
                                   self.schedule.num_slots)

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the base-station figures plus dynamic-TDMA specifics.

        Adds the configured slot length and the *current* (grown)
        cycle length on top of the shared occupancy gauges.
        """
        super().observe_metrics(registry, node)
        registry.gauge("mac", node, "slot_ticks").set(
            float(self.config.slot_ticks))
        registry.gauge("mac", node, "cycle_ticks").set(
            float(self._current_cycle_ticks()))

    def _handle_slot_request(self, payload: SlotRequestPayload) -> None:
        if self.schedule.slot_of(payload.requester) is not None:
            # Duplicate request (grant beacon was lost): keep the slot.
            # Safe against double allocation for the same reason as the
            # static variant.
            return
        free = self.schedule.free_slots()
        slot = free[0] if free else self.schedule.grow()
        self.schedule.assign(slot, payload.requester)


__all__ = ["DynamicTdmaConfig", "DynamicTdmaNodeMac", "DynamicTdmaBaseMac"]
