"""Static TDMA (Figure 2).

The cycle length and the number of slots are fixed at network design
time ("intended to networks in which the number of nodes is known in
advance").  The base station sends a beacon in the SB slot and receives
for the rest of the cycle; a joining node transmits its slot request in
a (randomly chosen) free data slot and is granted that slot via the
next beacon's slot map.  Once the configured slots are taken the
network is full and further requests are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.calibration import ModelCalibration
from ..hw.radio import Nrf2401
from ..sim.kernel import Simulator
from ..sim.simtime import milliseconds
from ..sim.trace import TraceRecorder
from ..tinyos.scheduler import TaskScheduler
from .base import BaseStationMac, NodeMac
from .messages import BeaconPayload, SlotRequestPayload
from .recovery import RecoveryConfig
from .slots import SlotSchedule, static_slot_offset
from .sync import SyncPolicy, paper_static_policy

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class StaticTdmaConfig:
    """Design-time parameters of a static-TDMA network.

    Attributes:
        cycle_ticks: fixed TDMA cycle length.
        num_slots: fixed number of data slots (network capacity).
        first_beacon_ticks: absolute time of the first beacon.
        base_station: the base station's address.
    """

    cycle_ticks: int
    num_slots: int
    first_beacon_ticks: int = milliseconds(10)
    base_station: str = "base_station"

    def __post_init__(self) -> None:
        if self.cycle_ticks <= 0:
            raise ValueError(f"cycle must be positive: {self.cycle_ticks}")
        if self.num_slots < 1:
            raise ValueError(f"need >= 1 slot: {self.num_slots}")
        slot_len = self.cycle_ticks // (self.num_slots + 1)
        if slot_len <= 0:
            raise ValueError(
                f"cycle {self.cycle_ticks} too short for "
                f"{self.num_slots} slots")


class StaticTdmaNodeMac(NodeMac):
    """Node side of the static TDMA protocol."""

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: StaticTdmaConfig,
                 sync_policy: Optional[SyncPolicy] = None,
                 preassigned_slot: Optional[int] = None,
                 clock_skew_ppm: float = 0.0,
                 recovery: Optional[RecoveryConfig] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.config = config
        policy = sync_policy if sync_policy is not None \
            else paper_static_policy(calibration)
        super().__init__(
            sim, radio, scheduler, calibration, policy,
            base_station=config.base_station,
            preassigned_slot=preassigned_slot,
            first_beacon_ticks=config.first_beacon_ticks,
            clock_skew_ppm=clock_skew_ppm,
            recovery=recovery,
            trace=trace)

    def _initial_cycle_ticks(self) -> int:
        return self.config.cycle_ticks

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the base MAC figures plus the fixed cycle length."""
        super().observe_metrics(registry, node)
        registry.gauge("mac", node, "cycle_ticks").set(
            float(self.config.cycle_ticks))

    def _cycle_from_beacon(self, payload: BeaconPayload) -> int:
        return payload.cycle_ticks

    def _slot_offset(self, cycle_ticks: int, slot: int) -> int:
        return static_slot_offset(cycle_ticks, self.config.num_slots, slot)

    def _schedule_slot_request(self, beacon_start: int,
                               payload: BeaconPayload) -> None:
        free = payload.free_slots()
        if not free:
            return  # network full: "no other nodes are accepted"
        stream = self._sim.rng.stream(f"{self._radio.address}.join")
        wanted = free[stream.randrange(len(free))]
        offset = self._slot_offset(payload.cycle_ticks, wanted)
        request_time = beacon_start + offset
        if request_time <= self._sim.now:
            return  # chosen slot already past this cycle; retry next one
        if self.spans is not None:
            self.spans.note_wait(self._radio.address, "mac.ssr_wait",
                                 self._sim.now, request_time)
        self.at(request_time,
                lambda: self._send_slot_request(wanted_slot=wanted),
                label=f"{self.name}.ssr_slot")


class StaticTdmaBaseMac(BaseStationMac):
    """Base-station side of the static TDMA protocol."""

    def __init__(self, sim: Simulator, radio: Nrf2401,
                 scheduler: TaskScheduler,
                 calibration: ModelCalibration,
                 config: StaticTdmaConfig,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.config = config
        super().__init__(
            sim, radio, scheduler, calibration,
            schedule=SlotSchedule(config.num_slots),
            first_beacon_ticks=config.first_beacon_ticks,
            trace=trace)

    def _current_cycle_ticks(self) -> int:
        return self.config.cycle_ticks

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull the base-station figures plus the fixed cycle length."""
        super().observe_metrics(registry, node)
        registry.gauge("mac", node, "cycle_ticks").set(
            float(self.config.cycle_ticks))

    def _handle_slot_request(self, payload: SlotRequestPayload) -> None:
        if self.schedule.slot_of(payload.requester) is not None:
            # Duplicate request (grant beacon was lost): keep the slot.
            # Safe against double allocation: a node only re-requests
            # after receiving a beacon, every beacon carries the full
            # slot map, and a synced node whose map entry disappears
            # surrenders its slot (NodeMac revocation) — so the grant
            # kept here is always the one the requester will adopt.
            return
        wanted = payload.wanted_slot
        if wanted is None:
            free = self.schedule.free_slots()
            if not free:
                return
            wanted = free[0]
        if self.schedule.owner_of(wanted) is not None:
            return  # raced with another joiner; the node will retry
        self.schedule.assign(wanted, payload.requester)


__all__ = ["StaticTdmaConfig", "StaticTdmaNodeMac", "StaticTdmaBaseMac"]
