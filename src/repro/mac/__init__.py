"""MAC layer: frames, slots, sync policies, static & dynamic TDMA, and
the contention family (unslotted ALOHA and 802.15.4-style CSMA/CA)."""

from .aloha import AlohaBaseMac, AlohaConfig, AlohaNodeMac
from .base import AppPayload, BaseStationMac, MacCounters, NodeMac, NodeState
from .csma import CsmaConfig, CsmaNodeMac
from .recovery import RecoveryConfig
from .messages import (
    BEACON_BASE_BYTES,
    SLOT_REQUEST_BYTES,
    BeaconPayload,
    SlotRequestPayload,
    beacon_payload_bytes,
    make_beacon,
    make_data,
    make_slot_request,
)
from .slots import (
    SlotSchedule,
    dynamic_cycle_ticks,
    dynamic_slot_offset,
    static_slot_offset,
)
from .sync import (
    CycleProportionalLead,
    DriftTrackingLead,
    FixedLead,
    SyncPolicy,
    paper_dynamic_policy,
    paper_static_policy,
)
from .tdma_dynamic import DynamicTdmaBaseMac, DynamicTdmaConfig, \
    DynamicTdmaNodeMac
from .tdma_static import StaticTdmaBaseMac, StaticTdmaConfig, \
    StaticTdmaNodeMac

__all__ = [
    "AlohaBaseMac",
    "AlohaConfig",
    "AlohaNodeMac",
    "AppPayload",
    "BaseStationMac",
    "CsmaConfig",
    "CsmaNodeMac",
    "MacCounters",
    "NodeMac",
    "NodeState",
    "RecoveryConfig",
    "BEACON_BASE_BYTES",
    "SLOT_REQUEST_BYTES",
    "BeaconPayload",
    "SlotRequestPayload",
    "beacon_payload_bytes",
    "make_beacon",
    "make_data",
    "make_slot_request",
    "SlotSchedule",
    "dynamic_cycle_ticks",
    "dynamic_slot_offset",
    "static_slot_offset",
    "CycleProportionalLead",
    "DriftTrackingLead",
    "FixedLead",
    "SyncPolicy",
    "paper_dynamic_policy",
    "paper_static_policy",
    "DynamicTdmaBaseMac",
    "DynamicTdmaConfig",
    "DynamicTdmaNodeMac",
    "StaticTdmaBaseMac",
    "StaticTdmaConfig",
    "StaticTdmaNodeMac",
]
