"""Over-the-air frame representation.

The nRF2401 ShockBurst frame is ``preamble | address | payload | CRC``;
only the payload is visible to software.  :class:`Frame` models one such
frame abstractly: we carry the payload as a Python object plus an explicit
``payload_bytes`` size (what determines airtime and energy), so the
simulator never serialises bits but always accounts the exact on-air size.

``kind`` classifies frames for the loss taxonomy: beacons, slot requests
and slot grants are *control* traffic (Section 4.2's "control packet
overhead"); application packets are *data*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

#: Destination address meaning "all nodes" (beacons use it).
BROADCAST = "*"


class FrameKind(enum.Enum):
    """What a frame carries, for MAC dispatch and energy attribution."""

    DATA = "data"
    BEACON = "beacon"
    SLOT_REQUEST = "slot_request"
    SLOT_GRANT = "slot_grant"

    @property
    def is_control(self) -> bool:
        """True for MAC control traffic (everything except DATA)."""
        return self is not FrameKind.DATA


@dataclass(frozen=True, slots=True)
class Frame:
    """One over-the-air frame.

    Attributes:
        src: transmitting node's address (its node id).
        dest: destination address, or :data:`BROADCAST`.
        kind: frame classification (see :class:`FrameKind`).
        payload_bytes: on-air payload size in bytes; drives airtime.
        payload: the modelled payload content (a mapping, such as a
            dict or an ECG stream's lazily read
            :class:`~repro.apps.ecg_streaming.StreamPayload`, or a
            dataclass); not serialised, but available to the
            receiver's MAC/application.
        frame_id: serial for tracing and in-flight bookkeeping.  0
            means "not yet transmitted": the radio stamps a
            per-simulation serial on first send, so ids restart at 1
            for every scenario.  (The previous process-global counter
            made the second run in one process trace different serials
            than the first; caught by tools/determinism_check.py.)
    """

    src: str
    dest: str
    kind: FrameKind
    payload_bytes: int
    payload: Any = None
    frame_id: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}")

    @property
    def is_broadcast(self) -> bool:
        """Whether this frame is addressed to every node."""
        return self.dest == BROADCAST

    def addressed_to(self, address: str) -> bool:
        """Whether the nRF2401 address filter at ``address`` accepts it."""
        return self.is_broadcast or self.dest == address

    def describe(self) -> str:
        """Short human-readable summary for traces."""
        return (f"{self.kind.value}#{self.frame_id} "
                f"{self.src}->{self.dest} ({self.payload_bytes}B)")


__all__ = ["BROADCAST", "Frame", "FrameKind"]
