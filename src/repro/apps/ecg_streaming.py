"""ECG streaming application (Section 5.1).

A 2-channel ECG signal is sampled and every acquired 12-bit code is
queued; each TDMA cycle the node transmits a fixed-size data packet to
the base station ("we fixed the transmission payload of each node to 18
bytes per TDMA cycle").  Eighteen bytes carry twelve 12-bit codes —
six sample pairs — which is why the paper couples sampling frequency
and cycle length (205 Hz/channel needs a 30 ms cycle, 55 Hz allows
120 ms).

The on-air payload size is *fixed* (padding if the buffer runs short,
as the platform does), so radio energy per cycle is deterministic; the
packed codes travel as the frame's content for the base station to
unpack.

No energy, counter or table figure depends on the codes a payload
carries, so a coalesced sample's codes are computed when a reader
first reads them.  The app's flush counts the block's ASIC reads and
ADC conversions as an eager read would, and queues one ``int``
reference per code (the acquisition tick and channel, stored negative
so it never equals a code); a per-task sample queues its codes as
read.  A payload (:class:`StreamPayload`) computes the codes of the
references it carries on first access, one block per channel, with
the ASIC's and ADC's non-counting transfer functions, which the block
reads also use.  The channel sources are pure functions of time, so
the codes equal those an eager read gives, whenever they are read.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.calibration import ModelCalibration
from ..hw.adc import Adc12
from ..hw.asic import BiopotentialAsic
from ..mac.base import AppPayload, NodeMac
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from ..tinyos.scheduler import TaskScheduler
from .base import SamplingApplication

#: The case studies' fixed per-cycle payload (Section 5.1).
DEFAULT_PAYLOAD_BYTES = 18

#: Bits per packed sample (the ADC's resolution).
BITS_PER_CODE = 12


def codes_per_payload(payload_bytes: int) -> int:
    """How many 12-bit codes fit in ``payload_bytes`` (18 B -> 12)."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload size: {payload_bytes}")
    return (payload_bytes * 8) // BITS_PER_CODE


def pack_codes(codes: Sequence[int]) -> bytes:
    """Pack 12-bit codes, little-end first nibble-wise (two codes per
    three bytes).  Used by tests and the base-station unpacker."""
    out = bytearray()
    for i in range(0, len(codes) - 1, 2):
        a, b = codes[i], codes[i + 1]
        out.append(a & 0xFF)
        out.append(((a >> 8) & 0x0F) | ((b & 0x0F) << 4))
        out.append((b >> 4) & 0xFF)
    if len(codes) % 2:
        a = codes[-1]
        out.append(a & 0xFF)
        out.append((a >> 8) & 0x0F)
    return bytes(out)


def unpack_codes(packed: bytes, count: int) -> List[int]:
    """Inverse of :func:`pack_codes` for ``count`` codes."""
    codes: List[int] = []
    i = 0
    while len(codes) + 2 <= count and i + 3 <= len(packed):
        b0, b1, b2 = packed[i], packed[i + 1], packed[i + 2]
        codes.append(b0 | ((b1 & 0x0F) << 8))
        codes.append(((b1 >> 4) & 0x0F) | (b2 << 4))
        i += 3
    if len(codes) < count and i + 2 <= len(packed):
        b0, b1 = packed[i], packed[i + 1]
        codes.append(b0 | ((b1 & 0x0F) << 8))
    return codes


#: The keys of a stream payload, in the order its ``repr`` lists them.
_PAYLOAD_KEYS = ("kind", "codes", "packed", "channels")


class StreamPayload(Mapping[str, Any]):
    """A read-only ECG stream payload whose codes are computed when
    first read.

    It reads as the dict ``{"kind": "ecg_stream", "codes": [...],
    "packed": pack_codes(codes), "channels": (...)}``: its keys, items,
    ``repr`` and ``==`` (:class:`~collections.abc.Mapping`'s) are that
    dict's.  It holds the app that queued the codes and the queued
    entries (a code, or a reference to a coalesced sample's code), and
    caches the dict when first read.
    """

    __slots__ = ("_app", "_entries", "_content")

    def __init__(self, app: "EcgStreamingApp", entries: List[int]) -> None:
        self._app = app
        self._entries = entries
        self._content: Optional[Dict[str, Any]] = None

    def _read(self) -> Dict[str, Any]:
        content = self._content
        if content is None:
            app = self._app
            codes = app._codes_of(self._entries)
            content = self._content = {
                "kind": "ecg_stream",
                "codes": codes,
                "packed": pack_codes(codes),
                "channels": app.channels,
            }
        return content

    def __getitem__(self, key: str) -> Any:
        return self._read()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(_PAYLOAD_KEYS)

    def __len__(self) -> int:
        return len(_PAYLOAD_KEYS)

    def __repr__(self) -> str:
        return repr(self._read())


class EcgStreamingApp(SamplingApplication):
    """Stream packed ECG samples to the base station every cycle.

    Args:
        payload_bytes: fixed on-air payload per cycle (default 18).
        buffer_limit_codes: backlog bound; oldest codes are dropped when
            acquisition outpaces the radio budget (the paper avoids this
            regime by matching sampling frequency to the cycle).
    """

    def __init__(self, sim: Simulator, scheduler: TaskScheduler,
                 asic: BiopotentialAsic, adc: Adc12, mac: NodeMac,
                 calibration: ModelCalibration,
                 channels: Sequence[int] = (0, 1),
                 sampling_hz: float = 205.0,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 buffer_limit_codes: Optional[int] = None,
                 name: str = "ecg_stream",
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, scheduler, asic, adc, mac, calibration,
                         channels, sampling_hz, name=name, trace=trace)
        if payload_bytes <= 0:
            raise ValueError(
                f"{name}: payload must be positive: {payload_bytes}")
        self.payload_bytes = payload_bytes
        self._capacity = codes_per_payload(payload_bytes)
        limit = buffer_limit_codes if buffer_limit_codes is not None \
            else 8 * self._capacity
        self._buffer: Deque[int] = deque(maxlen=limit)
        self.packets_provided = 0
        self.codes_sent = 0
        self.codes_dropped = 0

    @property
    def buffered_codes(self) -> int:
        """Codes currently awaiting transmission."""
        return len(self._buffer)

    def handle_samples(self, codes: Tuple[int, ...]) -> None:
        self._enqueue(codes)

    def flush_samples(self) -> None:
        """Queue the recorded coalesced samples, read later.

        Counts one ASIC read per channel and sample and one ADC
        conversion per code, as :meth:`SamplingApplication.flush_samples`
        does, and queues a reference to each code in its place, in the
        order :meth:`handle_samples` would queue the codes.
        """
        ticks = self._deferred_ticks
        if not ticks:
            return
        self._deferred_ticks = []
        channels = self.channels
        width = len(channels)
        for channel in channels:
            self._asic.count_reads(channel, len(ticks))
        self._adc.count_conversions(width * len(ticks))
        self.sample_tick = ticks[-1]
        # ~n is negative for every n >= 0, and a code never is.
        self._enqueue([~(tick * width + index) for tick in ticks
                       for index in range(width)])

    def _enqueue(self, entries: Sequence[int]) -> None:
        """Append codes or references, dropping the oldest past the
        buffer's bound."""
        buffer = self._buffer
        overflow = len(buffer) + len(entries) - (buffer.maxlen or 0)
        if overflow > 0:
            self.codes_dropped += overflow
        buffer.extend(entries)

    def _codes_of(self, entries: List[int]) -> List[int]:
        """The codes ``entries`` stand for: a code is itself, and the
        references are read as one block per channel, counting nothing
        (the flush counted them)."""
        width = len(self.channels)
        ticks: List[List[int]] = [[] for _ in range(width)]
        slots: List[List[int]] = [[] for _ in range(width)]
        for slot, entry in enumerate(entries):
            if entry < 0:
                tick, index = divmod(~entry, width)
                ticks[index].append(tick)
                slots[index].append(slot)
        codes = list(entries)
        block_values = self._asic.block_values
        quantize_block = self._adc.quantize_block
        for index, channel in enumerate(self.channels):
            if ticks[index]:
                read = quantize_block(block_values(channel, ticks[index]))
                for slot, code in zip(slots[index], read):
                    codes[slot] = code
        return codes

    def next_payload(self) -> Optional[AppPayload]:
        take = min(len(self._buffer), self._capacity)
        entries = [self._buffer.popleft() for _ in range(take)]
        self.packets_provided += 1
        self.codes_sent += take
        # Fixed-size frame: the platform always fills the ShockBurst
        # payload, padding when the buffer runs short.
        return (self.payload_bytes, StreamPayload(self, entries))


__all__ = [
    "DEFAULT_PAYLOAD_BYTES",
    "BITS_PER_CODE",
    "codes_per_payload",
    "pack_codes",
    "unpack_codes",
    "StreamPayload",
    "EcgStreamingApp",
]
