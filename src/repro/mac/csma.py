"""Unslotted CSMA/CA: the listen-before-talk contention MAC.

ALOHA (:mod:`repro.mac.aloha`) never listens; TDMA never contends.
Real BAN deployments overwhelmingly sit between the two: 802.15.4-style
CSMA/CA, the reference contention MAC of the WBAN surveys.  This module
supplies that missing family, following the unslotted (non-beacon)
802.15.4 algorithm:

1. A node polls its application every ``poll_interval`` on the ALOHA
   poll loop (:class:`CsmaNodeMac` subclasses
   :class:`~repro.mac.aloha.AlohaNodeMac`) and prepares at most one
   frame at a time.
2. Before transmitting it waits a random backoff of
   ``U[0, 2^BE - 1]`` backoff unit periods (``BE`` starts at
   ``min_be``), then performs a **clear-channel assessment**: the
   radio's receive chain dwells ``cca_ticks`` at RX current
   (:meth:`repro.hw.radio.Nrf2401.cca`) and reads busy if a frame
   whose audience includes the node is on the air when the window
   opens (:meth:`repro.phy.channel.Channel.is_busy_at`) or first
   reaches it during the window.
3. Channel idle: transmit immediately (one ShockBurst event).  Channel
   busy: increment ``BE`` (capped at ``max_be``) and go back to 2, up
   to ``max_backoffs`` retries; then the frame is **abandoned**
   (``tx_abandoned`` — the 802.15.4 channel-access failure).

Energy profile: a node pays ALOHA's TX events *plus* one or more
128 us CCA windows at RX current per frame — the price of collision
avoidance, a couple of orders of magnitude below TDMA's beacon-listen
windows.  The backoff wait itself is spent in stand-by (radio off by
default calibration) and costs nothing.

Every backoff draw comes from the named per-node stream
``<address>.csma_backoff`` of the simulator's RNG registry, so runs
are bit-reproducible and the RNG-provenance lint can verify the seed
path.  With a :class:`~repro.mac.recovery.RecoveryConfig` installed, a
streak of consecutive busy CCAs (a saturated channel — or a receive
chain locked up by the ``RadioLockup`` fault, which reads as noise)
widens the backoff-exponent cap by ``csma_be_boost`` until an idle
CCA clears it.

The base station is the ALOHA collector
(:class:`~repro.mac.aloha.AlohaBaseMac`) unchanged: a permanently
listening receiver with no acknowledgements (ShockBurst has none), so
collided frames are still silent losses — CSMA lowers their
probability, it cannot signal them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.frames import Frame
from ..sim.simtime import microseconds
from .aloha import AlohaConfig, AlohaNodeMac


@dataclass(frozen=True)
class CsmaConfig(AlohaConfig):
    """Parameters of the unslotted CSMA/CA MAC.

    Extends the ALOHA poll-loop parameters with the 802.15.4
    contention knobs (default values are the standard's:
    ``macMinBE = 3``, ``aMaxBE = 5``, ``macMaxCSMABackoffs = 4``, a
    20-symbol backoff unit and an 8-symbol CCA, scaled to the
    nRF2401's 1 Mbit/s symbol rate as 320 us / 128 us).

    Attributes:
        min_be: initial backoff exponent.
        max_be: cap on the backoff exponent.
        max_backoffs: busy CCAs tolerated per frame before it is
            abandoned (the 802.15.4 channel-access-failure limit).
        backoff_unit_ticks: one backoff unit period, in ticks.
        cca_ticks: duration of one clear-channel assessment, in ticks.
    """

    min_be: int = 3
    max_be: int = 5
    max_backoffs: int = 4
    backoff_unit_ticks: int = microseconds(320)
    cca_ticks: int = microseconds(128)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_be < 0:
            raise ValueError(f"min_be must be >= 0: {self.min_be}")
        if self.max_be < self.min_be:
            raise ValueError(
                f"max_be must be >= min_be: {self.max_be} < {self.min_be}")
        if self.max_backoffs < 0:
            raise ValueError(
                f"max_backoffs must be >= 0: {self.max_backoffs}")
        if self.backoff_unit_ticks <= 0:
            raise ValueError(
                f"backoff unit must be positive: {self.backoff_unit_ticks}")
        if self.cca_ticks <= 0:
            raise ValueError(
                f"cca duration must be positive: {self.cca_ticks}")


class CsmaNodeMac(AlohaNodeMac):
    """Node side: poll, back off, sense, and transmit only when clear.

    The ALOHA poll loop with contention: a polled frame is prepared at
    once (:meth:`_offer`) and then contends for the channel
    (:meth:`_transmit`) instead of waiting for a random instant.  While
    it contends, later polls are skipped.  Takes the same arguments as
    :class:`~repro.mac.aloha.AlohaNodeMac`; ``config`` must be a
    :class:`CsmaConfig`, and a ``recovery`` policy widens the backoff
    cap under busy-CCA streaks (None = plain 802.15.4 behaviour).
    """

    config: CsmaConfig
    _start_stream = "csma_start"
    #: Busy CCAs of the frame in contention, and its backoff exponent
    #: (both reset per frame by :meth:`_transmit`).
    _nb = 0
    _be = 0

    def _offer(self, frame: Frame) -> None:
        self._pending = frame
        self._queue_tx(frame)

    # ------------------------------------------------------------------
    # CSMA/CA attempt loop
    # ------------------------------------------------------------------
    def _transmit(self, frame: Frame) -> None:
        self._nb = 0
        self._be = self.config.min_be
        self._attempt(frame)

    def _cap_widened(self) -> bool:
        """Whether the busy streak has widened the backoff cap."""
        recovery = self.recovery
        return (recovery is not None and recovery.csma_busy_streak > 0
                and self._busy_streak >= recovery.csma_busy_streak)

    def _attempt(self, frame: Frame) -> None:
        units = self._sim.rng.uniform_ticks(
            f"{self._radio.address}.csma_backoff", 0, (1 << self._be) - 1)
        wait = units * self.config.backoff_unit_ticks
        self.counters.backoff_attempts += 1
        if self.spans is not None:
            self.spans.mac_phase(frame, "mac.backoff_wait",
                                 self._sim.now, self._sim.now + wait)
        self.after(wait, lambda: self._start_cca(frame),
                   label=f"{self.name}.backoff")

    def _start_cca(self, frame: Frame) -> None:
        start = self._sim.now
        self._radio.cca(self.config.cca_ticks,
                        lambda busy: self._cca_done(frame, start, busy))

    def _cca_done(self, frame: Frame, start: int, busy: bool) -> None:
        if self.spans is not None:
            self.spans.mac_phase(frame, "mac.cca", start, self._sim.now,
                                 "busy" if busy else "idle")
        if not busy:
            if self._trace is not None and self._cap_widened():
                self._trace.record(self._sim.now, self.name,
                                   "backoff_cap_restored", "")
            self._busy_streak = 0
            self._radio.send(frame, self._tx_done)
            return
        self.counters.cca_busy += 1
        self._busy_streak += 1
        recovery = self.recovery
        if recovery is not None \
                and self._busy_streak == recovery.csma_busy_streak:
            # Persistent busy readings: a saturated channel or a
            # locked-up receive chain.  Widen the contention window.
            self.counters.windows_widened += 1
            if self._trace is not None:
                self._trace.record(self._sim.now, self.name,
                                   "backoff_cap_widened",
                                   f"streak={self._busy_streak}")
        cap = self.config.max_be
        if recovery is not None and self._cap_widened():
            cap += recovery.csma_be_boost
        self._nb += 1
        self._be = min(self._be + 1, cap)
        if self._nb > self.config.max_backoffs:
            # 802.15.4 channel-access failure: the frame is dropped at
            # the MAC without ever hitting the air.
            self.counters.tx_abandoned += 1
            if self._trace is not None:
                self._trace.record(self._sim.now, self.name,
                                   "tx_abandoned", frame.describe())
            if self.spans is not None:
                self.spans.packet_abandoned(frame, self._sim.now)
            self._pending = None
            return
        self._attempt(frame)


__all__ = ["CsmaConfig", "CsmaNodeMac"]
