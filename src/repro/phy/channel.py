"""The shared radio medium.

The paper's key correction to stock TOSSIM (Section 4.2) is collision
realism: TOSSIM merges simultaneous transmissions with a logical OR and
assumes every packet arrives, so collisions are invisible.  Here a frame
reaches a receiver **corrupted** when

* its airtime overlaps another frame's airtime at that receiver, or
* the per-link loss model says the frame took bit errors.

The corruption is then *detectable* because the nRF2401 model implements
the hardware CRC — exactly the paper's mechanism.

Mechanics: a transmitting radio calls :meth:`Channel.begin_transmission`
when its frame's first bit hits the air and :meth:`Channel.end_transmission`
when the last bit leaves.  A frame's *audience* is every radio in range
on the sender's RF channel; the channel computes it once per sender and
caches it.  Overlaps and loss draws are decided for the whole audience
at the first bit, and the frames in flight are the only in-flight
state: carrier sense and overlap detection both read their audiences.
Only *listeners* are notified — audience radios whose chain is on at the
first bit (receiving, or sensing the carrier), plus a radio whose
receive chain comes on at that very tick.  A radio whose chain is off
can neither capture the frame nor spend energy on it, just as the
nRF2401 keeps such frames away from the MCU.  Listeners decide capture
(they must have been in RX for the whole airtime) and book energy.
Propagation delay is negligible at BAN scale (< 10 ns over 3 m) and is
modelled as zero.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .lossmodels import LossModel, PerfectChannel
from .topology import FullConnectivity, Topology
from ..hw.frames import Frame
from ..hw.radio import TxOutcome

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.radio import Nrf2401
    from ..obs.spans import SpanTracer

#: A sender's receivers, in attach order, and the set of their addresses.
Audience = Tuple[Tuple["Nrf2401", ...], FrozenSet[str]]


@dataclass(slots=True)
class Transmission:
    """One frame in flight.

    ``receivers`` is the sender's audience when the first bit hit the
    air (a tuple shared with the sender's other frames) and ``audience``
    holds their addresses; both stay fixed for the frame's lifetime, so
    its two edges see the same audience.  ``listeners`` are the
    receivers notified at both edges, in receiver order: those whose
    chain was on at the first bit, plus any whose receive chain came on
    at that same tick.  ``corrupted_at`` collects receiver addresses
    where the frame will fail the CRC (collision overlap or loss-model
    draw); ``delivered_to`` collects receivers whose radio accepted and
    delivered it.
    """

    frame: Frame
    sender: "Nrf2401"
    start_time: int
    airtime: int
    receivers: Tuple["Nrf2401", ...]
    audience: FrozenSet[str]
    listeners: List["Nrf2401"]
    corrupted_at: Set[str] = field(default_factory=set)
    delivered_to: List[str] = field(default_factory=list)

    @property
    def end_time(self) -> int:
        """Instant the last bit leaves the air."""
        return self.start_time + self.airtime


class Channel:
    """Zero-delay broadcast medium with per-receiver collision detection.

    Args:
        sim: simulation kernel (clock + RNG for the loss model).
        topology: reachability model; defaults to full connectivity.
        loss_model: per-link corruption model; defaults to perfect.
            The channel draws on its own copy, so a model that counts
            frames (:class:`~repro.phy.lossmodels.DeterministicLoss`)
            counts each run from zero and the caller's is never written.
    """

    def __init__(self, sim: Simulator,
                 topology: Optional[Topology] = None,
                 loss_model: Optional[LossModel] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self.topology = topology if topology is not None \
            else FullConnectivity()
        self.loss_model = deepcopy(loss_model) if loss_model is not None \
            else PerfectChannel()
        self._trace = trace
        self._radios: Dict[str, "Nrf2401"] = {}
        # Audience per (sender address, sender RF channel).  Reachability
        # is fixed for the channel's lifetime, so only attach() and a
        # retune (retuned()) make an entry stale.
        self._audiences: Dict[Tuple[str, int], Audience] = {}
        # Frames on the air, by frame id in first-bit order: the only
        # in-flight state, read by carrier sense and overlap detection.
        self._live: Dict[int, Transmission] = {}
        self._collisions_detected = 0
        self._frames_sent = 0
        #: Optional causal-span tracer (:mod:`repro.obs.spans`).
        self.spans: Optional["SpanTracer"] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, radio: "Nrf2401") -> None:
        """Register a radio on the medium.  Addresses must be unique."""
        if radio.address in self._radios:
            raise ValueError(
                f"duplicate radio address {radio.address!r} on channel")
        self._radios[radio.address] = radio
        self._audiences.clear()

    def retuned(self) -> None:
        """An attached radio changed RF channel: drop cached audiences.

        Frames already on the air keep the audience they started with.
        """
        self._audiences.clear()

    @property
    def radios(self) -> Dict[str, "Nrf2401"]:
        """Attached radios by address (read-only view by convention)."""
        return self._radios

    def is_busy_at(self, address: str) -> bool:
        """Carrier sense: is any transmission in flight at ``address``?

        True while at least one frame on the air has the radio at
        ``address`` in its audience (in range, same RF channel, not its
        own transmission).  This is the PHY query a CCA window samples
        when it opens; overlap detection reads the same audiences, so
        "busy" and "would collide" agree by construction.  Raises
        ``KeyError`` for an address no radio is attached at.
        """
        if address not in self._radios:
            raise KeyError(address)
        return any(address in transmission.audience
                   for transmission in self._live.values())

    @property
    def collisions_detected(self) -> int:
        """Number of (transmission, receiver) overlap corruptions so far."""
        return self._collisions_detected

    @property
    def frames_sent(self) -> int:
        """Total transmissions that have hit the air."""
        return self._frames_sent

    def _audience_of(self, sender: "Nrf2401") -> Audience:
        key = (sender.address, sender.rf_channel)
        audience = self._audiences.get(key)
        if audience is None:
            sender_address, sender_rf = key
            in_range = self.topology.in_range
            receivers = tuple(
                radio for address, radio in self._radios.items()
                if address != sender_address
                and radio.rf_channel == sender_rf
                and in_range(sender_address, address))
            audience = (receivers,
                        frozenset(radio.address for radio in receivers))
            self._audiences[key] = audience
        return audience

    def rx_started(self, radio: "Nrf2401") -> None:
        """A receive chain came on: it listens to frames starting now.

        A radio entering RX on a frame's first-bit tick, after the
        channel began that frame, captures it all the same, so it joins
        the frame's listeners, in receiver order.  Frames that began
        earlier can no longer be captured.
        """
        now = self._sim.now
        address = radio.address
        for transmission in self._live.values():
            listeners = transmission.listeners
            if (transmission.start_time == now
                    and address in transmission.audience
                    and radio not in listeners):
                joined = set(listeners)
                joined.add(radio)
                transmission.listeners = [
                    receiver for receiver in transmission.receivers
                    if receiver in joined]

    # ------------------------------------------------------------------
    # Transmission lifecycle (called by the transmitting radio)
    # ------------------------------------------------------------------
    def begin_transmission(self, sender: "Nrf2401", frame: Frame,
                           airtime: int) -> Transmission:
        """First bit on air: create the transmission and notify listeners.

        Overlap detection happens here: at every receiver the new frame
        shares with a frame still on the air, both are marked corrupted.
        The count grows by one per (frame, receiver) pair newly
        corrupted.
        """
        now = self._sim.now
        receivers, audience = self._audience_of(sender)
        # A chain is on while receiving (_rx_since set) or sensing the
        # carrier (_cca_since set).
        listeners = [radio for radio in receivers
                     if radio._rx_since is not None
                     or radio._cca_since is not None]
        transmission = Transmission(frame=frame, sender=sender,
                                    start_time=now,
                                    airtime=airtime,
                                    receivers=receivers,
                                    audience=audience,
                                    listeners=listeners)
        corrupted_at = transmission.corrupted_at
        live = self._live
        for other in live.values():
            shared = audience & other.audience
            if shared:
                fresh = shared - other.corrupted_at
                other.corrupted_at |= fresh
                self._collisions_detected += len(fresh)
                corrupted_at |= shared
        self._collisions_detected += len(corrupted_at)
        frame_id = frame.frame_id
        live[frame_id] = transmission
        self._frames_sent += 1
        if self._trace is not None:
            self._trace.record(now, "channel", "air_start",
                               frame.describe())
        if self.spans is not None:
            self.spans.air_begin(frame, now)
        loss_model = self.loss_model
        # A model that never overrides is_corrupted (the lossless base
        # behaviour) needs no per-receiver draw at all.
        if type(loss_model).is_corrupted is not LossModel.is_corrupted:
            src = sender.address
            rng = self._sim.rng
            for receiver in receivers:
                address = receiver.address
                if loss_model.is_corrupted(rng, src, address, frame_id):
                    corrupted_at.add(address)
        for radio in listeners:
            radio.frame_arrival_start(transmission)
        return transmission

    def end_transmission(self, transmission: Transmission) -> TxOutcome:
        """Last bit off air: notify listeners and summarise the outcome."""
        frame = transmission.frame
        self._live.pop(frame.frame_id, None)
        if self._trace is not None:
            self._trace.record(self._sim.now, "channel", "air_end",
                               frame.describe())
        if self.spans is not None:
            self.spans.air_end(frame, self._sim.now)
        corrupted_at = transmission.corrupted_at
        for radio in transmission.listeners:
            radio.frame_arrival_end(transmission,
                                    radio.address in corrupted_at)
        return TxOutcome(frame=frame,
                         corrupted_at=sorted(corrupted_at),
                         delivered_to=list(transmission.delivered_to))


__all__ = ["Channel", "Transmission"]
