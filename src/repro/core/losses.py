"""Radio energy attribution: the Section 4.2 loss taxonomy.

The paper's radio model explicitly accounts four sources of wasted
energy — collisions, idle listening, overhearing and control-packet
overhead — on top of useful transmission/reception.  This module makes
that attribution a first-class output: every joule the radio draws is
assigned to exactly one :class:`RadioEnergyCategory`.

The :class:`LossAccountant` is fed by the radio model:

* each completed TX books its energy as data/control (or collision, if
  the channel corrupted it),
* each frame that occupied the receiver books its airtime energy as
  data/control/overheard/collision,
* whatever RX-state energy remains unattributed at report time is, by
  definition, **idle listening** (the receiver was on with nothing
  usefully arriving).

The test suite checks the invariant ``sum(categories) == ledger total``.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict


class RadioEnergyCategory(enum.Enum):
    """Where one joule of radio energy went."""

    #: Transmitting application data that arrived intact.
    DATA_TX = "data_tx"
    #: Receiving application data addressed to this node, intact.
    DATA_RX = "data_rx"
    #: Transmitting MAC control traffic (beacons, slot requests, grants).
    CONTROL_TX = "control_tx"
    #: Receiving MAC control traffic addressed to (or broadcast at) us.
    CONTROL_RX = "control_rx"
    #: Receiving frames addressed to another node (dropped by the
    #: nRF2401 hardware address filter, but the RX energy is spent).
    OVERHEARING = "overhearing"
    #: TX or RX time spent on frames corrupted by a collision.
    COLLISION = "collision"
    #: Receiver on with no frame usefully arriving (guard windows etc.).
    IDLE_LISTENING = "idle_listening"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ runs in Python, and LossAccountant.book hashes a member
    # four times per booking.  Dict order is insertion order either way.
    __hash__ = object.__hash__


#: Categories that represent waste in the paper's sense (Section 4.2).
WASTE_CATEGORIES = (
    RadioEnergyCategory.CONTROL_TX,
    RadioEnergyCategory.CONTROL_RX,
    RadioEnergyCategory.OVERHEARING,
    RadioEnergyCategory.COLLISION,
    RadioEnergyCategory.IDLE_LISTENING,
)


@dataclass(frozen=True)
class LossBreakdown:
    """Immutable snapshot of a node's radio-energy attribution."""

    energy_j: Dict[RadioEnergyCategory, float]
    frames: Dict[RadioEnergyCategory, int]

    @property
    def total_j(self) -> float:
        """Sum of all categories (should equal the radio ledger total)."""
        return sum(self.energy_j.values())

    @property
    def waste_j(self) -> float:
        """Energy in the paper's waste categories."""
        return sum(self.energy_j.get(c, 0.0) for c in WASTE_CATEGORIES)

    @property
    def useful_j(self) -> float:
        """Energy spent on intact application data TX/RX."""
        return (self.energy_j.get(RadioEnergyCategory.DATA_TX, 0.0)
                + self.energy_j.get(RadioEnergyCategory.DATA_RX, 0.0))

    def fraction(self, category: RadioEnergyCategory) -> float:
        """Share of total radio energy in ``category`` (0 when total is 0)."""
        total = self.total_j
        if total <= 0:
            return 0.0
        return self.energy_j.get(category, 0.0) / total


class LossAccountant:
    """Mutable per-node attribution counters, filled by the radio model."""

    def __init__(self) -> None:
        self._energy: Dict[RadioEnergyCategory, float] = defaultdict(float)
        self._frames: Dict[RadioEnergyCategory, int] = defaultdict(int)
        self._tx_side_collision_j = 0.0

    def book(self, category: RadioEnergyCategory, energy_j: float,
             frames: int = 1) -> None:
        """Attribute ``energy_j`` joules (and ``frames`` frames) to a cause."""
        if energy_j < 0:
            raise ValueError(f"negative energy: {energy_j}")
        self._energy[category] += energy_j
        self._frames[category] += frames

    def attributed_rx_j(self) -> float:
        """RX-side energy already attributed to frames.

        Used to derive idle listening as the residual against the ledger's
        total RX-state energy.
        """
        rx_categories = (RadioEnergyCategory.DATA_RX,
                         RadioEnergyCategory.CONTROL_RX,
                         RadioEnergyCategory.OVERHEARING,
                         RadioEnergyCategory.COLLISION)
        # Collision energy can be TX-side too; the radio books RX-side
        # collision energy here and TX-side separately, so the residual
        # computation only subtracts what was booked from RX state.
        return sum(self._energy.get(c, 0.0) for c in rx_categories) \
            - self._tx_side_collision_j

    def book_collision_tx(self, energy_j: float, frames: int = 1) -> None:
        """Attribute a corrupted *transmission* (kept separable so the
        idle-listening residual only considers RX-side bookings)."""
        self.book(RadioEnergyCategory.COLLISION, energy_j, frames)
        self._tx_side_collision_j += energy_j

    def finalize(self, total_rx_state_j: float) -> None:
        """Assign the unattributed RX-state residual to idle listening.

        Args:
            total_rx_state_j: the radio ledger's total energy in RX state.
        """
        residual = total_rx_state_j - self.attributed_rx_j()
        # Tolerate tiny negative residuals from float rounding.
        if residual < -1e-9:
            raise ValueError(
                f"attributed RX energy exceeds RX-state total by "
                f"{-residual:.3e} J; attribution is inconsistent")
        self._energy[RadioEnergyCategory.IDLE_LISTENING] += max(0.0, residual)

    def snapshot(self) -> LossBreakdown:
        """Freeze the current counters into a :class:`LossBreakdown`."""
        return LossBreakdown(energy_j=dict(self._energy),
                             frames=dict(self._frames))


__all__ = [
    "RadioEnergyCategory",
    "WASTE_CATEGORIES",
    "LossBreakdown",
    "LossAccountant",
]
