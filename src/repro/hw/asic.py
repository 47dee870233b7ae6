"""25-channel biopotential ASIC model.

The IMEC front-end ASIC extracts up to 24 EEG channels plus 1 ECG channel
(Section 3).  Its power consumption is constant — 10.5 mW at 3.0 V — and
the paper therefore excludes it from the validation tables; we model it
anyway so whole-node budgets are possible
(:class:`~repro.core.report.NodeEnergyResult` carries it in a separate
field).

Electrically the ASIC has a single "on" state; functionally it exposes
analog channel outputs the MCU's ADC samples.  Channels are backed by
:class:`~repro.signals.sources.SignalSource` objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.calibration import ModelCalibration
from ..core.ledger import PowerStateLedger
from ..core.states import PowerState, PowerStateTable
from ..sim.kernel import Simulator
from ..sim.simtime import TICKS_PER_SECOND, to_seconds

if TYPE_CHECKING:
    from ..signals.sources import SignalSource

#: Total number of analog channels (24 EEG + 1 ECG).
NUM_CHANNELS = 25

#: Index of the dedicated ECG channel (by convention the last one).
ECG_CHANNEL = 24


class BiopotentialAsic:
    """Constant-power sensing front-end with pluggable channel sources."""

    def __init__(self, sim: Simulator, calibration: ModelCalibration,
                 name: str = "asic") -> None:
        self._sim = sim
        self._cal = calibration
        self.name = name
        current_a = calibration.asic_power_w / calibration.asic_supply_v
        table = PowerStateTable([
            PowerState("on", current_a),
            PowerState("off", 0.0),
        ])
        self.ledger = PowerStateLedger(
            sim, name, table, calibration.asic_supply_v, initial_state="on")
        self._sources: Dict[int, "SignalSource"] = {}
        self._reads = 0

    def connect_source(self, channel: int, source: "SignalSource") -> None:
        """Back analog ``channel`` with a signal source.

        ``source`` must provide ``value_at(t_seconds) -> float`` and
        its block form ``values_at`` (see :mod:`repro.signals.sources`).
        """
        self._check_channel(channel)
        self._sources[channel] = source

    def read_channel(self, channel: int, at: Optional[int] = None) -> float:
        """Analog value of ``channel`` (volts) at tick ``at``.

        ``at`` defaults to the current instant; a coalesced sample
        passes its acquisition tick.  Unconnected channels read 0.0
        (inputs shorted to reference).
        """
        self._check_channel(channel)
        self._reads += 1
        source = self._sources.get(channel)
        if source is None:
            return 0.0
        return source.value_at(to_seconds(self._sim.now if at is None
                                          else at))

    def read_block(self, channel: int, ticks: Sequence[int]) -> List[float]:
        """``[read_channel(channel, t) for t in ticks]`` in one call.

        ``ticks`` ascending; counts one read per tick
        (:meth:`count_reads`) and returns :meth:`block_values`.
        """
        self.count_reads(channel, len(ticks))
        return self.block_values(channel, ticks)

    def count_reads(self, channel: int, count: int) -> None:
        """Count ``count`` reads of ``channel`` without evaluating them.

        A reader that needs the values later takes them from
        :meth:`block_values`, which counts nothing.
        """
        self._check_channel(channel)
        self._reads += count

    def block_values(self, channel: int,
                     ticks: Sequence[int]) -> List[float]:
        """The values :meth:`read_block` returns, without counting.

        ``ticks`` ascending.  The source evaluates the whole block with
        ``values_at``, bit for bit the values :meth:`read_channel`
        returns; sources are pure functions of time, so the values do
        not depend on when they are asked for.
        """
        source = self._sources.get(channel)
        if source is None:
            return [0.0] * len(ticks)
        # to_seconds, inlined per tick.
        return source.values_at([t / TICKS_PER_SECOND for t in ticks])

    @property
    def reads(self) -> int:
        """Number of channel reads performed (diagnostics)."""
        return self._reads

    def power_off(self) -> None:
        """Shut the front-end down (not used in the paper's case studies)."""
        self.ledger.transition("off")

    def power_on(self) -> None:
        """Turn the front-end on."""
        self.ledger.transition("on")

    def energy_mj(self) -> float:
        """Total ASIC energy so far, in millijoules."""
        return self.ledger.energy_mj()

    def reset_measurement(self) -> None:
        """Clear the ledger at the start of a measurement window."""
        self.ledger.reset()
        self._reads = 0

    @staticmethod
    def _check_channel(channel: int) -> None:
        if not 0 <= channel < NUM_CHANNELS:
            raise ValueError(
                f"channel must be in [0, {NUM_CHANNELS}), got {channel}")


__all__ = ["BiopotentialAsic", "NUM_CHANNELS", "ECG_CHANNEL"]
