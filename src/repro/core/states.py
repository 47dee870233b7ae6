"""Power-state definitions and declared transition tables.

The paper's energy model is *time-in-state*: each hardware component is,
at any instant, in exactly one power state with a characteristic current
draw, and its energy is ``E = I * Vdd * t`` summed over the intervals
spent in each state (Section 4.1 of the paper).

:class:`PowerState` couples a state name with its current; component
models declare a :class:`PowerStateTable` of the states they support.

:class:`TransitionSpec` declares which state *changes* a component is
allowed to make — the edges of its power-state machine.  The specs for
the three energy-booking components live here, next to the calibration
data they guard, and are verified two ways: statically by the lint
suite's state-machine analysis (``repro.lint.statemachine`` proves the
code encodes exactly these edges) and at runtime by the test suite.
The fields must stay *literals*: the analyzer reads them from the AST
without importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple


@dataclass(frozen=True)
class PowerState:
    """One power state of a hardware component.

    Attributes:
        name: identifier unique within the component (e.g. ``"rx"``).
        current_a: current drawn in this state, in amperes.
    """

    name: str
    current_a: float

    def __post_init__(self) -> None:
        if self.current_a < 0:
            raise ValueError(
                f"state {self.name!r}: current must be >= 0, "
                f"got {self.current_a}")

    def power_w(self, supply_v: float) -> float:
        """Power drawn in this state at supply voltage ``supply_v``."""
        return self.current_a * supply_v


class PowerStateTable:
    """The set of power states a component supports, indexed by name."""

    def __init__(self, states: Iterable[PowerState]) -> None:
        self._states: Dict[str, PowerState] = {}
        for state in states:
            if state.name in self._states:
                raise ValueError(f"duplicate power state {state.name!r}")
            self._states[state.name] = state
        if not self._states:
            raise ValueError("a component needs at least one power state")

    def __getitem__(self, name: str) -> PowerState:
        try:
            return self._states[name]
        except KeyError:
            raise KeyError(
                f"unknown power state {name!r}; "
                f"known: {sorted(self._states)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __iter__(self) -> Iterator[PowerState]:
        return iter(self._states.values())

    def names(self) -> Iterator[str]:
        """Iterate over state names."""
        return iter(self._states.keys())


@dataclass(frozen=True)
class TransitionSpec:
    """Declared power-state machine of one hardware component.

    Attributes:
        component: short label used in reports (``"radio"``).
        module: module path (suffix) of the implementing class.
        class_name: the class whose ledger encodes this machine.
        initial: state the ledger is constructed in.
        states: every state (must equal the PowerStateTable's set).
        transitions: the legal ``(src, dst)`` edges; self-loops are
            re-tags, never listed.
        busy_flags: boolean attributes documented to be equivalent to
            "state is in this subset" (``_tx_busy`` ⇔ ``state ==
            "tx"``), which is what lets ``if self._tx_busy: raise``
            guards narrow the static analysis.
    """

    component: str
    module: str
    class_name: str
    initial: str
    states: Tuple[str, ...]
    transitions: Tuple[Tuple[str, str], ...]
    busy_flags: Tuple[Tuple[str, Tuple[str, ...]], ...] = field(
        default=())

    def __post_init__(self) -> None:
        known = set(self.states)
        if self.initial not in known:
            raise ValueError(
                f"{self.component}: initial state {self.initial!r} "
                f"not in {sorted(known)}")
        for src, dst in self.transitions:
            if src not in known or dst not in known:
                raise ValueError(
                    f"{self.component}: transition {src!r} -> {dst!r} "
                    f"references an unknown state")
            if src == dst:
                raise ValueError(
                    f"{self.component}: self-loop {src!r} -> {dst!r} "
                    f"(a same-state change is a re-tag, not a "
                    f"transition)")

    def allows(self, src: str, dst: str) -> bool:
        """Whether the machine may move from ``src`` to ``dst``."""
        return src == dst or (src, dst) in self.transitions


#: MSP430 core (``repro/hw/mcu.py``): the scheduler wakes it from
#: either power-saving mode, and ``sleep(deep=...)`` selects (or
#: deepens/lightens) the LPM from any state.
MCU_TRANSITIONS = TransitionSpec(
    component="mcu",
    module="hw/mcu.py",
    class_name="Msp430",
    initial="sleep",
    states=("active", "sleep", "deep_sleep"),
    transitions=(
        ("sleep", "active"),        # wake() for the next task
        ("deep_sleep", "active"),   # wake() from the deep-sleep what-if
        ("active", "sleep"),        # task queue drained
        ("active", "deep_sleep"),   # deep-sleep policy extension
        ("sleep", "deep_sleep"),    # power manager deepens a sleep
        ("deep_sleep", "sleep"),    # ... or lightens it
    ),
)

#: nRF2401 transceiver (``repro/hw/radio.py``).  RX, TX and the CCA
#: sensing window are entered only from stand-by (plus the RX -> TX
#: ShockBurst mode switch); the chip must power up to stand-by before
#: doing anything, which is why there is no ``power_down -> tx``/``rx``
#: edge, and powers down only from stand-by.  ``cca`` is a bounded
#: receive-chain dwell (carrier sense at RX current) that always
#: returns to stand-by.
RADIO_TRANSITIONS = TransitionSpec(
    component="radio",
    module="hw/radio.py",
    class_name="Nrf2401",
    initial="power_down",
    states=("power_down", "standby", "tx", "rx", "cca"),
    transitions=(
        ("power_down", "standby"),  # power_up()
        ("standby", "power_down"),  # power_down()
        ("standby", "rx"),          # start_rx()
        ("rx", "standby"),          # rx tail complete
        ("standby", "tx"),          # send() (ShockBurst event)
        ("rx", "tx"),               # send() mode switch mid-listen
        ("tx", "standby"),          # ShockBurst event complete
        ("standby", "cca"),         # cca() carrier-sense window
        ("cca", "standby"),         # sensing window complete
    ),
    busy_flags=(("_tx_busy", ("tx",)),),
)

#: Biopotential ASIC (``repro/hw/asic.py``): a plain on/off switch.
ASIC_TRANSITIONS = TransitionSpec(
    component="asic",
    module="hw/asic.py",
    class_name="BiopotentialAsic",
    initial="on",
    states=("on", "off"),
    transitions=(
        ("on", "off"),              # power_off()
        ("off", "on"),              # power_on()
    ),
)

#: All declared component state machines, for tests and tooling.
ALL_TRANSITION_SPECS: Tuple[TransitionSpec, ...] = (
    MCU_TRANSITIONS, RADIO_TRANSITIONS, ASIC_TRANSITIONS,
)


__all__ = [
    "ALL_TRANSITION_SPECS",
    "ASIC_TRANSITIONS",
    "MCU_TRANSITIONS",
    "PowerState",
    "PowerStateTable",
    "RADIO_TRANSITIONS",
    "TransitionSpec",
]
