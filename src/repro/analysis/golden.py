"""Golden-value regression harness.

The simulator is deterministic, so a handful of canonical scenarios
have *exact* expected outputs.  This module pins them: any model change
that moves a golden number is either a bug or an intentional
recalibration (in which case the goldens are regenerated with
:func:`compute_goldens` and reviewed like any other diff).

The canonical set is chosen for coverage, not speed alone: both TDMA
MACs, both applications and the join protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net.scenario import BanScenario, BanScenarioConfig

#: The canonical scenario set: name -> config factory.
CANONICAL: Dict[str, BanScenarioConfig] = {}


def _register(name: str, **kwargs: object) -> None:
    CANONICAL[name] = BanScenarioConfig(**kwargs)


_register("streaming_static_30ms",
          mac="static", app="ecg_streaming", num_nodes=3, cycle_ms=30.0,
          sampling_hz=205.0, measure_s=4.0, seed=0)
_register("streaming_dynamic_3n",
          mac="dynamic", app="ecg_streaming", num_nodes=3, slot_ms=10.0,
          measure_s=4.0, seed=0)
_register("rpeak_static_120ms",
          mac="static", app="rpeak", num_nodes=3, cycle_ms=120.0,
          heart_rate_bpm=75.0, measure_s=4.0, seed=0)
_register("join_dynamic_3n",
          mac="dynamic", app="rpeak", num_nodes=3, join_protocol=True,
          measure_s=4.0, seed=0)


@dataclass(frozen=True)
class GoldenValue:
    """One pinned output: (radio, mcu) mJ for node1 plus traffic."""

    radio_mj: float
    mcu_mj: float
    data_tx: int
    control_rx: int


#: The pinned expectations.  Regenerate with ``compute_goldens()`` after
#: an intentional model change and review the diff.
GOLDENS: Dict[str, GoldenValue] = {
    "streaming_static_30ms": GoldenValue(
        radio_mj=33.563852056, mcu_mj=10.765025488,
        data_tx=133, control_rx=134),
    "streaming_dynamic_3n": GoldenValue(
        radio_mj=22.39678, mcu_mj=9.9215984,
        data_tx=100, control_rx=100),
    "rpeak_static_120ms": GoldenValue(
        radio_mj=7.858938304, mcu_mj=9.00265856,
        data_tx=8, control_rx=34),
    "join_dynamic_3n": GoldenValue(
        radio_mj=20.161398208, mcu_mj=9.55735424,
        data_tx=8, control_rx=100),
}


def compute_goldens(names: Tuple[str, ...] = tuple(CANONICAL)
                    ) -> Dict[str, GoldenValue]:
    """Run the canonical set and return fresh golden values."""
    out: Dict[str, GoldenValue] = {}
    for name in names:
        result = BanScenario(CANONICAL[name]).run()
        node = result.node("node1")
        out[name] = GoldenValue(
            radio_mj=round(node.radio_mj, 9),
            mcu_mj=round(node.mcu_mj, 9),
            data_tx=node.traffic.data_tx,
            control_rx=node.traffic.control_rx,
        )
    return out


def check_goldens(rel_tolerance: float = 1e-9) -> List[str]:
    """Compare fresh runs against the pinned values.

    Returns a list of human-readable deviations (empty = all good).
    """
    deviations: List[str] = []
    fresh = compute_goldens()
    for name, expected in GOLDENS.items():
        actual = fresh[name]
        for field in ("radio_mj", "mcu_mj"):
            want = getattr(expected, field)
            got = getattr(actual, field)
            if abs(got - want) > rel_tolerance * max(abs(want), 1e-12):
                deviations.append(
                    f"{name}.{field}: expected {want!r}, got {got!r}")
        for field in ("data_tx", "control_rx"):
            if getattr(expected, field) != getattr(actual, field):
                deviations.append(
                    f"{name}.{field}: expected "
                    f"{getattr(expected, field)}, got "
                    f"{getattr(actual, field)}")
    return deviations


def format_goldens(values: Dict[str, GoldenValue]) -> str:
    """Render a dict literal suitable for pasting into this module."""
    lines = ["GOLDENS: Dict[str, GoldenValue] = {"]
    for name, value in values.items():
        lines.append(f'    "{name}": GoldenValue(')
        lines.append(f"        radio_mj={value.radio_mj!r}, "
                     f"mcu_mj={value.mcu_mj!r},")
        lines.append(f"        data_tx={value.data_tx}, "
                     f"control_rx={value.control_rx}),")
    lines.append("}")
    return "\n".join(lines)


__all__ = ["CANONICAL", "GoldenValue", "GOLDENS", "compute_goldens",
           "check_goldens", "format_goldens"]
