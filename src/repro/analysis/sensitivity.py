"""Calibration sensitivity (tornado) analysis.

Four of the model's parameters are fitted rather than measured (the
guard windows, TX event overheads and per-task MCU costs — DESIGN.md
§3).  How much does each one matter?  This module perturbs each
calibration parameter by ±``relative`` and recomputes the node energy
with the closed-form predictor, producing the classic tornado ranking:
parameters whose swing moves the result most deserve the most
measurement care.

Because the predictor is analytic, a full tornado over every parameter
is instantaneous — this is the "what should we calibrate first?"
tool a platform bring-up wants.  ``method="simulate"`` swaps the
predictor for full discrete-event runs (one per perturbation, fanned
out through a :class:`~repro.exec.ScenarioExecutor`), which also
captures effects the closed form ignores (losses, contention).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.calibration import ModelCalibration
from ..exec import ScenarioExecutor
from ..net.scenario import BanScenarioConfig
from .closed_form import predict

#: The perturbable calibration parameters: name -> (getter, setter).
#: Setters return a *new* ModelCalibration (everything is frozen).


def _replace_sync(cal: ModelCalibration, **kw: float) -> ModelCalibration:
    return dataclasses.replace(cal,
                               sync=dataclasses.replace(cal.sync, **kw))


def _replace_timing(cal: ModelCalibration,
                    **kw: float) -> ModelCalibration:
    return dataclasses.replace(
        cal, radio_timing=dataclasses.replace(cal.radio_timing, **kw))


def _replace_costs(cal: ModelCalibration, **kw: float) -> ModelCalibration:
    kw = {key: round(value) for key, value in kw.items()}
    return dataclasses.replace(
        cal, mcu_costs=dataclasses.replace(cal.mcu_costs, **kw))


Scaler = Callable[[ModelCalibration, float], ModelCalibration]

#: name -> function scaling that one parameter by ``factor``.
PARAMETERS: Dict[str, Scaler] = {
    "radio_rx_current": lambda cal, f: dataclasses.replace(
        cal, radio_rx_a=cal.radio_rx_a * f),
    "radio_tx_current": lambda cal, f: dataclasses.replace(
        cal, radio_tx_a=cal.radio_tx_a * f),
    "mcu_active_current": lambda cal, f: dataclasses.replace(
        cal, mcu_active_a=cal.mcu_active_a * f),
    "mcu_sleep_current": lambda cal, f: dataclasses.replace(
        cal, mcu_sleep_a=cal.mcu_sleep_a * f),
    "static_guard_lead": lambda cal, f: _replace_sync(
        cal, static_lead_s=cal.sync.static_lead_s * f),
    "dynamic_guard_base": lambda cal, f: _replace_sync(
        cal, dynamic_base_lead_s=cal.sync.dynamic_base_lead_s * f),
    "tx_settle_time": lambda cal, f: _replace_timing(
        cal, tx_settle_s=cal.radio_timing.tx_settle_s * f),
    "beacon_processing_cost": lambda cal, f: _replace_costs(
        cal, beacon_processing=cal.mcu_costs.beacon_processing * f),
    "packet_preparation_cost": lambda cal, f: _replace_costs(
        cal, packet_preparation=cal.mcu_costs.packet_preparation * f),
    "sample_acquisition_cost": lambda cal, f: _replace_costs(
        cal, sample_acquisition=cal.mcu_costs.sample_acquisition * f),
    "rpeak_algorithm_cost": lambda cal, f: _replace_costs(
        cal, rpeak_algorithm=cal.mcu_costs.rpeak_algorithm * f),
}


@dataclass(frozen=True)
class SensitivityEntry:
    """One tornado bar: the output swing from one parameter's ±range."""

    parameter: str
    nominal_mj: float
    low_mj: float
    high_mj: float

    @property
    def swing_mj(self) -> float:
        """|high - low| — the bar length."""
        return abs(self.high_mj - self.low_mj)

    @property
    def swing_fraction(self) -> float:
        """Swing relative to the nominal output."""
        if self.nominal_mj <= 0:
            return 0.0
        return self.swing_mj / self.nominal_mj


def _extract(quantity: str) -> Callable[[object], float]:
    """Value extractor for a prediction or a reported node result.

    Both :class:`~repro.analysis.closed_form` predictions and
    :class:`~repro.core.report.NodeEnergyResult` expose
    ``radio_mj``/``mcu_mj``/``total_mj``, so one extractor serves both
    tornado methods.
    """
    if quantity not in ("total", "radio", "mcu"):
        raise ValueError(
            f"quantity must be total/radio/mcu, got {quantity!r}")
    attribute = f"{quantity}_mj"
    return lambda value: float(getattr(value, attribute))


def tornado(config: BanScenarioConfig, relative: float = 0.10,
            parameters: Sequence[str] = tuple(PARAMETERS),
            quantity: str = "total",
            method: str = "analytic",
            executor: Optional[ScenarioExecutor] = None
            ) -> List[SensitivityEntry]:
    """Sensitivity of the node energy to each calibration parameter.

    Args:
        config: the scenario whose energy is analysed.
        relative: the ± perturbation (0.10 = ±10%).
        parameters: which parameters to perturb (default: all).
        quantity: ``"total"`` (radio+MCU), ``"radio"`` or ``"mcu"``.
        method: ``"analytic"`` (closed-form, instantaneous) or
            ``"simulate"`` (full discrete-event run per perturbation —
            2·|parameters|+1 scenarios, batched through ``executor``).
        executor: parallel execution for ``method="simulate"``.

    Returns entries sorted by decreasing swing.
    """
    if not 0.0 < relative < 1.0:
        raise ValueError(f"relative perturbation out of (0,1): {relative}")
    if method not in ("analytic", "simulate"):
        raise ValueError(
            f"method must be analytic/simulate, got {method!r}")
    extract = _extract(quantity)

    scalers: List[Scaler] = []
    for name in parameters:
        try:
            scalers.append(PARAMETERS[name])
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}; "
                           f"known: {sorted(PARAMETERS)}") from None

    # One config per evaluated point: nominal, then (low, high) pairs.
    calibrations = [config.calibration]
    for scale in scalers:
        calibrations.append(scale(config.calibration, 1.0 - relative))
        calibrations.append(scale(config.calibration, 1.0 + relative))
    configs = [dataclasses.replace(config, calibration=cal)
               for cal in calibrations]

    if method == "analytic":
        values = [extract(predict(point)) for point in configs]
    else:
        from .experiments import REPORTED_NODE, _resolve
        results = _resolve(executor).run_configs(configs)
        values = [extract(result.node(REPORTED_NODE))
                  for result in results]

    nominal = values[0]
    entries: List[SensitivityEntry] = []
    for index, name in enumerate(parameters):
        entries.append(SensitivityEntry(
            parameter=name, nominal_mj=nominal,
            low_mj=values[1 + 2 * index],
            high_mj=values[2 + 2 * index]))
    entries.sort(key=lambda e: e.swing_mj, reverse=True)
    return entries


def render_tornado(entries: Sequence[SensitivityEntry],
                   width: int = 40) -> str:
    """ASCII tornado chart."""
    if not entries:
        return "(no parameters)"
    scale = max(e.swing_mj for e in entries) or 1.0
    lines = [f"Tornado: output nominal {entries[0].nominal_mj:.1f} mJ"]
    for entry in entries:
        bar = "#" * max(1, round(width * entry.swing_mj / scale))
        lines.append(
            f"  {entry.parameter:<26} {bar:<{width}} "
            f"{entry.swing_mj:7.2f} mJ ({100 * entry.swing_fraction:.1f}%)")
    return "\n".join(lines)


__all__ = ["PARAMETERS", "SensitivityEntry", "tornado", "render_tornado"]
