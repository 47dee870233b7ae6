"""Generic parameter sweeps over BAN scenarios.

The design-space exploration the paper motivates ("this model can be
employed to tune the node architecture and communication layer for
different working conditions") needs systematic sweeps.
:func:`sweep_scenarios` runs one scenario per parameter value and
collects the reported node's figures; higher-level helpers cover the
common axes (cycle length, node count, heart rate, sync policy).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.report import NodeEnergyResult
from ..exec import ScenarioExecutor
from ..net.scenario import BanScenarioConfig
from .experiments import REPORTED_NODE, _resolve


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the swept value and the reported node's result."""

    value: float
    node: NodeEnergyResult

    @property
    def total_mj(self) -> float:
        """Radio + MCU energy at this point."""
        return self.node.total_mj


def sweep_scenarios(base: BanScenarioConfig, parameter: str,
                    values: Sequence[float],
                    node_id: str = REPORTED_NODE,
                    executor: Optional[ScenarioExecutor] = None
                    ) -> List[SweepPoint]:
    """Run ``base`` once per value of ``parameter``.

    ``parameter`` must be a field of :class:`BanScenarioConfig`; each
    run uses ``dataclasses.replace`` so the base config is untouched.
    An :class:`~repro.exec.ScenarioExecutor` can run the points in
    parallel; results are in value order either way.
    """
    if parameter not in {f.name for f in dataclasses.fields(base)}:
        raise ValueError(
            f"{parameter!r} is not a BanScenarioConfig field")
    return sweep_custom(
        base, values,
        lambda cfg, v: dataclasses.replace(cfg, **{parameter: v}),
        node_id=node_id, executor=executor)


def sweep_custom(base: BanScenarioConfig, values: Sequence[float],
                 make_config: Callable[[BanScenarioConfig, float],
                                       BanScenarioConfig],
                 node_id: str = REPORTED_NODE,
                 executor: Optional[ScenarioExecutor] = None
                 ) -> List[SweepPoint]:
    """Sweep with an arbitrary config transformation per value."""
    configs = [make_config(base, value) for value in values]
    results = _resolve(executor).run_configs(configs)
    return [SweepPoint(value=float(value), node=result.node(node_id))
            for value, result in zip(values, results)]


def sweep_cycle_ms(base: BanScenarioConfig,
                   cycles_ms: Sequence[float],
                   executor: Optional[ScenarioExecutor] = None
                   ) -> List[SweepPoint]:
    """Sweep the static-TDMA cycle length."""
    return sweep_scenarios(base, "cycle_ms", cycles_ms,
                           executor=executor)


def sweep_num_nodes(base: BanScenarioConfig,
                    counts: Sequence[int],
                    executor: Optional[ScenarioExecutor] = None
                    ) -> List[SweepPoint]:
    """Sweep the network size (dynamic-TDMA cycle follows)."""
    return sweep_custom(
        base, [float(c) for c in counts],
        lambda cfg, v: dataclasses.replace(cfg, num_nodes=int(v)),
        executor=executor)


def sweep_heart_rate(base: BanScenarioConfig,
                     rates_bpm: Sequence[float],
                     executor: Optional[ScenarioExecutor] = None
                     ) -> List[SweepPoint]:
    """Sweep the input heart rate (Rpeak traffic scales with it)."""
    return sweep_scenarios(base, "heart_rate_bpm", rates_bpm,
                           executor=executor)


def as_table(points: Sequence[SweepPoint],
             value_name: str = "value") -> List[Dict[str, float]]:
    """Flatten sweep points into plain records for rendering/CSV."""
    return [{
        value_name: p.value,
        "radio_mj": p.node.radio_mj,
        "mcu_mj": p.node.mcu_mj,
        "total_mj": p.total_mj,
        "avg_power_mw": p.node.average_power_mw,
    } for p in points]


__all__ = [
    "SweepPoint",
    "sweep_scenarios",
    "sweep_custom",
    "sweep_cycle_ms",
    "sweep_num_nodes",
    "sweep_heart_rate",
    "as_table",
]
