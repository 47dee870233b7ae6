"""Network roles and scenario assembly: nodes, base station, the BAN
runner and multi-BAN coexistence."""

from .basestation import BaseStation
from .multi import MultiBanScenario
from .node import SensorNode
from .scenario import APPS, MACS, BanScenario, BanScenarioConfig, \
    run_scenario

__all__ = [
    "BaseStation",
    "MultiBanScenario",
    "SensorNode",
    "APPS",
    "MACS",
    "BanScenario",
    "BanScenarioConfig",
    "run_scenario",
]
