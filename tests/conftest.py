"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.ledger import PowerStateLedger
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.sim.kernel import Simulator


@pytest.fixture(scope="session")
def src_lint_report():
    """One default-config ``repro.lint`` report over ``src``, shared by
    the whole-tree checks (a run takes several seconds)."""
    from repro.lint import lint_paths
    return lint_paths([Path(__file__).resolve().parent.parent / "src"])


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def cal():
    """The default (paper) calibration."""
    return DEFAULT_CALIBRATION


@pytest.fixture
def channel(sim) -> Channel:
    """A perfect, fully connected channel on the fixture simulator."""
    return Channel(sim)


def quick_config(**overrides) -> BanScenarioConfig:
    """A short-horizon scenario config for integration tests.

    Defaults: static TDMA, streaming, 3 nodes, 30 ms cycle, 3 s window.
    """
    params = dict(mac="static", app="ecg_streaming", num_nodes=3,
                  cycle_ms=30.0, measure_s=3.0, seed=7)
    params.update(overrides)
    return BanScenarioConfig(**params)


def read_jsonl(path: Path) -> List[dict]:
    """The records of a JSON-lines file (``--trace-jsonl``,
    ``--spans``), one per line."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_quick(**overrides):
    """Build and run a quick scenario; returns (scenario, result)."""
    scenario = BanScenario(quick_config(**overrides))
    result = scenario.run()
    return scenario, result


#: One ledger's power-state timeline: ``(tick, state, tag)`` per change.
Timeline = List[Tuple[int, str, str]]


def record_ledger(ledger: PowerStateLedger) -> Timeline:
    """Record every transition of ``ledger``, after its state at tick 0
    (through its ``on_transition`` observer)."""
    timeline = [(0, ledger.state, ledger.tag)]
    ledger.on_transition = (
        lambda time, state, tag: timeline.append((time, state, tag)))
    return timeline


def record_timelines(scenario) -> Dict[str, Timeline]:
    """One timeline per radio and MCU ledger of a built (un-run) BAN
    scenario, keyed ``"<address>.radio"`` and ``"<address>.mcu"``."""
    timelines = {}
    for station in (scenario.base_station, *scenario.nodes):
        address = station.radio.address
        timelines[f"{address}.radio"] = record_ledger(station.radio.ledger)
        timelines[f"{address}.mcu"] = record_ledger(station.mcu.ledger)
    return timelines
