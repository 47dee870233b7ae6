"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.calibration import DEFAULT_CALIBRATION
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


def run_quick(**overrides):
    """Build and run a quick scenario; returns (scenario, result)."""
    scenario = BanScenario(quick_config(**overrides))
    result = scenario.run()
    return scenario, result
