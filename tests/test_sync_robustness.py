"""Synchronisation robustness: crystal skew vs guard policies.

The guard window exists to absorb clock error.  These tests pin the
boundary quantitatively: nodes stay synced exactly while their skew
stays inside the guard, and the physical drift-tracking policy's
tolerance parameter is honoured at the edge.
"""

import pytest

from conftest import quick_config
from repro.mac.base import NodeState
from repro.mac.sync import DriftTrackingLead, FixedLead
from repro.net.scenario import BanScenario
from repro.sim.simtime import microseconds


def run_with_skew(skew_ppm, sync_factory=None, cycle_ms=30.0,
                  measure_s=4.0):
    config = quick_config(num_nodes=2, cycle_ms=cycle_ms,
                          measure_s=measure_s,
                          clock_skew_ppm=skew_ppm,
                          sync_policy_factory=sync_factory)
    scenario = BanScenario(config)
    result = scenario.run()
    missed = sum(node.mac.counters.beacons_missed
                 for node in scenario.nodes)
    return scenario, result, missed


class TestSkewWithinGuard:
    def test_platform_guard_absorbs_large_skew(self):
        # 3.1 ms lead over a 30 ms cycle tolerates ~100,000 ppm of
        # one-cycle drift; 500 ppm is nothing.
        _, _, missed = run_with_skew(500.0)
        assert missed == 0

    def test_skew_changes_realised_window(self):
        """A fast node wakes early relative to the true beacon, so its
        RX window lengthens — energy follows the clock error."""
        _, ideal, _ = run_with_skew(0.0)
        _, skewed, _ = run_with_skew(400.0)
        # With ±400 ppm over a 30 ms cycle, expectation error is ±12 us
        # per cycle: a visible but tiny energy delta.
        delta = abs(skewed.node("node1").radio_mj
                    - ideal.node("node1").radio_mj)
        assert delta < 0.01 * ideal.node("node1").radio_mj

    def test_tight_guard_with_matching_tolerance_holds(self):
        factory = (lambda cal: DriftTrackingLead(tolerance_ppm=100.0,
                                                 margin_ticks=
                                                 microseconds(250)))
        _, _, missed = run_with_skew(80.0, sync_factory=factory)
        assert missed == 0

    def test_energy_scales_with_guard_tightness(self):
        loose = (lambda cal: DriftTrackingLead(tolerance_ppm=500.0))
        tight = (lambda cal: DriftTrackingLead(tolerance_ppm=20.0))
        _, loose_result, _ = run_with_skew(10.0, sync_factory=loose)
        _, tight_result, _ = run_with_skew(10.0, sync_factory=tight)
        assert tight_result.node("node1").radio_mj \
            < loose_result.node("node1").radio_mj


class TestSkewBeyondGuard:
    def test_undersized_fixed_guard_misses_beacons(self):
        """A 50 us lead cannot absorb 4000 ppm of drift over 30 ms
        (120 us): the node misses beacons and resyncs."""
        factory = (lambda cal: FixedLead(microseconds(50)))
        scenario, _, missed = run_with_skew(4000.0,
                                            sync_factory=factory,
                                            measure_s=6.0)
        assert missed > 0
        # Each node misses max_missed_beacons (3) in a row, demotes to
        # acquisition once, and the resync brings it back to SYNCED.
        for node in scenario.nodes:
            counters = node.mac.counters
            assert counters.beacons_missed == 3
            assert counters.resyncs == 1
            assert counters.recoveries == 1
            assert counters.beacons_received > 0
            assert node.mac.state is NodeState.SYNCED

    def test_recovery_costs_energy(self):
        """Misses force free-running and re-acquisition — both cost
        receiver time, so radio energy rises vs the synced baseline."""
        factory = (lambda cal: FixedLead(microseconds(50)))
        _, broken, missed = run_with_skew(4000.0, sync_factory=factory,
                                          measure_s=6.0)
        _, healthy, _ = run_with_skew(0.0, sync_factory=factory,
                                      measure_s=6.0)
        assert missed > 0
        assert broken.node("node1").radio_mj \
            > healthy.node("node1").radio_mj

    def test_per_node_skews_are_distinct(self):
        scenario, _, _ = run_with_skew(100.0)
        skews = {node.mac._skew_ppm for node in scenario.nodes}
        assert len(skews) == len(scenario.nodes)
        assert all(abs(s) <= 100.0 for s in skews)
