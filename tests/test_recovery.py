"""Tests for the TDMA MACs' recovery from lost frames.

Uses :class:`~repro.phy.lossmodels.DeterministicLoss` to drop *exact*
frames, pinning the missed-beacon paths without RNG coupling:

* free-running across consecutive misses (each sync policy), with the
  full miss windows booked into the energy ledger;
* demotion to continuous reacquisition after ``max_missed`` misses,
  and the subsequent resync;
* the lost-grant-beacon path of the join protocol (no double
  allocation, the node still joins);
* lost slot requests, retried until the node joins;
* the ``sync_anomalies`` trap replacing the old silent clamp;
* repeat runs of one lossy config object, which must be equal.
"""

import pytest

from repro.exec import ScenarioExecutor
from repro.mac.sync import CycleProportionalLead, DriftTrackingLead, \
    FixedLead
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.lossmodels import DeterministicLoss
from repro.sim.simtime import milliseconds, seconds

BS = "base_station"


def _config(**overrides) -> BanScenarioConfig:
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=1,
                    cycle_ms=30.0, measure_s=2.0, seed=3)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


def _beacon_drops(*occurrences) -> DeterministicLoss:
    """Drop exact base-station frames (all beacons here) at node1."""
    return DeterministicLoss({(BS, "node1"): occurrences})


#: One factory per sync policy; each must survive beacon loss.
POLICIES = {
    "fixed": lambda cal: FixedLead(milliseconds(1.0)),
    "proportional": lambda cal: CycleProportionalLead(
        milliseconds(0.5), 0.01),
    "drift": lambda cal: DriftTrackingLead(tolerance_ppm=50.0),
}


class TestMissedBeacons:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_two_misses_free_run_and_resync(self, policy):
        factory = POLICIES[policy]
        clean = BanScenario(_config(sync_policy_factory=factory))
        clean_result = clean.run()
        lossy = BanScenario(_config(
            sync_policy_factory=factory,
            loss_model=_beacon_drops(20, 21)))
        lossy_result = lossy.run()
        mac = lossy.nodes[0].mac
        # Two consecutive misses stay under max_missed (3): the node
        # free-runs on its own clock and never demotes.
        assert mac.counters.beacons_missed == 2
        assert mac.counters.resyncs == 0
        assert mac.counters.recoveries == 0
        assert mac.is_synced
        # The full miss windows are real energy, booked into the
        # node's radio ledger.
        assert lossy_result.nodes["node1"].radio_mj \
            > clean_result.nodes["node1"].radio_mj


class TestReacquisition:
    def test_demotes_after_max_missed_and_recovers(self):
        scenario = BanScenario(_config(
            loss_model=_beacon_drops(20, 21, 22, 23)))
        scenario.run()
        mac = scenario.nodes[0].mac
        assert mac.counters.resyncs >= 1   # demoted to ACQUIRING
        assert mac.counters.recoveries >= 1  # ... and re-synced
        assert mac.is_synced


class TestRepeatRuns:
    def test_a_lossy_config_runs_the_same_every_time(self):
        """Each channel counts a link's frames from zero: the config's
        model keeps no count from one run to the next, in process or
        in a worker."""
        config = _config(loss_model=_beacon_drops(20, 21, 22, 23))
        first = BanScenario(config)
        result = first.run()
        second = BanScenario(config)
        assert second.run() == result
        assert second.nodes[0].mac.counters.beacons_missed \
            == first.nodes[0].mac.counters.beacons_missed == 3
        sequential = ScenarioExecutor(jobs=1).run_configs([config, config])
        pooled = ScenarioExecutor(jobs=2).run_configs([config, config])
        assert sequential == pooled == [result, result]


class TestGrantBeaconLoss:
    @pytest.mark.parametrize("mac_kind", ["static", "dynamic"])
    def test_lost_grant_beacon_no_double_allocation(self, mac_kind):
        # Occurrence 0 is the first beacon (triggers the SSR); the
        # grant rides in occurrence 1 — drop exactly that one.
        scenario = BanScenario(_config(
            mac=mac_kind, join_protocol=True, measure_s=1.0,
            loss_model=_beacon_drops(1)))
        scenario.run()
        mac = scenario.nodes[0].mac
        schedule = scenario.base_station.mac.schedule
        assert mac.is_synced
        assert mac.slot is not None
        assert schedule.slot_of("node1") == mac.slot
        # Exactly one slot owned — the kept grant, never a second one.
        owners = list(schedule.as_map().values())
        assert owners.count("node1") == 1


class TestLostSlotRequests:
    @pytest.mark.parametrize("mac_kind", ["dynamic", "static"])
    def test_lost_requests_are_retried(self, mac_kind):
        # Drop the node's first three slot requests (its only uplink
        # frames while joining): it requests again until one lands.
        loss = DeterministicLoss({("node1", BS): (0, 1, 2)})
        scenario = BanScenario(_config(
            mac=mac_kind, join_protocol=True, measure_s=1.0,
            loss_model=loss))
        scenario.run()
        mac = scenario.nodes[0].mac
        assert mac.counters.slot_requests_sent >= 4
        assert mac.is_synced


class TestSyncAnomalyTrap:
    def test_backwards_bookkeeping_is_counted(self):
        scenario = BanScenario(_config(trace_capacity=512))
        scenario.start_all()
        scenario.sim.run_until(seconds(0.5))
        mac = scenario.nodes[0].mac
        assert mac.counters.sync_anomalies == 0
        # Force the impossible state the old code clamped in silence:
        # an expectation before the last sync point.
        mac._last_sync = scenario.sim.now + seconds(1.0)
        mac._arm_beacon_window(scenario.sim.now + milliseconds(1.0))
        assert mac.counters.sync_anomalies == 1
        assert len(scenario.trace.filter(kind="sync_anomaly")) == 1
