"""Tests for the parallel scenario executor and the config fingerprint.

The executor's contract is *bit-identical output*: running a batch
with N workers must produce exactly the results the plain sequential
loop produces.  These tests pin that contract for every batch entry
point the analysis layer uses.
"""

import dataclasses
import itertools
import pickle

import pytest

from repro.analysis.experiments import (
    reproduce_all_tables,
    reproduce_table1,
)
from repro.analysis.sensitivity import tornado
from repro.analysis.sweep import sweep_cycle_ms
from repro.exec import ScenarioExecutor, Uncacheable, config_fingerprint
from repro.mac.sync import DriftTrackingLead
from repro.net.scenario import BanScenarioConfig
from repro.obs import MetricsRegistry

#: Short window keeping each scenario fast; long enough to exercise
#: warm-up plus several TDMA cycles.
MEASURE_S = 1.0


def _config(**overrides) -> BanScenarioConfig:
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=2,
                    cycle_ms=30.0, measure_s=MEASURE_S, seed=7)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


class TestExecutorDeterminism:
    def test_all_table_rows_parallel_equals_sequential(self):
        """The acceptance property: every row of every table, jobs=4,
        exactly equal to the sequential path."""
        sequential = reproduce_all_tables(measure_s=MEASURE_S)
        parallel = reproduce_all_tables(
            measure_s=MEASURE_S, executor=ScenarioExecutor(jobs=4))
        assert parallel == sequential

    def test_single_table_parallel_equals_sequential(self):
        sequential = reproduce_table1(measure_s=MEASURE_S)
        parallel = reproduce_table1(measure_s=MEASURE_S,
                                    executor=ScenarioExecutor(jobs=2))
        assert parallel == sequential

    def test_sweep_parallel_equals_sequential(self):
        base = _config()
        cycles = [30.0, 60.0, 90.0, 120.0]
        sequential = sweep_cycle_ms(base, cycles)
        parallel = sweep_cycle_ms(base, cycles,
                                  executor=ScenarioExecutor(jobs=4))
        assert parallel == sequential

    def test_replicate_parallel_equals_sequential(self):
        """Seed replicates of one skewed-clock config: each worker draws
        its nodes' crystal skews from its own config's seed."""
        configs = [_config(clock_skew_ppm=40.0, seed=seed)
                   for seed in (1, 2, 3)]
        sequential = ScenarioExecutor(jobs=1).run_configs(configs)
        assert ScenarioExecutor(jobs=3).run_configs(configs) == sequential
        assert all(left != right for left, right
                   in itertools.combinations(sequential, 2))

    def test_run_configs_preserves_submission_order(self):
        configs = [_config(cycle_ms=cycle)
                   for cycle in (120.0, 30.0, 90.0)]
        # Order is by submission, not completion: the sequential run
        # defines the expected element order.
        assert ScenarioExecutor(jobs=3).run_configs(configs) == \
            ScenarioExecutor(jobs=1).run_configs(configs)

    def test_unpicklable_config_falls_back_in_process(self):
        """A lambda sync policy cannot cross a process boundary; the
        executor must run that config in-process (and still use the
        pool for the rest) with output unchanged."""
        def batch():
            return [
                _config(),
                _config(sync_policy_factory=lambda cal:
                        DriftTrackingLead(50.0)),
            ]

        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            pickle.dumps(batch()[1])
        results = ScenarioExecutor(jobs=2).run_configs(batch())
        expected = ScenarioExecutor(jobs=1).run_configs(batch())
        assert results == expected

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioExecutor(jobs=0)


class TestBatchMetrics:
    def test_utilization_covers_every_batch(self):
        """Worker utilisation is scenario wall time over the capacity
        of every batch the executor ran, not of the last one only."""
        registry = MetricsRegistry()
        executor = ScenarioExecutor(jobs=1, metrics=registry)
        executor.run_configs([_config()])
        executor.run_configs([_config(cycle_ms=60.0)])
        snapshot = registry.snapshot()
        histograms = snapshot["histograms"]
        busy_s = histograms["exec/-/scenario_wall_s"]["total"]
        batch_s = histograms["exec/-/batch_wall_s"]["total"]
        assert histograms["exec/-/batch_wall_s"]["count"] == 2
        assert snapshot["gauges"]["exec/-/worker_utilization"] == \
            pytest.approx(busy_s / batch_s)


class TestSensitivitySimulate:
    def test_simulate_matches_across_jobs(self):
        config = _config(num_nodes=5, sampling_hz=205.0)
        names = ("radio_rx_current", "mcu_active_current")
        sequential = tornado(config, parameters=names, method="simulate")
        parallel = tornado(config, parameters=names, method="simulate",
                           executor=ScenarioExecutor(jobs=4))
        assert parallel == sequential

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            tornado(_config(), method="guess")


class TestFingerprint:
    def test_fingerprint_is_deterministic(self):
        assert config_fingerprint(_config()) == \
            config_fingerprint(_config())

    def test_float_encoding_is_exact(self):
        a = config_fingerprint(_config(cycle_ms=30.0))
        b = config_fingerprint(_config(cycle_ms=30.0 + 1e-12))
        assert a != b

    def test_different_configs_different_keys(self):
        assert config_fingerprint(_config()) != \
            config_fingerprint(_config(cycle_ms=60.0))

    def test_calibration_is_part_of_the_key(self):
        config = _config()
        tweaked = dataclasses.replace(
            config, calibration=dataclasses.replace(
                config.calibration,
                radio_rx_a=config.calibration.radio_rx_a * 1.1))
        assert config_fingerprint(config) != config_fingerprint(tweaked)

    def test_callable_config_is_uncacheable(self):
        config = _config()
        config.sync_policy_factory = lambda cal: None
        with pytest.raises(Uncacheable):
            config_fingerprint(config)


# ----------------------------------------------------------------------
# Failures: the first failing item fails the batch with its own error
# ----------------------------------------------------------------------

def _double_or_boom(x):
    """Module-level (picklable) worker: fails deterministically on 3."""
    if x == 3:
        raise ValueError(f"bad item {x}")
    return 2 * x


def _log_call_and_die_late(arg):
    """Log the call, then kill the worker process for item 3.

    The death is delayed so sibling items finish first, making "which
    futures completed before the pool broke" deterministic.  In the
    main process (in-process fallback) the item succeeds.
    """
    import multiprocessing
    import os
    import time
    root, x = arg
    with open(os.path.join(root, "calls.log"), "a") as handle:
        handle.write(f"{x}\n")
    if x == 3 and multiprocessing.parent_process() is not None:
        time.sleep(0.4)
        os._exit(1)
    return 10 * x


def _bad_config() -> BanScenarioConfig:
    """A config whose *run* fails deterministically: two joiners, one
    slot — the second node can never join and the deadline trips."""
    return _config(num_nodes=2, num_slots=1, join_protocol=True,
                   join_deadline_s=0.5, seed=2)


class TestFailures:
    def test_map_raises_the_first_failure(self):
        with pytest.raises(ValueError, match="bad item 3"):
            ScenarioExecutor(jobs=1).map(_double_or_boom, [3])
        with pytest.raises(ValueError, match="bad item 3"):
            ScenarioExecutor(jobs=2).map(_double_or_boom, [1, 3, 4])

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_run_configs_raises_the_scenario_error(self, jobs):
        configs = [_config(seed=1), _bad_config(), _config(seed=5)]
        with pytest.raises(RuntimeError, match="failed to join") as info:
            ScenarioExecutor(jobs=jobs).run_configs(configs)
        assert type(info.value) is RuntimeError

    def test_broken_pool_recomputes_only_unfinished(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(4)]
        executor = ScenarioExecutor(jobs=2)
        results = executor.map(_log_call_and_die_late, items)
        # The worker died on item 3; only that item fell back to the
        # main process — completed siblings were not recomputed.
        assert results == [0, 10, 20, 30]
        calls = (tmp_path / "calls.log").read_text().split()
        assert sorted(calls) == ["0", "1", "2", "3", "3"]
