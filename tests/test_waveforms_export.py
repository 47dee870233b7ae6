"""Power-state waveforms: the exact RX, TX and MCU-active windows a
scenario's ledgers record, checked against the calibrated timing."""

from typing import List, Tuple

import pytest

from conftest import Timeline, quick_config, record_timelines
from repro.net.scenario import BanScenario
from repro.sim.simtime import microseconds, seconds


def intervals(timeline: Timeline, state: str,
              end_time: int) -> List[Tuple[int, int]]:
    """The ``[start, end)`` stretches a timeline spent in ``state``
    (re-tags inside the state do not split one), the last one closed
    at ``end_time``; empty stretches are dropped."""
    out = []
    start = None
    for time, current, _ in timeline:
        if start is not None and current != state:
            out.append((start, time))
            start = None
        elif start is None and current == state:
            start = time
    if start is not None:
        out.append((start, end_time))
    return [(a, b) for a, b in out if b > a]


@pytest.fixture(scope="module")
def probed_run():
    scenario = BanScenario(quick_config(num_nodes=2, measure_s=2.0))
    timelines = record_timelines(scenario)
    result = scenario.run()
    return scenario, timelines, result


class TestWaveformProbe:
    def test_rx_windows_have_calibrated_length(self, probed_run):
        """The ledger records exact RX intervals: steady-state windows
        must equal lead + beacon airtime + RX tail."""
        scenario, timelines, _ = probed_run
        end = scenario.sim.now
        windows = intervals(timelines["node1.radio"], "rx", end)
        assert len(windows) > 50
        cal = scenario.config.calibration
        expected = seconds(cal.sync.static_lead_s) \
            + microseconds(8 * (4 + 3 + 8)) \
            + seconds(cal.radio_timing.rx_tail_s)
        steady = windows[5:-5]
        # The base station's wake-latency path adds a few microseconds
        # of cycle-to-cycle jitter; windows must still sit within 10 us
        # of the calibrated value.
        for start, stop in steady:
            assert stop - start == pytest.approx(expected, abs=10_000)

    def test_tx_events_match_packet_count(self, probed_run):
        scenario, timelines, result = probed_run
        end = scenario.sim.now
        tx = intervals(timelines["node1.radio"], "tx", end)
        # Warm-up packets included in the waveform; at least the
        # measured count must be present.
        assert len(tx) >= result.node("node1").traffic.data_tx

    def test_tx_windows_are_485us(self, probed_run):
        scenario, timelines, _ = probed_run
        end = scenario.sim.now
        for start, stop in intervals(timelines["node1.radio"], "tx",
                                     end)[:20]:
            assert stop - start == microseconds(485)

    def test_mcu_duty_cycle_from_waveform(self, probed_run):
        scenario, timelines, _ = probed_run
        end = scenario.sim.now
        active = sum(stop - start for start, stop in
                     intervals(timelines["node1.mcu"], "active", end))
        # Streaming at 30 ms: ~21-23% active duty.
        assert 0.15 < active / end < 0.30
