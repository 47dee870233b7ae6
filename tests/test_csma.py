"""Tests for the unslotted CSMA/CA MAC and the radio's CCA primitive."""

import pytest

from repro.hw.frames import Frame, FrameKind
from repro.hw.radio import Nrf2401, RadioError
from repro.mac.csma import CsmaConfig
from repro.mac.recovery import RecoveryConfig
from repro.faults import FaultPlan, RadioLockup
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.sim.simtime import microseconds, milliseconds, seconds

CCA_TICKS = microseconds(128)


@pytest.fixture
def pair(sim, cal):
    """Two radios, 'a' and 'b', on a perfect channel."""
    channel = Channel(sim)
    a = Nrf2401(sim, cal, channel, "a", name="a.radio")
    b = Nrf2401(sim, cal, channel, "b", name="b.radio")
    a.power_up()
    b.power_up()
    return channel, a, b


def data_frame(src="a", dest="b", payload_bytes=18):
    from repro.hw.frames import Frame, FrameKind
    return Frame(src=src, dest=dest, kind=FrameKind.DATA,
                 payload_bytes=payload_bytes, payload={"n": 1})


def run_csma(num_nodes=3, measure_s=5.0, app="ecg_streaming",
             cycle_ms=30.0, seed=2, **kw):
    config = BanScenarioConfig(
        mac="csma", app=app, num_nodes=num_nodes, cycle_ms=cycle_ms,
        sampling_hz=205.0 if app == "ecg_streaming" else None,
        measure_s=measure_s, seed=seed, **kw)
    scenario = BanScenario(config)
    return scenario, scenario.run()


class TestConfig:
    def test_defaults_are_802154(self):
        config = CsmaConfig()
        assert (config.min_be, config.max_be, config.max_backoffs) \
            == (3, 5, 4)
        assert config.backoff_unit_ticks == microseconds(320)
        assert config.cca_ticks == microseconds(128)

    def test_validation(self):
        with pytest.raises(ValueError):
            CsmaConfig(min_be=-1)
        with pytest.raises(ValueError):
            CsmaConfig(min_be=4, max_be=3)
        with pytest.raises(ValueError):
            CsmaConfig(max_backoffs=-1)
        with pytest.raises(ValueError):
            CsmaConfig(backoff_unit_ticks=0)
        with pytest.raises(ValueError):
            CsmaConfig(cca_ticks=0)
        with pytest.raises(ValueError):
            CsmaConfig(poll_interval_ticks=0)

    def test_scenario_accepts_csma(self):
        config = BanScenarioConfig(mac="csma", measure_s=1.0)
        assert config.cycle_ticks == milliseconds(30.0)

    def test_join_protocol_rejected(self):
        with pytest.raises(ValueError, match="join"):
            BanScenarioConfig(mac="csma", measure_s=1.0,
                              join_protocol=True)


class TestCcaPrimitive:
    """The radio-level clear-channel assessment."""

    def test_idle_channel_reads_clear(self, sim, cal, pair):
        _, a, _ = pair
        results = []
        a.cca(CCA_TICKS, results.append)
        assert a.state == "cca"
        sim.run_until(seconds(1.0))
        assert results == [False]
        assert a.state == "standby"

    def test_inflight_frame_reads_busy(self, sim, cal, pair):
        _, a, b = pair
        results = []
        # a's 26-byte frame occupies the air 195..403 us.
        a.send(data_frame())
        sim.at(microseconds(250), lambda: b.cca(CCA_TICKS, results.append))
        sim.run_until(seconds(1.0))
        assert results == [True]

    def test_busy_at_start_latches(self, sim, cal, pair):
        _, a, b = pair
        results = []
        # Sense 350..478 us: the frame ends at 403 us, mid-window, but
        # the busy start reading must stick.
        a.send(data_frame())
        sim.at(microseconds(350), lambda: b.cca(CCA_TICKS, results.append))
        sim.run_until(seconds(1.0))
        assert results == [True]

    def test_busy_at_end_detected(self, sim, cal, pair):
        _, a, b = pair
        results = []
        # Sense 150..278 us: idle at the start (airtime begins at
        # 195 us), busy by the end.
        a.send(data_frame())
        sim.at(microseconds(150), lambda: b.cca(CCA_TICKS, results.append))
        sim.run_until(seconds(1.0))
        assert results == [True]

    @pytest.mark.parametrize("start_us, busy", [
        (180, True),   # the carrier starts and ends inside the window
        (195, True),   # window opens on the first bit
        (200, True),
        (275, True),   # window opens on the last bit
        (276, False),
    ])
    def test_short_carrier_inside_window(self, sim, cal, pair,
                                         start_us, busy):
        _, a, b = pair
        results = []
        # b's 2-byte slot request occupies the air 195..275 us, shorter
        # than one 128 us window.
        b.send(Frame(src="b", dest="a", kind=FrameKind.SLOT_REQUEST,
                     payload_bytes=2))
        sim.at(microseconds(start_us),
               lambda: a.cca(CCA_TICKS, results.append))
        sim.run_until(seconds(1.0))
        assert results == [busy]

    def test_gap_between_frames_reads_clear(self, sim, cal, pair):
        _, a, b = pair
        results = []
        a.send(data_frame())
        # 500..628 us: a's TX event (485 us) has fully drained.
        sim.at(microseconds(500), lambda: b.cca(CCA_TICKS, results.append))
        sim.run_until(seconds(1.0))
        assert results == [False]

    def test_deaf_chain_reads_busy(self, sim, cal, pair):
        _, _, b = pair
        results = []
        b.fault_rx_deaf = True
        b.cca(CCA_TICKS, results.append)
        sim.run_until(seconds(1.0))
        assert results == [True]

    def test_energy_booked_at_rx_current(self, sim, cal, pair):
        _, a, _ = pair
        a.cca(CCA_TICKS, lambda busy: None)
        sim.run_until(seconds(1.0))
        expected = 128e-6 * cal.radio_rx_a * cal.supply_v
        assert a.ledger.energy_j(state="cca") == pytest.approx(expected)
        # Eagerly attributed (idle-listening class), so the loss
        # accountant's invariant survives without finalisation help.
        assert a.accountant.snapshot().total_j == pytest.approx(expected)

    def test_guards(self, sim, cal, pair):
        _, a, b = pair
        with pytest.raises(ValueError):
            a.cca(0, lambda busy: None)
        a.send(data_frame())
        with pytest.raises(RadioError):  # mid-ShockBurst
            a.cca(CCA_TICKS, lambda busy: None)
        b.start_rx()
        with pytest.raises(RadioError):  # receiving
            b.cca(CCA_TICKS, lambda busy: None)
        b.stop_rx()
        sim.run_until(seconds(1.0))
        a.cca(CCA_TICKS, lambda busy: None)
        with pytest.raises(RadioError):  # already sensing
            a.cca(CCA_TICKS, lambda busy: None)
        with pytest.raises(RadioError):  # no TX mid-sense
            a.send(data_frame())
        with pytest.raises(RadioError):  # no RX mid-sense
            a.start_rx()

    def test_cca_on_powered_down_radio_raises(self, sim, cal):
        channel = Channel(sim)
        radio = Nrf2401(sim, cal, channel, "a", name="a.radio")
        with pytest.raises(RadioError):
            radio.cca(CCA_TICKS, lambda busy: None)

    def test_power_down_mid_sense_books_partial_window(self, sim, cal,
                                                       pair):
        _, a, _ = pair
        results = []
        a.cca(CCA_TICKS, results.append)
        sim.at(microseconds(50), a.power_down)
        sim.run_until(seconds(1.0))
        # The callback never fires; the 50 us actually spent sensing is
        # booked, attributed, and the radio is cleanly off.
        assert results == []
        assert a.state == "power_down"
        expected = 50e-6 * cal.radio_rx_a * cal.supply_v
        assert a.ledger.energy_j(state="cca") == pytest.approx(expected)
        assert a.accountant.snapshot().total_j == pytest.approx(expected)


class TestNodeBehaviour:
    def test_single_node_lossless(self):
        _, result = run_csma(num_nodes=1, measure_s=5.0)
        assert result.base_station.traffic.corrupted == 0
        assert result.base_station.traffic.data_rx > 0

    def test_nodes_never_enter_rx(self):
        scenario, result = run_csma()
        for node in scenario.nodes:
            assert node.radio.ledger.seconds_in(state="rx") == 0.0
            assert result.node(node.node_id).traffic.control_rx == 0

    def test_every_tx_is_preceded_by_a_clear_cca(self):
        scenario, _ = run_csma(num_nodes=5, measure_s=5.0)
        for node in scenario.nodes:
            counters = node.mac.counters
            # Each attempt terminates in exactly one of: a busy CCA, a
            # transmission, or (at most once) the cut at collection.
            slack = counters.backoff_attempts \
                - counters.cca_busy - counters.data_sent
            assert 0 <= slack <= 1

    def test_cca_time_is_quantised_to_full_windows(self):
        scenario, _ = run_csma(num_nodes=5, measure_s=5.0)
        for node in scenario.nodes:
            windows = node.radio.ledger.seconds_in(state="cca") / 128e-6
            assert windows == pytest.approx(round(windows), abs=1e-6)
            assert windows > 0

    def test_busy_ccas_and_collisions_coexist_under_load(self):
        scenario, result = run_csma(num_nodes=5, measure_s=10.0, seed=3)
        busy = sum(n.mac.counters.cca_busy for n in scenario.nodes)
        assert busy > 0
        # The channel's own collision bookkeeping must agree that
        # contention was real: every base-station corruption is at
        # least one detected overlap (pairs are counted per receiver,
        # so the channel total is an upper bound on BS corruptions).
        assert result.base_station.traffic.corrupted > 0
        assert scenario.channel.collisions_detected \
            >= result.base_station.traffic.corrupted

    def test_attribution_invariant_holds(self):
        _, result = run_csma(num_nodes=5, measure_s=5.0)
        for node in result.nodes.values():
            assert node.losses.total_j * 1e3 \
                == pytest.approx(node.radio_mj, rel=1e-9)

    def test_deterministic(self):
        _, a = run_csma(seed=9)
        _, b = run_csma(seed=9)
        assert a.node("node1").radio_mj == b.node("node1").radio_mj

    def test_seed_changes_backoff_outcomes(self):
        _, a = run_csma(num_nodes=5, seed=9)
        _, b = run_csma(num_nodes=5, seed=10)
        assert a.node("node1").radio_mj != b.node("node1").radio_mj

    def test_backoff_draws_use_named_node_streams(self):
        scenario, _ = run_csma(num_nodes=2, measure_s=2.0)
        streams = scenario.sim.rng._streams
        for node in scenario.nodes:
            assert f"{node.node_id}.csma_backoff" in streams
            assert f"{node.node_id}.csma_start" in streams


class TestAbandonmentAndRecovery:
    LOCKUP = FaultPlan(faults=(
        RadioLockup(node="node1", at_s=0.5, duration_s=0.8),))

    def test_lockup_forces_abandonment(self):
        scenario, _ = run_csma(num_nodes=2, measure_s=2.5, seed=5,
                               faults=self.LOCKUP)
        jammed = scenario.nodes[0].mac.counters
        clear = scenario.nodes[1].mac.counters
        # A deaf receive chain reads busy: frames exhaust their
        # max_backoffs retries and die at the MAC, never on air.
        assert jammed.tx_abandoned > 0
        assert jammed.cca_busy \
            >= jammed.tx_abandoned * (CsmaConfig().max_backoffs + 1)
        assert clear.tx_abandoned == 0
        # Without a RecoveryConfig the cap never widens.
        assert jammed.windows_widened == 0

    def test_recovery_widens_backoff_cap(self):
        scenario, _ = run_csma(num_nodes=2, measure_s=2.5, seed=5,
                               faults=self.LOCKUP,
                               recovery=RecoveryConfig())
        jammed = scenario.nodes[0].mac.counters
        assert jammed.windows_widened >= 1
        # The lockup ends inside the run: an idle CCA clears the
        # streak and traffic resumes.
        assert jammed.data_sent > 0
        assert scenario.nodes[1].mac.counters.windows_widened == 0

    def test_widening_and_restore_are_traced(self):
        from repro.sim.trace import TraceRecorder
        config = BanScenarioConfig(
            mac="csma", app="ecg_streaming", num_nodes=2, cycle_ms=30.0,
            sampling_hz=205.0, measure_s=2.5, seed=5,
            faults=self.LOCKUP, recovery=RecoveryConfig())
        trace = TraceRecorder()
        scenario = BanScenario(config, trace=trace)
        scenario.run()
        kinds = [record.kind for record in trace
                 if record.source.startswith("node1")]
        assert "backoff_cap_widened" in kinds
        assert "backoff_cap_restored" in kinds
        assert "tx_abandoned" in kinds


class TestSpans:
    def _traced(self, **kw):
        from repro.obs import attach_span_tracer
        config = BanScenarioConfig(
            mac="csma", app="ecg_streaming", num_nodes=3, cycle_ms=30.0,
            sampling_hz=205.0, measure_s=2.0, seed=3, **kw)
        scenario = BanScenario(config)
        tracer = attach_span_tracer(scenario)
        scenario.run()
        return scenario, tracer.store

    def test_cca_spans_carry_exact_rx_energy(self, cal):
        _, store = self._traced()
        cca_spans = [s for s in store.spans if s.name == "mac.cca"]
        assert cca_spans
        per_window = 128e-6 * cal.radio_rx_a * cal.supply_v
        for span in cca_spans:
            assert span.duration_ticks == microseconds(128)
            assert span.energy_j == pytest.approx(per_window)
            assert span.status in ("busy", "idle")

    def test_backoff_wait_spans_are_radio_off(self):
        _, store = self._traced()
        waits = [s for s in store.spans if s.name == "mac.backoff_wait"]
        assert waits
        assert all(s.energy_j == 0.0 for s in waits)

    def test_cca_ledger_state_fully_reconciled(self):
        from repro.obs.spans import reconcile_spans
        scenario, store = self._traced()
        rows = [row for row in reconcile_spans(store, scenario)
                if row["state"] == "cca"]
        assert rows
        for row in rows:
            # Every CCA window belongs to exactly one packet, so span
            # coverage of the cca ledger state is complete.
            assert row["coverage"] == pytest.approx(1.0, rel=1e-9)

    def test_abandoned_frames_close_their_trace(self):
        _, store = self._traced(
            faults=FaultPlan(faults=(
                RadioLockup(node="node1", at_s=0.5, duration_s=0.8),)))
        statuses = {root.status for root in store.roots()}
        assert "abandoned" in statuses


class TestEnergyComparison:
    def test_csma_sits_between_aloha_and_tdma(self):
        _, csma = run_csma(num_nodes=5, measure_s=5.0, seed=3)
        aloha = BanScenario(BanScenarioConfig(
            mac="aloha", app="ecg_streaming", num_nodes=5,
            cycle_ms=30.0, sampling_hz=205.0, measure_s=5.0,
            seed=3)).run()
        tdma = BanScenario(BanScenarioConfig(
            mac="static", app="ecg_streaming", num_nodes=5,
            cycle_ms=30.0, sampling_hz=205.0, measure_s=5.0,
            seed=3)).run()
        node_csma = csma.node("node1").radio_mj
        # CCA dwells cost real RX-current energy on top of ALOHA's
        # bare TX events, but remain far below TDMA's beacon windows.
        assert node_csma > aloha.node("node1").radio_mj
        assert node_csma < 0.25 * tdma.node("node1").radio_mj

    def test_base_station_energy_similar_to_aloha(self):
        _, csma = run_csma(num_nodes=3, measure_s=5.0)
        aloha = BanScenario(BanScenarioConfig(
            mac="aloha", app="ecg_streaming", num_nodes=3,
            cycle_ms=30.0, sampling_hz=205.0, measure_s=5.0,
            seed=2)).run()
        assert csma.base_station.radio_mj \
            == pytest.approx(aloha.base_station.radio_mj, rel=0.05)
