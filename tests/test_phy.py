"""Unit tests for topologies, loss models and channel mechanics."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.losses import RadioEnergyCategory
from repro.hw.frames import Frame, FrameKind
from repro.hw.radio import Nrf2401
from repro.phy.channel import Channel
from repro.phy.lossmodels import PerfectChannel, UniformLoss
from repro.phy.topology import (
    BODY_PRESET,
    BodyTopology,
    ExplicitLinks,
    FullConnectivity,
    Position,
)
from repro.sim.rng import RngRegistry
from repro.sim.simtime import microseconds, seconds


class TestTopologies:
    def test_full_connectivity(self):
        topo = FullConnectivity()
        assert topo.in_range("a", "b")
        assert not topo.in_range("a", "a")

    def test_position_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_body_preset_all_links_up_at_2m(self):
        topo = BodyTopology.body_preset(range_m=2.0)
        nodes = list(BODY_PRESET)
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert topo.in_range(a, b)

    def test_body_preset_partitions_at_short_range(self):
        topo = BodyTopology.body_preset(range_m=0.4)
        assert not topo.in_range("head", "left_leg")
        assert topo.in_range("chest", "head")

    def test_body_unknown_node(self):
        topo = BodyTopology.body_preset()
        with pytest.raises(KeyError, match="chest"):
            topo.in_range("chest", "ghost")

    def test_body_invalid_range(self):
        with pytest.raises(ValueError):
            BodyTopology({}, range_m=0.0)

    def test_explicit_links_directed(self):
        topo = ExplicitLinks([("a", "b")])
        assert topo.in_range("a", "b")
        assert not topo.in_range("b", "a")


class TestLossModels:
    def test_perfect_channel_never_corrupts(self):
        rng = RngRegistry(0)
        model = PerfectChannel()
        assert not any(model.is_corrupted(rng, "a", "b", i)
                       for i in range(100))

    def test_uniform_loss_rate(self):
        rng = RngRegistry(0)
        model = UniformLoss(0.3)
        draws = [model.is_corrupted(rng, "a", "b", i) for i in range(5000)]
        rate = sum(draws) / len(draws)
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_uniform_loss_bounds(self):
        with pytest.raises(ValueError):
            UniformLoss(1.5)
        with pytest.raises(ValueError):
            UniformLoss(-0.1)

    def test_uniform_zero_shortcut(self):
        rng = RngRegistry(0)
        assert not UniformLoss(0.0).is_corrupted(rng, "a", "b", 1)


class TestChannel:
    def test_duplicate_address_rejected(self, sim, cal):
        channel = Channel(sim)
        Nrf2401(sim, cal, channel, "a")
        with pytest.raises(ValueError):
            Nrf2401(sim, cal, channel, "a")

    def test_frames_sent_counter(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        Nrf2401(sim, cal, channel, "b")
        a.power_up()
        a.send(Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=4))
        sim.run_until(seconds(0.1))
        assert channel.frames_sent == 1

    def test_out_of_range_receiver_hears_nothing(self, sim, cal):
        channel = Channel(sim, topology=ExplicitLinks([("a", "b")]))
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        c = Nrf2401(sim, cal, channel, "c")
        for radio in (a, b, c):
            radio.power_up()
        got_b, got_c = [], []
        b.on_frame = got_b.append
        c.on_frame = got_c.append
        b.start_rx()
        c.start_rx()
        a.send(Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=4))
        sim.at(seconds(0.1), b.stop_rx)
        sim.at(seconds(0.1), c.stop_rx)
        sim.run_until(seconds(0.2))
        assert len(got_b) == 1
        assert got_c == []  # not even overheard: out of range
        c.finalize_attribution()
        snap = c.accountant.snapshot()
        # Not overheard either: the frame never reached c's location.
        assert snap.frames.get(RadioEnergyCategory.OVERHEARING, 0) == 0

    def test_rx_started_on_first_bit_tick_captures(self, sim, cal):
        """A chain that comes on at a frame's first-bit tick, after the
        channel began the frame, was on for the whole airtime."""
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        a.power_up()
        b.power_up()
        received = []
        a.on_frame = received.append
        outcomes = []

        def send():
            b.send(Frame(src="b", dest="a", kind=FrameKind.DATA,
                         payload_bytes=4), outcomes.append)
            # Scheduled after b's first bit (195 us), on the same tick.
            sim.at(microseconds(195), a.start_rx)

        sim.at(0, send)
        sim.run_until(seconds(0.1))
        assert len(received) == 1
        assert outcomes[0].delivered_to == ["a"]

    def test_retuned_receiver_leaves_the_audience(self, sim, cal):
        channel = Channel(sim)
        s = Nrf2401(sim, cal, channel, "s")
        r = Nrf2401(sim, cal, channel, "r")
        s.power_up()
        r.power_up()
        received = []
        r.on_frame = received.append
        r.start_rx()

        def send():
            s.send(Frame(src="s", dest="r", kind=FrameKind.DATA,
                         payload_bytes=4))

        send()
        sim.run_until(seconds(0.01))
        assert len(received) == 1
        r.rf_channel = 40
        sim.at(seconds(0.02), send)
        sim.run_until(seconds(0.03))
        assert len(received) == 1  # r no longer hears channel 0
        s.rf_channel = 40
        sim.at(seconds(0.04), send)
        sim.run_until(seconds(0.05))
        assert len(received) == 2

    def test_loss_model_corrupts_at_receiver(self, sim, cal):
        channel = Channel(sim, loss_model=UniformLoss(1.0))
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        a.power_up()
        b.power_up()
        received = []
        b.on_frame = received.append
        b.start_rx()
        a.send(Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=4))
        sim.at(seconds(0.1), b.stop_rx)
        sim.run_until(seconds(0.2))
        assert received == []
        assert b.snapshot_counters().corrupted == 1


def test_importing_repro_leaves_numpy_unloaded():
    """The package is pure Python: no import of the experiment or lint
    entry points pulls numpy in."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys\n"
             "import repro.analysis.experiments\n"
             "import repro.lint.cli\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] == 'numpy'))\n")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True,
                            check=True).stdout
    assert loaded.strip() == "[]"
