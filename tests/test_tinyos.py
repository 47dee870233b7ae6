"""Unit tests for the TinyOS model: scheduler, timers, components."""

import pytest

from repro.hw.mcu import Msp430
from repro.sim.simtime import microseconds, milliseconds, seconds
from repro.tinyos.components import Component, ComponentStack
from repro.tinyos.scheduler import TaskScheduler
from repro.tinyos.tasks import Task
from repro.tinyos.timers import VirtualTimer


@pytest.fixture
def machine(sim, cal):
    mcu = Msp430(sim, cal)
    return mcu, TaskScheduler(sim, mcu)


class TestTask:
    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Task(body=lambda: None, cycles=-1)

    def test_ids_increase_in_post_order(self, sim, cal):
        # Ids are assigned per scheduler (a process-global counter
        # would make repeat runs trace different serials).
        scheduler = TaskScheduler(sim, Msp430(sim, cal))
        a = scheduler.post(lambda: None, 0)
        b = scheduler.post(lambda: None, 0)
        assert b.task_id > a.task_id
        fresh = TaskScheduler(sim, Msp430(sim, cal))
        assert fresh.post(lambda: None, 0).task_id == a.task_id


class TestScheduler:
    def test_post_wakes_mcu_and_runs(self, sim, machine):
        mcu, scheduler = machine
        ran = []
        scheduler.post(lambda: ran.append(sim.now), 8000, "t")
        sim.run_until(seconds(1.0))
        assert ran == [microseconds(6)]  # after the wake-up latency
        assert mcu.is_sleeping  # back to sleep after the queue drained

    def test_fifo_order(self, sim, machine):
        _, scheduler = machine
        order = []
        for name in "abc":
            scheduler.post(lambda n=name: order.append(n), 100, name)
        sim.run_until(seconds(1.0))
        assert order == ["a", "b", "c"]

    def test_tasks_run_serially_with_durations(self, sim, machine):
        mcu, scheduler = machine
        times = []
        scheduler.post(lambda: times.append(sim.now), 8000, "a")  # 1 ms
        scheduler.post(lambda: times.append(sim.now), 8000, "b")
        sim.run_until(seconds(1.0))
        assert times[1] - times[0] == milliseconds(1)

    def test_active_time_equals_task_cost_plus_wakeup(self, sim, machine):
        mcu, scheduler = machine
        scheduler.post_cost_only(16000, "two-ms")  # 2 ms at 8 MHz
        sim.run_until(seconds(1.0))
        assert mcu.active_seconds() == pytest.approx(2e-3 + 6e-6)

    def test_post_during_task_extends_run(self, sim, machine):
        mcu, scheduler = machine
        ran = []

        def first():
            ran.append("first")
            scheduler.post(lambda: ran.append("second"), 100, "second")

        scheduler.post(first, 100, "first")
        sim.run_until(seconds(1.0))
        assert ran == ["first", "second"]

    def test_no_second_wakeup_when_queue_busy(self, sim, machine):
        mcu, scheduler = machine
        scheduler.post_cost_only(80000, "long")  # 10 ms
        sim.at(milliseconds(2),
               lambda: scheduler.post_cost_only(100, "late"))
        sim.run_until(seconds(1.0))
        assert mcu.wakeups == 1

    def test_counters(self, sim, machine):
        _, scheduler = machine
        scheduler.post_cost_only(10)
        scheduler.post_cost_only(10)
        sim.run_until(seconds(1.0))
        assert scheduler.tasks_run == 2
        assert scheduler.is_idle

    def test_zero_cost_task(self, sim, machine):
        mcu, scheduler = machine
        ran = []
        scheduler.post(lambda: ran.append(1), 0, "free")
        sim.run_until(seconds(1.0))
        assert ran == [1]


class TestVirtualTimer:
    def test_one_shot(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_one_shot(milliseconds(5))
        sim.run_until(seconds(1.0))
        assert fired == [milliseconds(5)]
        assert not timer.is_running

    def test_periodic_grid_is_exact(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_periodic(milliseconds(5))
        sim.run_until(milliseconds(50))
        assert fired == [milliseconds(5 * k) for k in range(1, 11)]

    def test_periodic_first_delay(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_periodic(milliseconds(10), first_delay=milliseconds(1))
        sim.run_until(milliseconds(25))
        assert fired == [milliseconds(1), milliseconds(11),
                         milliseconds(21)]

    def test_stop_cancels(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_periodic(milliseconds(5))
        sim.at(milliseconds(12), timer.stop)
        sim.run_until(milliseconds(50))
        assert len(fired) == 2

    def test_restart_replaces_schedule(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_one_shot(milliseconds(5))
        timer.start_one_shot(milliseconds(9))
        sim.run_until(milliseconds(20))
        assert fired == [milliseconds(9)]

    def test_invalid_period(self, sim):
        timer = VirtualTimer(sim, lambda: None)
        with pytest.raises(ValueError):
            timer.start_periodic(0)

    def test_fired_count(self, sim):
        timer = VirtualTimer(sim, lambda: None)
        timer.start_periodic(milliseconds(2))
        sim.run_until(milliseconds(10))
        assert timer.fired_count == 5


class TestComponents:
    def make(self, sim):
        events = []

        class Probe(Component):
            def on_start(self):
                events.append(f"{self.name}:start")

        return Probe, events

    def test_start_stop_hooks(self, sim):
        Probe, events = self.make(sim)
        probe = Probe(sim, "p")
        assert not probe.started
        probe.start()
        assert events == ["p:start"]
        assert probe.started

    def test_double_start_raises(self, sim):
        Probe, _ = self.make(sim)
        probe = Probe(sim, "p")
        probe.start()
        with pytest.raises(RuntimeError):
            probe.start()

    def test_stack_order(self, sim):
        Probe, events = self.make(sim)
        stack = ComponentStack()
        stack.add(Probe(sim, "low"))
        stack.add(Probe(sim, "high"))
        stack.start_all()
        assert events == ["low:start", "high:start"]

    def test_stack_lookup_and_duplicates(self, sim):
        Probe, _ = self.make(sim)
        stack = ComponentStack()
        low = stack.add(Probe(sim, "low"))
        assert stack["low"] is low
        with pytest.raises(ValueError):
            stack.add(Probe(sim, "low"))
        with pytest.raises(KeyError):
            stack["missing"]
