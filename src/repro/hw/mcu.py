"""TI MSP430F149 microcontroller model.

The paper models the MCU with exactly two power states (Section 4.1):

* **active** — 2.0 mA at 2.8 V, while executing code;
* **power saving** — 0.66 mA at 2.8 V (the first low-power mode; the
  TinyOS scheduler never needed a deeper one for these applications).

Software costs are expressed in core clock cycles (8 MHz in the case
studies) and converted to active time; waking from the power-saving mode
costs the datasheet's 6 us, which we book as active time before the first
task runs.

The model deliberately does *not* interpret instructions: like the
paper's, it is a time-in-state model driven by the TinyOS scheduler.
So a task that wakes the core from LPM0 adds only the fixed wake-up
and its cycles' active time: :meth:`Msp430.wake_for_task` plans one
such task's transitions, and :meth:`Msp430.count_idle_tasks` books
any number that have already ended as counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..core.calibration import ModelCalibration
from ..core.ledger import PowerStateLedger
from ..core.states import PowerState, PowerStateTable
from ..sim.kernel import Simulator
from ..sim.simtime import TICKS_PER_SECOND, seconds
from ..sim.trace import TraceRecorder

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

#: Name of the executing state.
ACTIVE = "active"
#: Name of the power-saving state (the paper's "power saving mode",
#: LPM0 — the only mode the case-study applications ever used).
SLEEP = "sleep"
#: Name of the deep power-saving state (LPM3-class; an extension — the
#: deep-sleep ablation's what-if, never entered unless a policy asks).
DEEP_SLEEP = "deep_sleep"

# Ledger (state, tag) keys of a task booked by Msp430.wake_for_task.
_WAKEUP = (ACTIVE, "wakeup")
_TASK = (ACTIVE, "task")
_ASLEEP = (SLEEP, SLEEP)


class Msp430:
    """Two-state MSP430 power model with cycle-based activity accounting.

    Args:
        sim: the simulation kernel.
        calibration: electrical and timing constants.
        name: instance name used in traces/reports (e.g. ``"node1.mcu"``).
    """

    def __init__(self, sim: Simulator, calibration: ModelCalibration,
                 name: str = "mcu",
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self._cal = calibration
        self.name = name
        self._trace = trace
        table = PowerStateTable([
            PowerState(ACTIVE, calibration.mcu_active_a),
            PowerState(SLEEP, calibration.mcu_sleep_a),
            PowerState(DEEP_SLEEP, calibration.mcu_deep_sleep_a),
        ])
        self.ledger = PowerStateLedger(
            sim, name, table, calibration.supply_v, initial_state=SLEEP)
        self._cycles_executed = 0
        self._wakeups = 0
        # cycles -> ticks memo: task cycle counts come from the small
        # calibrated cost table, so the dispatcher's per-task conversion
        # collapses to one dict hit.
        self._ticks_memo: dict = {}
        self._wake_latency_ticks = seconds(calibration.mcu_wakeup_s)

    # ------------------------------------------------------------------
    # State control (driven by the TinyOS scheduler)
    # ------------------------------------------------------------------
    @property
    def is_sleeping(self) -> bool:
        """Whether the core is in a power-saving state (any LPM)."""
        return self.ledger.state in (SLEEP, DEEP_SLEEP)

    @property
    def cycles_executed(self) -> int:
        """Total core clock cycles booked as executed."""
        return self._cycles_executed

    @property
    def wakeups(self) -> int:
        """Number of sleep -> active transitions."""
        return self._wakeups

    def wake(self) -> int:
        """Bring the core to active mode.

        Returns the wake-up latency in ticks (0 if already active); the
        caller (scheduler) delays the first task by that amount.  The
        latency interval is booked as active time, which is how the
        paper's measurement setup sees it.
        """
        if not self.is_sleeping:
            return 0
        self._wakeups += 1
        self.ledger.transition(ACTIVE, tag="wakeup")
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "wake", "")
        return self._wake_latency_ticks

    @property
    def wake_latency_ticks(self) -> int:
        """The LPM0 wake-up latency, in ticks."""
        return self._wake_latency_ticks

    def wake_for_task(self, cycles: int,
                      now: int) -> Optional[Tuple[int, int]]:
        """Wake from LPM0 at tick ``now`` for one task, without events.

        Plans on the ledger what :meth:`wake` at ``now``,
        :meth:`begin_task` after the wake-up latency and :meth:`sleep`
        after ``cycles`` would book, at the same ticks; ``now`` may lie
        in the past if nothing after it is booked.  Returns the task's
        (start, end) ticks; None, booking nothing, unless the core
        sleeps in LPM0 with no trace attached.  The previous task's
        plans stay pending: once they are all due, the last one (a
        sleep) answers the state read, and the ledger's next booking
        applies them.
        """
        ledger = self.ledger
        if self._trace is not None or ledger.state != SLEEP:
            return None
        self._wakeups += 1
        start = now + self._wake_latency_ticks
        end = start + self.cycles_to_ticks(cycles)
        ledger.plan((now, _WAKEUP), (start, _TASK), (end, _ASLEEP))
        return start, end

    def count_idle_tasks(self, cycles: int, count: int) -> bool:
        """Book ``count`` tasks of ``cycles`` that each woke the core
        from LPM0 and slept again, all inside the LPM0 time before now.

        Counts their wake-ups and cycles, and books their wake-ups and
        task times in closed form
        (:meth:`~repro.core.ledger.PowerStateLedger.book_round_trips`),
        as :meth:`wake_for_task` per task would once its plans were
        applied.  Returns False, booking nothing, unless the core
        sleeps in LPM0 with no trace attached and the ledger books the
        round trips.
        """
        ledger = self.ledger
        if (self._trace is not None or ledger.state != SLEEP
                or not ledger.book_round_trips(
                    _ASLEEP, ((_WAKEUP, self._wake_latency_ticks),
                              (_TASK, self.cycles_to_ticks(cycles))),
                    count)):
            return False
        self._wakeups += count
        self._cycles_executed += count * cycles
        return True

    def begin_task(self, label: str = "") -> None:
        """Mark the start of task execution (re-tags active time)."""
        ledger = self.ledger
        if ledger.state != ACTIVE:  # a planned wake counts
            raise RuntimeError(
                f"{self.name}: task {label!r} started while sleeping; "
                "the scheduler must wake the core first")
        ledger.retag("task")

    def sleep(self, deep: bool = False) -> None:
        """Drop to a power-saving mode (task queue drained).

        ``deep=True`` selects the LPM3-class state the deep-sleep
        policy extension uses; the paper's validated behaviour is the
        default LPM0.  Re-selecting the depth while already sleeping is
        honoured (the power manager may deepen an ongoing sleep).
        """
        target = DEEP_SLEEP if deep else SLEEP
        if self.ledger.state == target:
            return
        self.ledger.transition(target)
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, target, "")

    # ------------------------------------------------------------------
    # Cost conversion
    # ------------------------------------------------------------------
    # The memo write below is value-deterministic (same key, same
    # value), so callers — including span hooks — observe a pure map.
    # effect: pure
    def cycles_to_ticks(self, cycles: int) -> int:
        """Duration of ``cycles`` core clock cycles, in simulation ticks."""
        ticks = self._ticks_memo.get(cycles)
        if ticks is None:
            if cycles < 0:
                raise ValueError(f"negative cycle count: {cycles}")
            ticks = round(cycles * TICKS_PER_SECOND / self._cal.mcu_clock_hz)
            self._ticks_memo[cycles] = ticks
        return ticks

    def account_cycles(self, cycles: int) -> None:
        """Book ``cycles`` into the executed-cycles counter."""
        self._cycles_executed += cycles

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def active_seconds(self) -> float:
        """Time spent in the active state so far, in seconds."""
        return self.ledger.seconds_in(ACTIVE)

    def energy_mj(self) -> float:
        """Total MCU energy so far, in millijoules."""
        return self.ledger.energy_mj()

    def observe_metrics(self, registry: "MetricsRegistry",
                        node: str) -> None:
        """Pull this MCU's figures into a metrics registry.

        Per-state residency and energy as state timers, plus the
        executed-cycle and wakeup counters.  Read-only: call once per
        collected run.
        """
        residency = registry.state_timer("mcu", node, "residency_s")
        for state, state_s in self.ledger.seconds_by_state().items():
            residency.add(state, state_s)
        energy = registry.state_timer("mcu", node, "energy_mj")
        for state, joules in self.ledger.energy_by_state().items():
            energy.add(state, 1e3 * joules)
        registry.counter("mcu", node,
                         "cycles_executed").inc(self._cycles_executed)
        registry.counter("mcu", node, "wakeups").inc(self._wakeups)

    def reset_measurement(self) -> None:
        """Clear ledgers/counters at the start of a measurement window."""
        self.ledger.reset()
        self._cycles_executed = 0
        self._wakeups = 0


__all__ = ["Msp430", "ACTIVE", "SLEEP", "DEEP_SLEEP"]
