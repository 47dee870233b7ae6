"""Host-speed correction of the benchmark's timed phases.

The benchmark runs on the vCPUs of a shared host.  Their speed is not
fixed: pure-Python work runs at full speed for a while, then at about
half speed, then at full speed again, in phases from milliseconds to
seconds long, with no steal time reported and nothing descheduled.  A
repeat of a workload takes 0.5 to 5 s, so it straddles many such
changes, and a median over repeats still moves by 20 to 40 % from one
run to the next.

:class:`HostSpeedMeter` measures that speed while the program runs.
Every :data:`INTERVAL_S` of wall time a ``SIGALRM`` handler times a fixed
sample of pure-Python work (float arithmetic, attribute updates, dict
and list indexing, method calls; nothing the garbage collector tracks
is allocated).  The program time of the slice before a sample is scaled
by the speed ``(REFERENCE_SAMPLE_S / sample time) ** SENSITIVITY``, so
corrected seconds are seconds on a host where the sample takes
:data:`REFERENCE_SAMPLE_S`: the host at full speed.  The handler's own
time is left out of both the program's wall time and its corrected
time.

The sample depends on nothing in ``src/``, so a change to the program
moves corrected seconds as much as wall seconds.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Tuple

#: Wall time between samples [s].  The host's speed changes within
#: milliseconds, so many short samples track it better than fewer long
#: ones: in-process repeats of ``ward_mixed`` spread 4-6 % after
#: correction with 50-step samples every 1-2 ms, 11 % with 500-step
#: samples every 10 ms, and 15-20 % uncorrected.
INTERVAL_S = 0.002
#: Steps of one sample.
SAMPLE_STEPS = 50
#: Duration of one sample at full speed on the host the benchmark was
#: calibrated on, a 2-vCPU Intel Xeon VM [s]; in its slow phases a
#: sample takes 36-46 us.
REFERENCE_SAMPLE_S = 23e-6
#: How much the program slows for a given slowdown of the sample: the
#: tight sample loses more speed to the host's slow phases than the
#: program does.  Over 50 fresh-process repeats of each simulating
#: workload, log wall time rose 0.68-0.89 times as fast as log sample
#: time, and 0.8 left the least spread in both set-up and timed phase
#: (1.6-5.5 % per repeat, against 4.6-12.9 % with 1 and 15-39 %
#: uncorrected).  Samples with a working set of megabytes tracked the
#: program worse.
SENSITIVITY = 0.8
#: Currents of the sample's four states [A].
_CURRENTS = (0.0005, 0.0165, 0.0190, 0.0030)


class _Station:
    """State of one station of the sample."""

    __slots__ = ("energy", "state", "last")

    def __init__(self) -> None:
        self.energy = 0.0
        self.state = 0
        self.last = 0.0

    def step(self, now: float) -> None:
        self.energy += (now - self.last) * _CURRENTS[self.state]
        self.last = now
        self.state = (self.state + 1) & 3


class HostSpeedMeter:
    """Stopwatch of program time, in wall and in corrected seconds.

    ``start()`` begins sampling and ``stop()`` ends it; ``lap()`` returns
    the time since the previous lap, or since the meter was made.
    Without sampling the meter is a plain stopwatch, whose corrected
    time uses the last speed measured.
    """

    def __init__(self) -> None:
        self._stations = [_Station() for _ in range(64)]
        self._visits = dict.fromkeys(range(64), 0)
        self._previous_handler: Any = None
        self._busy = False
        self._lap_wall = 0.0
        self._lap_corrected = 0.0
        self._resumed = time.perf_counter()
        self._speed = 1.0

    def _sample(self) -> float:
        """Run the sample once; its duration [s]."""
        stations, visits = self._stations, self._visits
        began = time.perf_counter()
        now = 0.0
        index = 0
        for step in range(SAMPLE_STEPS):
            index = (index * 29 + 7) & 63
            now += 1e-3 * (1 + step * 7919 % 13)
            stations[index].step(now)
            visits[index] = visits[index] + 1
        return time.perf_counter() - began

    def _tick(self, _signum: int, _frame: Any) -> None:
        # Skipped while a sample or a lap is under way: the handler runs
        # between any two bytecodes, and would split their arithmetic.
        if self._busy:
            return
        self._busy = True
        slice_s = time.perf_counter() - self._resumed
        self._speed = (REFERENCE_SAMPLE_S / self._sample()) ** SENSITIVITY
        self._lap_wall += slice_s
        self._lap_corrected += slice_s * self._speed
        self._resumed = time.perf_counter()
        self._busy = False

    def start(self) -> None:
        """Sample every :data:`INTERVAL_S` from now on; the first lap
        counts from the meter's construction."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling and restore the previous ``SIGALRM`` handler."""
        if self._previous_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None

    def lap(self) -> Tuple[float, float]:
        """Program time since the previous lap: (wall s, corrected s).

        The slice since the last sample (under :data:`INTERVAL_S`) is
        scaled by that sample's speed, or by 1 before the first sample.
        """
        self._busy = True
        now = time.perf_counter()
        slice_s = now - self._resumed
        lap = (self._lap_wall + slice_s,
               self._lap_corrected + slice_s * self._speed)
        self._lap_wall = self._lap_corrected = 0.0
        self._resumed = now
        self._busy = False
        return lap
