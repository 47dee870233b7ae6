"""Adaptive cardiac monitoring: beat reports normally, raw ECG on alarm.

The paper's trade-off is static: stream everything (Section 5.1) *or*
detect beats on the node (5.2).  A clinical deployment wants both —
"sensor devices can be programmed ... to raise an alert condition when
vital signs fall outside of normal parameters" (the CodeBlue system the
related work cites).  This application closes the loop:

* **MONITOR mode** (default): behaves like the Rpeak application — beat
  detection on every sample, one small report per beat, long cycles
  possible, minimal radio energy;
* **ALARM mode**: when the measured RR intervals turn abnormal
  (bradycardia, tachycardia, or high variability — the arrhythmias
  :mod:`repro.signals.arrhythmia` synthesises), the node switches to
  raw streaming for ``alarm_hold_s`` so clinicians get waveform
  context, then falls back once the rhythm normalises.

Energy-wise the node pays streaming rates only while something is
wrong — the adaptive version of Figure 4's trade-off.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.calibration import ModelCalibration
from ..hw.adc import Adc12
from ..hw.asic import BiopotentialAsic
from ..mac.base import AppPayload, NodeMac
from ..sim.kernel import Simulator
from ..sim.simtime import seconds, to_seconds
from ..sim.trace import TraceRecorder
from ..tinyos.scheduler import TaskScheduler
from .base import SamplingApplication
from .ecg_streaming import codes_per_payload
from .rpeak import BEAT_PAYLOAD_BYTES
from .rpeak_detector import RPeakDetector


class CardiacMode(enum.Enum):
    """Operating mode of the adaptive application."""

    MONITOR = "monitor"
    ALARM = "alarm"


class AdaptiveCardiacApp(SamplingApplication):
    """Beat reports in normal rhythm; raw streaming during alarms.

    Args:
        bradycardia_bpm: alarm when the smoothed rate drops below this.
        tachycardia_bpm: alarm when it exceeds this.
        rr_irregularity: alarm when consecutive RR intervals differ by
            more than this fraction.
        alarm_hold_s: minimum time to remain streaming after the last
            abnormal observation.
        payload_bytes: streaming payload per cycle in ALARM mode.
    """

    def __init__(self, sim: Simulator, scheduler: TaskScheduler,
                 asic: BiopotentialAsic, adc: Adc12, mac: NodeMac,
                 calibration: ModelCalibration,
                 channels: Sequence[int] = (0, 1),
                 sampling_hz: float = 200.0,
                 bradycardia_bpm: float = 45.0,
                 tachycardia_bpm: float = 130.0,
                 rr_irregularity: float = 0.35,
                 alarm_hold_s: float = 10.0,
                 payload_bytes: int = 18,
                 name: str = "adaptive",
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, scheduler, asic, adc, mac, calibration,
                         channels, sampling_hz, name=name, trace=trace)
        if bradycardia_bpm >= tachycardia_bpm:
            raise ValueError(
                f"bradycardia bound {bradycardia_bpm} must be below "
                f"tachycardia bound {tachycardia_bpm}")
        if alarm_hold_s <= 0:
            raise ValueError(f"alarm_hold_s must be positive: "
                             f"{alarm_hold_s}")
        self.bradycardia_bpm = bradycardia_bpm
        self.tachycardia_bpm = tachycardia_bpm
        self.rr_irregularity = rr_irregularity
        self.alarm_hold_ticks = seconds(alarm_hold_s)
        self.payload_bytes = payload_bytes
        self._capacity = codes_per_payload(payload_bytes)

        # Beat detection runs on the primary channel only (MONITOR
        # decisions need one rhythm estimate, not one per lead).
        self._detector = RPeakDetector(sampling_hz)
        self._rr_history: Deque[float] = deque(maxlen=8)
        self._last_beat_s: Optional[float] = None
        self._pending_reports: Deque[Dict] = deque(maxlen=16)
        self._stream_buffer: Deque[int] = deque(maxlen=16 * self._capacity)

        self.mode = CardiacMode.MONITOR
        self._alarm_until = 0
        self.mode_changes: List[Tuple[float, CardiacMode, str]] = []
        self.beats_detected = 0
        self.alarms_raised = 0

    # ------------------------------------------------------------------
    def extra_cycles_per_channel(self) -> int:
        # The detector runs once per sample vector (primary channel
        # only); the base class multiplies by the channel count, so
        # divide the algorithm cost back out to charge it once.
        return self._cal.mcu_costs.rpeak_algorithm // len(self.channels)

    # ------------------------------------------------------------------
    # Rhythm assessment
    # ------------------------------------------------------------------
    def _assess_rhythm(self) -> Optional[str]:
        """A reason string when the rhythm is abnormal, else None."""
        if len(self._rr_history) < 3:
            return None
        recent = list(self._rr_history)
        mean_rr = sum(recent) / len(recent)
        rate = 60.0 / mean_rr
        if rate < self.bradycardia_bpm:
            return f"bradycardia ({rate:.0f} bpm)"
        if rate > self.tachycardia_bpm:
            return f"tachycardia ({rate:.0f} bpm)"
        for previous, current in zip(recent, recent[1:]):
            if abs(current - previous) / previous > self.rr_irregularity:
                return (f"irregular RR ({previous * 1e3:.0f} -> "
                        f"{current * 1e3:.0f} ms)")
        return None

    def _enter_alarm(self, reason: str) -> None:
        # Called from handle_samples: "now" is the sample's tick.
        now = self.sample_tick
        self._alarm_until = now + self.alarm_hold_ticks
        if self.mode is CardiacMode.ALARM:
            return
        self.mode = CardiacMode.ALARM
        self.alarms_raised += 1
        self.mode_changes.append(
            (to_seconds(now), CardiacMode.ALARM, reason))
        if self._trace is not None:
            self._trace.record(now, self.name, "alarm", reason)

    def _maybe_recover(self) -> None:
        now = self.sample_tick
        if self.mode is CardiacMode.ALARM and now >= self._alarm_until:
            self.mode = CardiacMode.MONITOR
            self.mode_changes.append(
                (to_seconds(now), CardiacMode.MONITOR,
                 "rhythm normalised"))
            self._stream_buffer.clear()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def handle_samples(self, codes: Tuple[int, ...]) -> None:
        now_s = to_seconds(self.sample_tick)
        lag = self._detector.process(float(codes[0]))
        if lag > 0:
            self.beats_detected += 1
            beat_s = now_s - lag / self.sampling_hz
            if self._last_beat_s is not None:
                self._rr_history.append(beat_s - self._last_beat_s)
            self._last_beat_s = beat_s
            self._pending_reports.append({
                "kind": "beat",
                "lag_samples": lag,
                "detected_at_s": now_s,
            })
            reason = self._assess_rhythm()
            if reason is not None:
                self._enter_alarm(reason)
        self._maybe_recover()
        if self.mode is CardiacMode.ALARM:
            for code in codes:
                self._stream_buffer.append(code)

    # ------------------------------------------------------------------
    # MAC payload
    # ------------------------------------------------------------------
    def next_payload(self) -> Optional[AppPayload]:
        if self.mode is CardiacMode.ALARM:
            take = min(len(self._stream_buffer), self._capacity)
            codes = [self._stream_buffer.popleft() for _ in range(take)]
            return (self.payload_bytes, {
                "kind": "alarm_stream",
                "codes": codes,
                "pending_beats": len(self._pending_reports),
            })
        if self._pending_reports:
            return (BEAT_PAYLOAD_BYTES, self._pending_reports.popleft())
        return None

    # ------------------------------------------------------------------
    @property
    def in_alarm(self) -> bool:
        """Whether the node is currently streaming raw waveform."""
        return self.mode is CardiacMode.ALARM

    def alarm_time_fraction(self, horizon_s: float) -> float:
        """Share of ``horizon_s`` spent in ALARM mode (from the mode log,
        assuming the app started in MONITOR at t=0)."""
        if horizon_s <= 0:
            raise ValueError(f"horizon must be positive: {horizon_s}")
        total = 0.0
        alarm_since: Optional[float] = None
        for at_s, mode, _ in self.mode_changes:
            if mode is CardiacMode.ALARM and alarm_since is None:
                alarm_since = at_s
            elif mode is CardiacMode.MONITOR and alarm_since is not None:
                total += at_s - alarm_since
                alarm_since = None
        if alarm_since is not None:
            total += horizon_s - alarm_since
        return min(1.0, total / horizon_s)


__all__ = ["CardiacMode", "AdaptiveCardiacApp"]
