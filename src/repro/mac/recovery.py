"""Degradation/recovery policy knobs for the node-side TDMA MACs.

The WBAN MAC surveys (Rahim et al.; Ullah et al.) identify recovery
from missed beacons and slot loss as the dominant reliability/energy
trade-off in TDMA BANs.  :class:`RecoveryConfig` packages the knobs of
the reproduction's recovery behaviour:

* **Guard-window widening** — after each consecutive missed beacon the
  free-running node multiplies its guard lead by ``widen_factor``
  (capped at ``max_widen_factor``), trading RX energy for a better
  chance of catching the drifting beacon.
* **Bounded reacquisition scan** — once demoted to acquisition after
  ``max_missed_beacons`` misses, the node duty-cycles the receiver
  (``scan_on_cycles`` listening, ``scan_off_cycles`` asleep) instead of
  burning continuous RX forever against a base station that may be gone.
* **Slot re-request backoff** — in dynamic TDMA a joining node whose
  slot requests keep going unanswered backs off exponentially (skipping
  ``2^(n-1) - 1`` cycles after the n-th attempt, capped at
  ``ssr_backoff_cap_cycles``) so a congested ES window is not hammered
  every cycle.
* **CSMA backoff-cap widening** — a CSMA/CA node whose clear-channel
  assessments come back busy ``csma_busy_streak`` times in a row (the
  signature of a locked-up receive chain or a saturated channel) raises
  its maximum backoff exponent by ``csma_be_boost``, spreading retries
  over a wider window until an idle CCA clears the streak.

All of it is **opt-in**: every MAC built without a ``RecoveryConfig``
behaves exactly as before (ledger byte-identical), which is what keeps
the no-fault golden values valid.  The dataclass is frozen and
value-typed so it participates in the config fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RecoveryConfig:
    """Opt-in MAC degradation/recovery behaviour.

    Attributes:
        widen_factor: per-consecutive-miss multiplier on the guard
            lead (1.0 disables widening).
        max_widen_factor: cap on the accumulated widening multiplier.
        scan_on_cycles: cycles of continuous listening per
            reacquisition-scan burst.
        scan_off_cycles: cycles of radio-off pause between scan bursts
            (0 disables the duty cycle: continuous reacquisition RX,
            the pre-recovery behaviour).
        ssr_backoff_cap_cycles: cap, in cycles, on the exponential
            slot-re-request backoff (0 disables backoff).
        csma_busy_streak: consecutive busy CCAs before a CSMA node
            widens its backoff-exponent cap (0 disables widening).
        csma_be_boost: how much the maximum backoff exponent grows
            while the busy streak persists.
    """

    widen_factor: float = 1.5
    max_widen_factor: float = 6.0
    scan_on_cycles: float = 2.0
    scan_off_cycles: float = 3.0
    ssr_backoff_cap_cycles: int = 8
    csma_busy_streak: int = 4
    csma_be_boost: int = 2

    def __post_init__(self) -> None:
        if self.widen_factor < 1.0:
            raise ValueError(
                f"widen_factor must be >= 1: {self.widen_factor}")
        if self.max_widen_factor < self.widen_factor:
            raise ValueError(
                "max_widen_factor must be >= widen_factor: "
                f"{self.max_widen_factor} < {self.widen_factor}")
        if self.scan_on_cycles <= 0:
            raise ValueError(
                f"scan_on_cycles must be positive: {self.scan_on_cycles}")
        if self.scan_off_cycles < 0:
            raise ValueError(
                f"scan_off_cycles must be >= 0: {self.scan_off_cycles}")
        if self.ssr_backoff_cap_cycles < 0:
            raise ValueError(
                "ssr_backoff_cap_cycles must be >= 0: "
                f"{self.ssr_backoff_cap_cycles}")
        if self.csma_busy_streak < 0:
            raise ValueError(
                f"csma_busy_streak must be >= 0: {self.csma_busy_streak}")
        if self.csma_be_boost < 0:
            raise ValueError(
                f"csma_be_boost must be >= 0: {self.csma_be_boost}")

    def widened_lead(self, lead: int, consecutive_misses: int) -> int:
        """The guard lead after ``consecutive_misses`` missed beacons."""
        if consecutive_misses <= 0 or self.widen_factor == 1.0:
            return lead
        factor = min(self.widen_factor ** consecutive_misses,
                     self.max_widen_factor)
        return round(lead * factor)

    def ssr_skip_cycles(self, attempts: int) -> int:
        """Cycles to skip after the ``attempts``-th unanswered SSR."""
        if self.ssr_backoff_cap_cycles == 0 or attempts <= 1:
            return 0
        return min(2 ** (attempts - 1) - 1, self.ssr_backoff_cap_cycles)


__all__ = ["RecoveryConfig"]
