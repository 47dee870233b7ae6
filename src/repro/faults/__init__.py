"""Deterministic fault injection for BAN scenarios.

The paper's energy model exists to account for the ugly cases —
collisions, idle listening, overhearing, lost beacons — but a
reproduction also needs the *node-level* ugly cases: crashes, radio
lockups, clock glitches, dying batteries.  This package provides:

* :mod:`repro.faults.spec` — frozen, value-typed fault descriptions
  (:class:`NodeCrash`, :class:`RadioLockup`, :class:`BeaconLossBurst`,
  :class:`ClockStep`, :class:`BatteryBrownout`, :class:`RandomFaults`)
  collected into a :class:`FaultPlan`.  Being plain dataclasses, plans
  ride along in :class:`~repro.net.scenario.BanScenarioConfig` and
  participate in the config fingerprint.
* :mod:`repro.faults.injector` — :class:`FaultInjector` turns a plan
  into simulation events on the scenario's kernel, so fault timing is
  exactly as reproducible as everything else: same seed, same schedule,
  same ledgers.

Faults are injected *beneath* the protocol (stack stop/start, radio
receive-path flags, MAC clock bookkeeping), so the MACs recover — or
fail to — through their ordinary machinery, which is what the
:class:`~repro.mac.recovery.RecoveryConfig` degradation behaviour is
measured against.  A config with ``faults=None`` builds a byte-for-byte
identical scenario to one predating this package.
"""

from .injector import FaultCounters, FaultInjector
from .spec import (
    BatteryBrownout,
    BeaconLossBurst,
    ClockStep,
    FaultPlan,
    NodeCrash,
    RadioLockup,
    RandomFaults,
    parse_fault_spec,
    random_fault_plan,
)

__all__ = [
    "BatteryBrownout",
    "BeaconLossBurst",
    "ClockStep",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "NodeCrash",
    "RadioLockup",
    "RandomFaults",
    "parse_fault_spec",
    "random_fault_plan",
]
