#!/usr/bin/env python3
"""Battery lifecycle: watching a node drain, raise alerts, and buy time.

The platform's mission is autonomy.  This example runs one Rpeak node
on a deliberately tiny cell so its whole battery life fits in a short
simulation, and exercises the operational side of the energy model:

1. a :class:`BatteryMonitor` tracks state of charge on-line and fires
   threshold alerts (50% / 20% / 5%) during the run;
2. at the 20% alert the *deployment* reacts the way the ablations say
   it should — the simulation is re-run with the tight drift-tracking
   guard to show the lifetime a firmware update would buy.

Run:  python examples/battery_lifecycle.py
"""

from repro.hw.battery import Battery
from repro.mac.sync import DriftTrackingLead
from repro.net.monitor import BatteryMonitor
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.sim.simtime import seconds, to_seconds

#: A toy cell (0.1 mAh) so depletion fits in ~1 minute of simulation.
TOY_CELL = Battery(capacity_mah=0.1, voltage_v=2.8, usable_fraction=1.0)

RUN_S = 60.0


def run_with_monitor(sync_factory=None):
    config = BanScenarioConfig(mac="static", app="rpeak", num_nodes=1,
                               cycle_ms=120.0, measure_s=RUN_S,
                               sync_policy_factory=sync_factory)
    scenario = BanScenario(config)
    monitor = BatteryMonitor(scenario.nodes[0], TOY_CELL,
                             include_asic=True, sample_period_s=0.5,
                             thresholds=(0.5, 0.2, 0.05))
    alerts = []
    for threshold in (0.5, 0.2, 0.05):
        monitor.on_threshold(
            threshold,
            lambda node_id, t, soc: alerts.append(
                (to_seconds(scenario.sim.now), t, soc)))
    monitor.start()
    scenario.run()
    return monitor, alerts


def main() -> None:
    print(f"Running one Rpeak node on a {TOY_CELL.capacity_mah} mAh "
          f"cell for {RUN_S:.0f} s...")
    monitor, alerts = run_with_monitor()
    for at_s, threshold, soc in alerts:
        print(f"  t={at_s:5.1f} s  ALERT: state of charge fell past "
              f"{100 * threshold:.0f}% (now {100 * soc:.1f}%)")
    final = monitor.state_of_charge
    print(f"  end of run: {100 * final:.1f}% left"
          + ("  [DEPLETED]" if monitor.is_depleted else ""))
    estimate = monitor.estimated_remaining_s()
    if estimate is not None:
        print(f"  linear time-to-empty estimate: {estimate:.0f} s")

    print("\nReacting to the 20% alert with a firmware change "
          "(drift-tracking guard, 50 ppm):")
    tight_monitor, _ = run_with_monitor(
        sync_factory=lambda cal: DriftTrackingLead(tolerance_ppm=50.0))
    print(f"  same run, tight guard: "
          f"{100 * tight_monitor.state_of_charge:.1f}% left "
          f"(vs {100 * final:.1f}%)")


if __name__ == "__main__":
    main()
