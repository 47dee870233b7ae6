#!/usr/bin/env python3
"""Architectural tuning: the study the paper says its model enables.

"This model can be employed to tune the node architecture and
communication layer for different working conditions, applications and
topologies of BANs" (abstract).  This example does exactly that for a
5-node BAN detecting R-peaks on the node:

1. **MAC choice** — static vs dynamic TDMA at equal network size;
2. **Sync policy** — the platform's calibrated guard vs a drift-
   tracking guard, across crystal qualities.

Run:  python examples/design_space_tuning.py
"""

from repro.core.report import render_table
from repro.mac.sync import DriftTrackingLead
from repro.net.scenario import BanScenario, BanScenarioConfig

MEASURE_S = 20.0


def run(node_count=5, mac="static", sync_factory=None,
        skew_ppm=0.0) -> tuple:
    config = BanScenarioConfig(
        mac=mac, app="rpeak", num_nodes=node_count,
        cycle_ms=60.0, slot_ms=10.0, measure_s=MEASURE_S,
        sync_policy_factory=sync_factory, clock_skew_ppm=skew_ppm)
    scenario = BanScenario(config)
    result = scenario.run()
    node = result.node("node1")
    missed = sum(n.mac.counters.beacons_missed for n in scenario.nodes)
    return node, missed


def mac_comparison() -> None:
    rows = []
    for mac in ("static", "dynamic"):
        node, _ = run(mac=mac)
        rows.append((mac, node.radio_mj, node.mcu_mj,
                     node.average_power_mw))
    print(render_table(
        ["MAC", "radio (mJ)", "uC (mJ)", "avg power (mW)"],
        rows,
        title=f"MAC choice, 5-node Rpeak BAN, {MEASURE_S:.0f} s "
              "(static 60 ms cycle vs dynamic 10 ms slots)"))


def sync_study() -> None:
    rows = []
    node, missed = run()
    rows.append(("platform (fitted 3.1 ms lead)", node.radio_mj, missed))
    for ppm in (100.0, 50.0, 20.0):
        factory = (lambda p: lambda cal: DriftTrackingLead(
            tolerance_ppm=p))(ppm)
        node, missed = run(sync_factory=factory, skew_ppm=ppm * 0.8)
        rows.append((f"drift-tracking @ {ppm:.0f} ppm crystals",
                     node.radio_mj, missed))
    print(render_table(
        ["sync policy", "radio (mJ)", "beacons missed (all nodes)"],
        rows,
        title="Guard-window policy vs crystal quality "
              "(nodes skewed to 80% of tolerance)"))


def main() -> None:
    mac_comparison()
    print()
    sync_study()


if __name__ == "__main__":
    main()
