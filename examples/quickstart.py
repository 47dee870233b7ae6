#!/usr/bin/env python3
"""Quickstart: simulate the paper's 5-node BAN and read the energy model.

Builds the exact scenario behind Table 1's first row — five sensor
nodes streaming 2-channel ECG over static TDMA (30 ms cycle, 205 Hz per
channel, 18-byte packets) — runs 60 simulated seconds, and prints:

* the ECG node's radio and microcontroller energy (the paper's
  headline numbers: 502.9 mJ and 161.2 mJ),
* the Section 4.2 loss taxonomy (where every radio joule went),
* the whole network's energy.

Run:  python examples/quickstart.py
"""

from repro import run_scenario
from repro.core.report import render_loss_breakdown, render_table


def main() -> None:
    print("Simulating 60 s of a 5-node BAN "
          "(ECG streaming, static TDMA, 30 ms cycle)...")
    result = run_scenario(
        mac="static",
        app="ecg_streaming",
        num_nodes=5,
        cycle_ms=30.0,
        sampling_hz=205.0,  # per channel; Table 1, first row
        measure_s=60.0,
    )

    node = result.node("node1")  # the ECG node the paper reports
    print()
    print(render_table(
        ["component", "energy (mJ)", "paper sim (mJ)", "paper real (mJ)"],
        [
            ("radio (nRF2401)", node.radio_mj, 502.9, 540.6),
            ("MCU (MSP430)", node.mcu_mj, 161.2, 170.2),
        ],
        title="ECG node energy over 60 s"))

    print()
    print(render_loss_breakdown(node))

    print()
    print(f"Whole network (5 nodes, radio+MCU): "
          f"{result.network_total_mj:.1f} mJ; base station radio: "
          f"{result.base_station.radio_mj:.1f} mJ "
          f"(receiver on almost continuously)")


if __name__ == "__main__":
    main()
