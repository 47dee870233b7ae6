#!/usr/bin/env python3
"""The paper's "typical configuration" as a full system study.

Section 3 sketches the intended deployment: "a biopotential node on
each limb to monitor muscle activity, one on the chest to monitor
cardiac activity, and one on the head for brain activity."  This
example builds exactly that — six heterogeneous nodes on the Section-3
body topology — and walks the whole toolchain:

1. heterogeneous scenario (Rpeak chest node, 8-channel decimated EEG
   head node, streaming limb nodes);
2. per-node energy + loss taxonomy, exported as CSV;
3. power-state waveforms dumped as a VCD file.

Run:  python examples/heterogeneous_ban.py
"""

import os
import tempfile

from repro.analysis.export import network_records, to_csv
from repro.analysis.waveforms import WaveformProbe
from repro.core.report import render_table
from repro.net.scenario import BanScenario, BanScenarioConfig, NodeSpec
from repro.phy.topology import BodyTopology

MEASURE_S = 20.0

SPECS = [
    NodeSpec(app="rpeak", label="chest"),
    NodeSpec(app="eeg_streaming", channels=tuple(range(8)),
             transmit_channels=(0, 1, 2, 3), decimation=8, label="head"),
    NodeSpec(app="ecg_streaming", label="left_arm"),
    NodeSpec(app="ecg_streaming", label="right_arm"),
    NodeSpec(app="ecg_streaming", label="left_leg"),
    NodeSpec(app="ecg_streaming", label="right_leg"),
]


def main() -> None:
    config = BanScenarioConfig(
        mac="static",
        cycle_ms=70.0,            # 6 nodes + beacon slot => 10 ms slots
        node_specs=SPECS,
        measure_s=MEASURE_S,
        topology=BodyTopology.body_preset(range_m=2.0),
    )
    # BodyTopology uses position names; our node ids are node1..node6
    # plus base_station, so build an id->position preset instead.
    from repro.phy.topology import BODY_PRESET, Position
    positions = {"base_station": BODY_PRESET["base_station"]}
    for index, spec in enumerate(SPECS, start=1):
        positions[f"node{index}"] = BODY_PRESET[spec.label]
    config.topology = BodyTopology(positions, range_m=2.0)

    scenario = BanScenario(config)
    probe = WaveformProbe.attach_to_scenario(scenario)
    result = scenario.run()

    rows = []
    for index, spec in enumerate(SPECS, start=1):
        node = result.node(f"node{index}")
        rows.append((f"node{index}", spec.label, spec.app,
                     node.radio_mj, node.mcu_mj,
                     node.total_with_asic_mj / MEASURE_S))
    print(render_table(
        ["node", "position", "application", "radio (mJ)", "uC (mJ)",
         "avg power (mW)"],
        rows,
        title=f"Heterogeneous BAN over {MEASURE_S:.0f} s "
              "(static TDMA, 70 ms cycle)"))

    # --- Exports ------------------------------------------------------
    out_dir = tempfile.mkdtemp(prefix="repro_ban_")
    csv_path = os.path.join(out_dir, "nodes.csv")
    with open(csv_path, "w") as handle:
        handle.write(to_csv(network_records(result)))
    vcd_path = os.path.join(out_dir, "ban.vcd")
    probe.write_vcd(vcd_path)
    print(f"\nExports: {csv_path}")
    print(f"         {vcd_path} "
          f"({len(probe.signals)} power-state signals; open in GTKWave)")


if __name__ == "__main__":
    main()
