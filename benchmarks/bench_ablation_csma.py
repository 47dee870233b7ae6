"""Ablation A11: does listen-before-talk pay for itself on this radio?

A9 (`bench_ablation_aloha.py`) showed TDMA's coordination cost against
blind ALOHA.  The natural middle ground is 802.15.4-style CSMA/CA:
sense the channel for 128 us, transmit only when it reads clear.  This
ablation runs the same 5-node streaming workload under static TDMA,
ALOHA and CSMA/CA — and documents a *negative* result that supports
the paper's protocol choice:

**Carrier sensing buys almost nothing on the nRF2401.**  The radio
needs ~195 us of TX settling between the send decision and the first
bit on air, while a 26-byte ShockBurst frame occupies the channel for
only ~208 us.  Any frame a CCA can still see therefore has *less
residual airtime than our own settle delay* — by the time our carrier
comes up, the sensed frame is (almost) gone, so nearly every deferral
averts a collision that would not have happened.  Meanwhile the truly
dangerous window — a neighbour inside its own invisible settle period —
cannot be sensed at all.  The result: CSMA's loss rate tracks ALOHA's
(the sweep shows both growing with load), while each node pays extra
RX-current CCA dwells on top of ALOHA's bare TX events.

That asymmetry is exactly why the platform's BAN uses TDMA: on a
short-frame, slow-settling radio with no acknowledgements, contention
cannot be sensed away — it has to be scheduled away.
"""

from conftest import bench_measure_s, run_once
from repro.net.scenario import BanScenario, BanScenarioConfig


def run_comparison(measure_s: float):
    out = {}
    for mac in ("static", "aloha", "csma"):
        config = BanScenarioConfig(mac=mac, app="ecg_streaming",
                                   num_nodes=5, cycle_ms=30.0,
                                   sampling_hz=205.0,
                                   measure_s=measure_s, seed=3)
        scenario = BanScenario(config)
        result = scenario.run()
        counters = [node.mac.counters for node in scenario.nodes]
        out[mac] = {
            "node": result.node("node1"),
            "delivered": result.base_station.traffic.data_rx,
            "corrupted_at_bs": result.base_station.traffic.corrupted,
            "cca_busy": sum(c.cca_busy for c in counters),
            "tx_abandoned": sum(c.tx_abandoned for c in counters),
        }
    # Load sweep: both contention MACs' structural loss vs offered load.
    sweep = []
    for nodes in (2, 5, 8):
        row = {"nodes": nodes}
        for mac in ("aloha", "csma"):
            config = BanScenarioConfig(mac=mac, app="ecg_streaming",
                                       num_nodes=nodes, cycle_ms=30.0,
                                       sampling_hz=205.0,
                                       measure_s=min(measure_s, 20.0),
                                       seed=3)
            scenario = BanScenario(config)
            result = scenario.run()
            bs = result.base_station.traffic
            row[mac] = bs.corrupted / max(1, bs.corrupted + bs.data_rx)
            if mac == "csma":
                row["cca_busy"] = sum(
                    node.mac.counters.cca_busy for node in scenario.nodes)
        sweep.append(row)
    return out, sweep


def test_ablation_csma_vs_aloha_vs_tdma(benchmark):
    measure_s = bench_measure_s()
    comparison, sweep = run_once(benchmark, run_comparison, measure_s)

    tdma = comparison["static"]
    aloha = comparison["aloha"]
    csma = comparison["csma"]
    expected_frames = 5 * measure_s / 0.030

    print(f"\nA11 TDMA vs ALOHA vs CSMA/CA, 5-node streaming "
          f"({measure_s:.0f} s):")
    for mac, record in comparison.items():
        node = record["node"]
        delivery = record["delivered"] / expected_frames
        energy_per_frame = node.radio_mj * 5 / max(1, record["delivered"])
        print(f"  {mac:<7} node radio {node.radio_mj:7.1f} mJ   "
              f"delivery {100 * delivery:5.1f}%   "
              f"{1e3 * energy_per_frame:6.1f} uJ radio / delivered frame   "
              f"busy CCAs {record['cca_busy']}")
        benchmark.extra_info[f"{mac}_radio_mj"] = round(node.radio_mj, 1)
        benchmark.extra_info[f"{mac}_delivery"] = round(delivery, 4)
    print("  loss vs load: " + ", ".join(
        f"{row['nodes']} nodes: aloha {100 * row['aloha']:.1f}% / "
        f"csma {100 * row['csma']:.1f}%" for row in sweep))

    # TDMA delivers everything; both contention MACs lose frames.
    assert tdma["corrupted_at_bs"] == 0
    assert tdma["delivered"] >= 0.99 * expected_frames
    assert csma["corrupted_at_bs"] > 0

    # CSMA pays for its CCA dwells: above ALOHA's bare-TX budget, still
    # far below TDMA's beacon-listen coordination.
    assert csma["node"].radio_mj > aloha["node"].radio_mj
    assert csma["node"].radio_mj < 0.25 * tdma["node"].radio_mj

    # The negative result: sensing does not separate CSMA's loss from
    # ALOHA's on this radio (settle time ~ frame airtime), at any load.
    csma_loss = csma["corrupted_at_bs"] / max(
        1, csma["corrupted_at_bs"] + csma["delivered"])
    aloha_loss = aloha["corrupted_at_bs"] / max(
        1, aloha["corrupted_at_bs"] + aloha["delivered"])
    assert abs(csma_loss - aloha_loss) < 0.05
    for row in sweep:
        assert abs(row["csma"] - row["aloha"]) < 0.05

    # The CCAs do fire — the channel is genuinely sensed, increasingly
    # so as load grows; the busy readings just cannot avert much.
    assert csma["cca_busy"] > 0
    assert sweep[-1]["cca_busy"] > sweep[0]["cca_busy"]
    # Structural loss still grows with offered load under CSMA.
    assert sweep[0]["csma"] < sweep[-1]["csma"]
