"""repro — OS-based sensor node platform and energy estimation model
for health-care wireless sensor networks.

A from-scratch Python reproduction of Rincón et al., *"OS-Based Sensor
Node Platform and Energy Estimation Model for Health-Care Wireless
Sensor Networks"* (DATE 2008): a TOSSIM-style event-driven simulator of
a TinyOS body-area-network platform (MSP430F149 + nRF2401 + 25-channel
biopotential ASIC) with a validated time-in-state energy model.

Quick start::

    from repro import run_scenario

    result = run_scenario(mac="static", app="ecg_streaming",
                          num_nodes=5, cycle_ms=30.0, measure_s=60.0)
    node = result.node("node1")
    print(f"radio {node.radio_mj:.1f} mJ, MCU {node.mcu_mj:.1f} mJ")

Package map:

* :mod:`repro.sim` — discrete-event kernel (the TOSSIM substrate),
* :mod:`repro.core` — the energy model: ledgers, calibration, losses,
* :mod:`repro.tinyos` — TinyOS scheduler/timers/components,
* :mod:`repro.hw` — MSP430, nRF2401, biopotential ASIC,
* :mod:`repro.phy` — channel, topologies, loss models,
* :mod:`repro.mac` — static & dynamic TDMA, sync policies,
* :mod:`repro.apps` — ECG streaming and Rpeak applications,
* :mod:`repro.signals` — synthetic ECG,
* :mod:`repro.net` — node/base-station assembly, scenario runner,
* :mod:`repro.data` — the paper's published tables,
* :mod:`repro.analysis` — experiment reproduction, validation, sweeps.
"""

from .core.calibration import DEFAULT_CALIBRATION, ModelCalibration
from .core.losses import RadioEnergyCategory
from .core.report import NetworkEnergyResult, NodeEnergyResult, render_table
from .net.scenario import BanScenario, BanScenarioConfig, run_scenario

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CALIBRATION",
    "ModelCalibration",
    "RadioEnergyCategory",
    "NetworkEnergyResult",
    "NodeEnergyResult",
    "render_table",
    "BanScenario",
    "BanScenarioConfig",
    "run_scenario",
    "__version__",
]
