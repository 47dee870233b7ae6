"""Sensor-node assembly: the full hardware + OS + stack of Figure 1.

:class:`SensorNode` wires one node's hardware models (MCU, radio, ASIC,
ADC) to its TinyOS scheduler, and hosts the MAC and application
components installed on top.  It also owns result collection: at the
end of a run it freezes the ledgers, attributions and counters into a
:class:`~repro.core.report.NodeEnergyResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..apps.base import SamplingApplication
from ..core.calibration import ModelCalibration
from ..core.report import NodeEnergyResult
from ..hw.adc import Adc12
from ..hw.asic import BiopotentialAsic
from ..hw.mcu import Msp430
from ..hw.radio import Nrf2401
from ..phy.channel import Channel
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from ..tinyos.components import Component, ComponentStack
from ..tinyos.scheduler import TaskScheduler

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer


class SensorNode:
    """One wireless sensor node (hardware + OS + software stack)."""

    def __init__(self, sim: Simulator, channel: Channel,
                 calibration: ModelCalibration, node_id: str,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.calibration = calibration
        self.trace = trace
        self.mcu = Msp430(sim, calibration, name=f"{node_id}.mcu",
                          trace=trace)
        self.scheduler = TaskScheduler(sim, self.mcu,
                                       name=f"{node_id}.sched", trace=trace)
        self.radio = Nrf2401(sim, calibration, channel, node_id,
                             name=f"{node_id}.radio", trace=trace)
        self.asic = BiopotentialAsic(sim, calibration,
                                     name=f"{node_id}.asic")
        self.adc = Adc12()
        self.stack = ComponentStack()
        self.mac: Optional[Component] = None
        self.app: Optional[Component] = None

    # ------------------------------------------------------------------
    # Stack composition
    # ------------------------------------------------------------------
    def install_mac(self, mac: Component) -> Component:
        """Install the MAC layer (must precede the application)."""
        if self.mac is not None:
            raise RuntimeError(f"{self.node_id}: MAC already installed")
        self.mac = self.stack.add(mac)
        return mac

    def install_app(self, app: Component) -> Component:
        """Install the application layer on top of the MAC."""
        if self.mac is None:
            raise RuntimeError(
                f"{self.node_id}: install the MAC before the application")
        if self.app is not None:
            raise RuntimeError(f"{self.node_id}: app already installed")
        self.app = self.stack.add(app)
        return app

    def start(self) -> None:
        """Start every installed component, bottom-up."""
        self.stack.start_all()

    def attach_spans(self, tracer: "SpanTracer") -> None:
        """Point every layer's span hook at ``tracer``.

        Binds this node's ledger power coefficients (the exact I*Vdd
        floats the energy queries use) and sets the ``spans`` attribute
        on the scheduler, radio, MAC and application.
        """
        from ..hw.mcu import ACTIVE
        from ..hw.radio import RX, TX
        tracer.bind_node(self.node_id,
                         mcu_active_w=self.mcu.ledger.iv_coeff(ACTIVE),
                         radio_tx_w=self.radio.ledger.iv_coeff(TX),
                         radio_rx_w=self.radio.ledger.iv_coeff(RX),
                         mcu_clock_hz=self.calibration.mcu_clock_hz)
        self.scheduler.spans = tracer
        self.radio.spans = tracer
        if self.mac is not None:
            setattr(self.mac, "spans", tracer)
        if self.app is not None:
            setattr(self.app, "spans", tracer)
            setattr(self.app, "spans_node", self.node_id)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Zero all energy ledgers and counters (start of the window)."""
        # A coalesced sample acquired before now belongs to the warm-up,
        # and so do its channel reads.
        self.scheduler.settle()
        if isinstance(self.app, SamplingApplication):
            self.app.flush_samples()
        self.mcu.reset_measurement()
        self.radio.reset_measurement()
        self.asic.reset_measurement()

    def collect_result(self, horizon_s: float) -> NodeEnergyResult:
        """Freeze this node's energy figures over ``horizon_s`` seconds.

        Call after the simulator's run ended (ledgers are closed by the
        kernel's end hooks).
        """
        self.radio.finalize_attribution()
        radio_by_state = {state: 1e3 * joules for state, joules
                          in self.radio.ledger.energy_by_state().items()}
        mcu_by_state = {state: 1e3 * joules for state, joules
                        in self.mcu.ledger.energy_by_state().items()}
        return NodeEnergyResult(
            node_id=self.node_id,
            horizon_s=horizon_s,
            radio_mj=self.radio.energy_mj(),
            mcu_mj=self.mcu.energy_mj(),
            asic_mj=self.asic.energy_mj(),
            radio_by_state_mj=radio_by_state,
            mcu_by_state_mj=mcu_by_state,
            losses=self.radio.accountant.snapshot(),
            traffic=self.radio.snapshot_counters(),
        )


__all__ = ["SensorNode"]
