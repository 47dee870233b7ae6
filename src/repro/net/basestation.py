"""Base-station assembly.

The base station of the paper's BAN is the collecting device's radio
head: same MCU + radio hardware as a node (no sensing ASIC), running
the base-station side of the TDMA MAC.  It regulates the protocol
(beacons, slot grants) and delivers received application data to an
in-memory sink the experiments inspect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.calibration import ModelCalibration
from ..core.report import NodeEnergyResult
from ..hw.frames import Frame
from ..hw.mcu import Msp430
from ..hw.radio import Nrf2401
from ..phy.channel import Channel
from ..sim.kernel import Simulator
from ..sim.simtime import to_seconds
from ..sim.trace import TraceRecorder
from ..tinyos.components import Component, ComponentStack
from ..tinyos.scheduler import TaskScheduler

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer


class BaseStation:
    """The BAN's collecting device (PC/PDA radio head)."""

    def __init__(self, sim: Simulator, channel: Channel,
                 calibration: ModelCalibration,
                 address: str = "base_station",
                 trace: Optional[TraceRecorder] = None) -> None:
        self.sim = sim
        self.address = address
        self.calibration = calibration
        self.mcu = Msp430(sim, calibration, name=f"{address}.mcu",
                          trace=trace)
        self.scheduler = TaskScheduler(sim, self.mcu,
                                       name=f"{address}.sched", trace=trace)
        self.radio = Nrf2401(sim, calibration, channel, address,
                             name=f"{address}.radio", trace=trace)
        self.stack = ComponentStack()
        self.mac: Optional[Component] = None
        #: Received data frames, by source node id.
        self.received: Dict[str, List[Frame]] = {}
        #: (arrival time [s], frame) pairs, in delivery order.
        self.deliveries: List[tuple] = []

    def install_mac(self, mac: Component) -> Component:
        """Install the base-station MAC and hook its data sink."""
        if self.mac is not None:
            raise RuntimeError(f"{self.address}: MAC already installed")
        self.mac = self.stack.add(mac)
        mac.data_sink = self._deliver
        return mac

    def start(self) -> None:
        """Start the base-station stack."""
        self.stack.start_all()

    def attach_spans(self, tracer: "SpanTracer") -> None:
        """Point the base station's span hooks at ``tracer``.

        Same contract as :meth:`SensorNode.attach_spans`: ledger
        coefficients bound, ``spans`` set on scheduler, radio and MAC.
        """
        from ..hw.mcu import ACTIVE
        from ..hw.radio import RX, TX
        tracer.bind_node(self.address,
                         mcu_active_w=self.mcu.ledger.iv_coeff(ACTIVE),
                         radio_tx_w=self.radio.ledger.iv_coeff(TX),
                         radio_rx_w=self.radio.ledger.iv_coeff(RX),
                         mcu_clock_hz=self.calibration.mcu_clock_hz)
        self.scheduler.spans = tracer
        self.radio.spans = tracer
        # Only MACs that declare the hook slot consume spans; the ALOHA
        # family's collector has no span sites, and bolting the
        # attribute on anyway would widen the attach surface past what
        # the static OBS audit covers (determinism check 5).
        if self.mac is not None and hasattr(self.mac, "spans"):
            self.mac.spans = tracer

    def _deliver(self, frame: Frame) -> None:
        self.received.setdefault(frame.src, []).append(frame)
        self.deliveries.append((to_seconds(self.sim.now), frame))

    @property
    def frames_received(self) -> int:
        """Total data frames delivered upward."""
        return len(self.deliveries)

    def frames_from(self, node_id: str) -> List[Frame]:
        """Data frames received from one node."""
        return list(self.received.get(node_id, []))

    # ------------------------------------------------------------------
    # Measurement (the paper does not validate BS energy, but the model
    # reports it: the BS receiver is on almost continuously)
    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Zero energy ledgers and the data log."""
        self.mcu.reset_measurement()
        self.radio.reset_measurement()
        self.received = {}
        self.deliveries = []

    def collect_result(self, horizon_s: float) -> NodeEnergyResult:
        """Freeze the base station's energy figures."""
        self.radio.finalize_attribution()
        radio_by_state = {state: 1e3 * joules for state, joules
                          in self.radio.ledger.energy_by_state().items()}
        mcu_by_state = {state: 1e3 * joules for state, joules
                        in self.mcu.ledger.energy_by_state().items()}
        return NodeEnergyResult(
            node_id=self.address,
            horizon_s=horizon_s,
            radio_mj=self.radio.energy_mj(),
            mcu_mj=self.mcu.energy_mj(),
            asic_mj=0.0,
            radio_by_state_mj=radio_by_state,
            mcu_by_state_mj=mcu_by_state,
            losses=self.radio.accountant.snapshot(),
            traffic=self.radio.snapshot_counters(),
        )


__all__ = ["BaseStation"]
