"""BAN scenario builder and runner.

:class:`BanScenario` assembles a complete body-area network — base
station, N sensor nodes, channel, applications — from a declarative
:class:`BanScenarioConfig`, runs warm-up plus a steady-state measurement
window, and returns a :class:`~repro.core.report.NetworkEnergyResult`.

Measurement methodology (matching the paper's Section 5 setup):

* With ``join_protocol=False`` (default) nodes start with preassigned
  slots, as the paper's steady-state 60 s measurements do; warm-up is
  ``warmup_cycles`` TDMA cycles.
* With ``join_protocol=True`` nodes acquire, request slots, and get
  granted over the air; warm-up runs until every node is synced plus
  ``warmup_cycles`` cycles.
* The measurement window starts mid-sleep (one guard lead + 1 ms before
  a beacon) so no beacon-listen window is split, and lasts exactly
  ``measure_s`` seconds of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..apps.adaptive import AdaptiveCardiacApp
from ..apps.ecg_streaming import EcgStreamingApp, codes_per_payload
from ..apps.eeg_streaming import DEFAULT_EEG_SAMPLING_HZ, EegStreamingApp
from ..apps.rpeak import RPEAK_SAMPLING_HZ, RpeakApp
from ..core.calibration import DEFAULT_CALIBRATION, ModelCalibration
from ..core.report import NetworkEnergyResult
from ..faults import FaultInjector, FaultPlan
from ..mac.aloha import AlohaBaseMac, AlohaConfig, AlohaNodeMac
from ..mac.csma import CsmaConfig, CsmaNodeMac
from ..mac.recovery import RecoveryConfig
from ..mac.sync import SyncPolicy
from ..mac.tdma_dynamic import DynamicTdmaBaseMac, DynamicTdmaConfig, \
    DynamicTdmaNodeMac
from ..mac.tdma_static import StaticTdmaBaseMac, StaticTdmaConfig, \
    StaticTdmaNodeMac
from ..phy.channel import Channel
from ..phy.lossmodels import LossModel
from ..phy.topology import Topology
from ..signals.ecg import SyntheticEcg
from ..signals.eeg import SyntheticEeg
from ..signals.sources import HashNoiseSource, MixSource, ScaledSource
from ..sim.kernel import Simulator
from ..sim.simtime import milliseconds, seconds
from ..sim.trace import TraceRecorder
from .basestation import BaseStation
from .node import SensorNode

if TYPE_CHECKING:
    from ..apps.base import SamplingApplication
    from ..obs.spans import SpanTracer

#: Supported MAC identifiers.
MACS = ("static", "dynamic", "aloha", "csma")

#: Supported application identifiers.
APPS = ("ecg_streaming", "rpeak", "eeg_streaming", "adaptive")


@dataclass(frozen=True)
class NodeSpec:
    """Per-node configuration for heterogeneous BANs.

    A list of these in :attr:`BanScenarioConfig.node_specs` overrides
    the homogeneous ``app``/``sampling_hz`` settings, enabling the
    paper's "typical configuration" — limb/chest/head nodes running
    different applications in one network (Section 3).

    Attributes:
        app: one of :data:`APPS`.
        sampling_hz: per-channel rate (None = the app's derived default).
        channels: acquired ASIC channels.
        transmit_channels: EEG only — subset actually streamed.
        decimation: EEG only — block-average factor.
        payload_bytes: streaming payload size per cycle.
        label: optional human-readable role ("chest", "head", ...).
    """

    app: str = "ecg_streaming"
    sampling_hz: Optional[float] = None
    channels: Sequence[int] = (0, 1)
    transmit_channels: Optional[Sequence[int]] = None
    decimation: int = 4
    payload_bytes: int = 18
    label: str = ""

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ValueError(
                f"app must be one of {APPS}, got {self.app!r}")
        if not self.channels:
            raise ValueError("a node needs at least one channel")


@dataclass
class BanScenarioConfig:
    """Declarative description of a BAN experiment.

    Attributes mirror the knobs the paper's evaluation turns: MAC
    variant, application, node count, cycle/slot length and sampling
    frequency; plus modelling switches (join protocol, sync policy,
    topology, loss model, crystal skew) for the extended studies.
    """

    mac: str = "static"
    app: str = "ecg_streaming"
    num_nodes: int = 5
    #: Static TDMA cycle length [ms].
    cycle_ms: float = 30.0
    #: Static TDMA slot capacity (default: num_nodes).
    num_slots: Optional[int] = None
    #: Dynamic TDMA slot length [ms].
    slot_ms: float = 10.0
    #: Per-channel sampling frequency [Hz]; None derives it (streaming:
    #: fill the payload once per cycle; rpeak: the fixed 200 Hz).
    sampling_hz: Optional[float] = None
    #: Fixed streaming payload per cycle [bytes].
    payload_bytes: int = 18
    heart_rate_bpm: float = 75.0
    #: Peak-to-peak ECG measurement noise [mV] at the ASIC input.
    ecg_noise_mv: float = 0.0
    measure_s: float = 60.0
    warmup_cycles: int = 3
    join_protocol: bool = False
    seed: int = 0
    #: Crystal tolerance magnitude [ppm]; each node draws its skew
    #: uniformly in [-ppm, +ppm] (0 = ideal clocks).
    clock_skew_ppm: float = 0.0
    calibration: ModelCalibration = field(
        default_factory=lambda: DEFAULT_CALIBRATION)
    #: Optional override of the per-MAC default sync policy.
    sync_policy_factory: Optional[
        Callable[[ModelCalibration], SyncPolicy]] = None
    topology: Optional[Topology] = None
    loss_model: Optional[LossModel] = None
    #: Keep a trace of the last N records (None = no tracing).
    trace_capacity: Optional[int] = None
    #: Maximum simulated seconds to wait for all joins.
    join_deadline_s: float = 60.0
    #: Heterogeneous BAN: one spec per node, overriding ``app``/
    #: ``sampling_hz``/``payload_bytes`` (num_nodes must match).
    node_specs: Optional[Sequence[NodeSpec]] = None
    #: Absolute time of the first beacon [ms]; None = the MAC default.
    #: Multi-BAN studies stagger this to de-phase the networks.
    first_beacon_ms: Optional[float] = None
    #: Extension: idle gaps at least this long are spent in the deep
    #: (LPM3-class) MCU mode instead of LPM0.  None (default) keeps the
    #: paper's validated LPM0-only behaviour.
    deep_sleep_threshold_ms: Optional[float] = None
    #: Deterministic fault schedule (:mod:`repro.faults`); None keeps
    #: the scenario byte-identical to a build predating fault support.
    faults: Optional[FaultPlan] = None
    #: MAC degradation behaviour under faults (widened beacon windows,
    #: duty-cycled reacquisition scans, SSR backoff).  None (default)
    #: keeps the paper's plain missed-beacon machinery.
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        if self.mac not in MACS:
            raise ValueError(f"mac must be one of {MACS}, got {self.mac!r}")
        if self.app not in APPS:
            raise ValueError(f"app must be one of {APPS}, got {self.app!r}")
        if self.node_specs is not None:
            if not self.node_specs:
                raise ValueError("node_specs must not be empty")
            # Heterogeneous mode: the node count follows the specs.
            self.num_nodes = len(self.node_specs)
        if self.num_nodes < 1:
            raise ValueError(f"need >= 1 node: {self.num_nodes}")
        if self.measure_s <= 0:
            raise ValueError(f"measure_s must be positive: {self.measure_s}")
        if self.mac == "aloha" and self.join_protocol:
            raise ValueError(
                "ALOHA has no join protocol (nodes never synchronise); "
                "drop join_protocol")
        if self.mac == "csma" and self.join_protocol:
            raise ValueError(
                "CSMA/CA has no join protocol (nodes contend, never "
                "synchronise); drop join_protocol")

    # ------------------------------------------------------------------
    @property
    def cycle_ticks(self) -> int:
        """Steady-state TDMA cycle length in ticks."""
        if self.mac in ("static", "aloha", "csma"):
            return milliseconds(self.cycle_ms)
        return milliseconds(self.slot_ms) * (self.num_nodes + 1)

    @property
    def effective_num_slots(self) -> int:
        """Static slot capacity (defaults to the node count)."""
        return self.num_slots if self.num_slots is not None \
            else self.num_nodes

    def derived_sampling_hz(self) -> float:
        """The per-channel sampling frequency actually used."""
        if self.sampling_hz is not None:
            return self.sampling_hz
        if self.app in ("rpeak", "adaptive"):
            return RPEAK_SAMPLING_HZ
        if self.app == "eeg_streaming":
            return DEFAULT_EEG_SAMPLING_HZ
        # Streaming: exactly one full payload of codes per TDMA cycle
        # ("the sampling frequency is set accordingly to the TDMA cycle,
        #  so that a packet of 18 bytes is sent every cycle").
        cycle_s = self.cycle_ticks / seconds(1.0)
        codes_per_cycle = codes_per_payload(self.payload_bytes)
        return codes_per_cycle / 2.0 / cycle_s  # two channels


class BanScenario:
    """A built, runnable BAN.

    Args:
        config: the scenario description.
        sim: optional shared simulator — multi-BAN studies place several
            scenarios on one kernel/channel (see
            :class:`~repro.net.multi.MultiBanScenario`).  Must be given
            together with ``channel``.
        channel: optional shared medium.
        prefix: node-id prefix (e.g. ``"ban1."``) so several BANs can
            coexist with unique addresses.
        trace: optional recorder to install instead of the config-built
            one (e.g. a sink-fanning
            :class:`~repro.obs.sinks.SinkTraceRecorder`); ignored when
            ``sim`` is given (the shared kernel's recorder wins).
    """

    def __init__(self, config: BanScenarioConfig,
                 sim: Optional[Simulator] = None,
                 channel: Optional[Channel] = None,
                 prefix: str = "",
                 trace: Optional[TraceRecorder] = None) -> None:
        if (sim is None) != (channel is None):
            raise ValueError("pass sim and channel together, or neither")
        self.config = config
        self.prefix = prefix
        if sim is None:
            if trace is None:
                trace = (TraceRecorder(capacity=config.trace_capacity)
                         if config.trace_capacity else None)
            self.trace = trace
            self.sim = Simulator(seed=config.seed, trace=self.trace)
            self.channel = Channel(self.sim, topology=config.topology,
                                   loss_model=config.loss_model,
                                   trace=self.trace)
        else:
            self.sim = sim
            self.channel = channel
            self.trace = sim.trace
        self.base_station = BaseStation(
            self.sim, self.channel, config.calibration,
            address=f"{prefix}base_station", trace=self.trace)
        self.nodes: List[SensorNode] = []
        self.ecg_sources: Dict[str, SyntheticEcg] = {}
        #: Armed fault injector (None when the config has no faults).
        self.fault_injector: Optional[FaultInjector] = None
        #: Causal-span tracer, installed by
        #: :func:`repro.obs.spans.attach_span_tracer`; reset_all drops
        #: its warm-up spans alongside the ledgers.
        self.span_tracer: Optional["SpanTracer"] = None
        self._build()
        if config.faults:
            self.fault_injector = FaultInjector(self, config.faults)
            self.fault_injector.arm()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        cal = config.calibration
        first_beacon = (milliseconds(config.first_beacon_ms)
                        if config.first_beacon_ms is not None
                        else milliseconds(10.0))
        if config.mac in ("aloha", "csma"):
            poll = milliseconds(config.cycle_ms)
            mac_config = (AlohaConfig(poll_interval_ticks=poll)
                          if config.mac == "aloha"
                          else CsmaConfig(poll_interval_ticks=poll))
            bs_mac = AlohaBaseMac(
                self.sim, self.base_station.radio,
                self.base_station.scheduler, cal, mac_config,
                trace=self.trace)
        elif config.mac == "static":
            mac_config = StaticTdmaConfig(
                cycle_ticks=milliseconds(config.cycle_ms),
                num_slots=config.effective_num_slots,
                first_beacon_ticks=first_beacon,
                base_station=self.base_station.address)
            bs_mac = StaticTdmaBaseMac(
                self.sim, self.base_station.radio,
                self.base_station.scheduler, cal, mac_config,
                trace=self.trace)
        else:
            mac_config = DynamicTdmaConfig(
                slot_ticks=milliseconds(config.slot_ms),
                first_beacon_ticks=first_beacon,
                base_station=self.base_station.address,
                initial_assigned=(0 if config.join_protocol
                                  else config.num_nodes))
            bs_mac = DynamicTdmaBaseMac(
                self.sim, self.base_station.radio,
                self.base_station.scheduler, cal, mac_config,
                trace=self.trace)
        self.base_station.install_mac(bs_mac)

        sampling_hz = config.derived_sampling_hz()
        for index in range(1, config.num_nodes + 1):
            node_id = f"{self.prefix}node{index}"
            node = SensorNode(self.sim, self.channel, cal, node_id,
                              trace=self.trace)
            skew = self._skew_for(node_id)
            preassigned = None if config.join_protocol else index
            if config.mac in ("aloha", "csma"):
                node_type = AlohaNodeMac if config.mac == "aloha" \
                    else CsmaNodeMac
                mac = node_type(
                    self.sim, node.radio, node.scheduler, cal,
                    mac_config, recovery=config.recovery,
                    trace=self.trace)
            elif config.mac == "static":
                mac = StaticTdmaNodeMac(
                    self.sim, node.radio, node.scheduler, cal, mac_config,
                    sync_policy=self._sync_policy(),
                    preassigned_slot=preassigned,
                    clock_skew_ppm=skew,
                    recovery=config.recovery, trace=self.trace)
                if preassigned is not None:
                    bs_mac.schedule.assign(preassigned, node_id)
            else:
                mac = DynamicTdmaNodeMac(
                    self.sim, node.radio, node.scheduler, cal, mac_config,
                    sync_policy=self._sync_policy(),
                    preassigned_slot=preassigned,
                    clock_skew_ppm=skew,
                    recovery=config.recovery, trace=self.trace)
                if preassigned is not None:
                    bs_mac.schedule.assign(preassigned, node_id)
            node.install_mac(mac)
            spec = (config.node_specs[index - 1]
                    if config.node_specs is not None else None)
            self._attach_signals(node, index, spec)
            app = self._build_app(node, mac, sampling_hz, spec)
            node.install_app(app)
            if config.deep_sleep_threshold_ms is not None:
                self._install_deep_sleep(node, mac, app)
            self.nodes.append(node)

    def _install_deep_sleep(self, node: SensorNode, mac: Any,
                            app: "SamplingApplication") -> None:
        from ..tinyos.power import ThresholdDeepSleep

        def provider() -> Optional[int]:
            hints = [app.next_wake_hint()]
            mac_hint = getattr(mac, "next_wake_hint", None)
            if mac_hint is not None:
                hints.append(mac_hint())
            known = [h for h in hints if h is not None]
            return min(known) if known else None

        node.scheduler.power_policy = ThresholdDeepSleep(
            milliseconds(self.config.deep_sleep_threshold_ms))
        node.scheduler.wake_hint_provider = provider

    def _sync_policy(self) -> Optional[SyncPolicy]:
        factory = self.config.sync_policy_factory
        if factory is None:
            return None  # the MAC variant's calibrated default
        return factory(self.config.calibration)

    def _skew_for(self, node_id: str) -> float:
        magnitude = self.config.clock_skew_ppm
        if magnitude == 0.0:
            return 0.0
        stream = self.sim.rng.stream(f"{node_id}.skew")
        return stream.uniform(-magnitude, magnitude)

    def _attach_signals(self, node: SensorNode, index: int,
                        spec: Optional[NodeSpec]) -> None:
        config = self.config
        app = spec.app if spec is not None else config.app
        channels = tuple(spec.channels) if spec is not None else (0, 1)
        if app == "eeg_streaming":
            # One independent EEG waveform per channel, scaled from
            # microvolts into the ADC range by the ASIC gain stage.
            for channel in channels:
                eeg = SyntheticEeg(
                    seed=config.seed * 10_000 + 100 * index + channel)
                node.asic.connect_source(
                    channel, ScaledSource(eeg, gain=0.02, offset=1.25))
            return
        # ECG-based applications: stagger beat phases across nodes so
        # transmissions de-correlate.
        ecg = SyntheticEcg(heart_rate_bpm=config.heart_rate_bpm,
                           first_beat_s=0.35 + 0.11 * index)
        self.ecg_sources[node.node_id] = ecg
        sources = [ecg]
        if config.ecg_noise_mv > 0.0:
            sources.append(HashNoiseSource(config.ecg_noise_mv,
                                           seed=config.seed * 1000 + index))
        mixed = MixSource(sources) if len(sources) > 1 else ecg
        # ASIC gain stage: lead I full gain, lead II reduced, both
        # centred in the ADC's 0..2.5 V range.
        gains = (0.8, 0.5)
        for position, channel in enumerate(channels):
            gain = gains[position % len(gains)]
            node.asic.connect_source(
                channel, ScaledSource(mixed, gain=gain, offset=1.25))

    def _spec_sampling_hz(self, spec: NodeSpec) -> float:
        """Per-channel rate for one heterogeneous node."""
        if spec.sampling_hz is not None:
            return spec.sampling_hz
        if spec.app in ("rpeak", "adaptive"):
            return RPEAK_SAMPLING_HZ
        if spec.app == "eeg_streaming":
            return DEFAULT_EEG_SAMPLING_HZ
        cycle_s = self.config.cycle_ticks / seconds(1.0)
        codes = codes_per_payload(spec.payload_bytes)
        return codes / len(spec.channels) / cycle_s

    def _build_app(self, node: SensorNode, mac: Any, sampling_hz: float,
                   spec: Optional[NodeSpec]) -> "SamplingApplication":
        config = self.config
        cal = config.calibration
        app = spec.app if spec is not None else config.app
        channels = tuple(spec.channels) if spec is not None else (0, 1)
        rate = self._spec_sampling_hz(spec) if spec is not None \
            else sampling_hz
        payload = spec.payload_bytes if spec is not None \
            else config.payload_bytes
        if app == "ecg_streaming":
            return EcgStreamingApp(
                self.sim, node.scheduler, node.asic, node.adc, mac, cal,
                channels=channels, sampling_hz=rate,
                payload_bytes=payload,
                name=f"{node.node_id}.app", trace=self.trace)
        if app == "eeg_streaming":
            return EegStreamingApp(
                self.sim, node.scheduler, node.asic, node.adc, mac, cal,
                channels=channels, sampling_hz=rate,
                transmit_channels=(spec.transmit_channels
                                   if spec is not None else None),
                decimation=spec.decimation if spec is not None else 4,
                payload_bytes=payload,
                name=f"{node.node_id}.app", trace=self.trace)
        if app == "adaptive":
            return AdaptiveCardiacApp(
                self.sim, node.scheduler, node.asic, node.adc, mac, cal,
                channels=channels, sampling_hz=rate,
                payload_bytes=payload,
                name=f"{node.node_id}.app", trace=self.trace)
        return RpeakApp(
            self.sim, node.scheduler, node.asic, node.adc, mac, cal,
            channels=channels, sampling_hz=rate,
            name=f"{node.node_id}.app", trace=self.trace)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start the base station and every node (idempotence guarded
        by the component model)."""
        self.base_station.start()
        for node in self.nodes:
            node.start()

    def reset_all(self) -> None:
        """Zero every energy ledger/counter (measurement-window start)."""
        self.base_station.reset_measurement()
        for node in self.nodes:
            node.reset_measurement()
        if self.span_tracer is not None:
            self.span_tracer.reset()

    def collect(self, horizon_s: Optional[float] = None
                ) -> NetworkEnergyResult:
        """Freeze results over ``horizon_s`` (default: configured)."""
        horizon = horizon_s if horizon_s is not None \
            else self.config.measure_s
        results = {node.node_id: node.collect_result(horizon)
                   for node in self.nodes}
        bs_result = self.base_station.collect_result(horizon)
        return NetworkEnergyResult(horizon_s=horizon,
                                   nodes=results,
                                   base_station=bs_result)

    def run(self) -> NetworkEnergyResult:
        """Warm up, measure for ``measure_s``, and collect the results."""
        config = self.config
        self.start_all()
        if config.join_protocol:
            self._wait_for_joins()
        measure_start = self._measurement_start()
        self.sim.run_until(measure_start)
        self.reset_all()
        self.sim.run_until(measure_start + seconds(config.measure_s))
        return self.collect()

    def _wait_for_joins(self) -> None:
        config = self.config
        deadline = self.sim.now + seconds(config.join_deadline_s)
        step = milliseconds(100)
        while self.sim.now < deadline:
            if all(node.mac.is_synced for node in self.nodes):
                return
            self.sim.run_until(min(self.sim.now + step, deadline))
        if not all(node.mac.is_synced for node in self.nodes):
            unsynced = [node.node_id for node in self.nodes
                        if not node.mac.is_synced]
            raise RuntimeError(
                f"nodes failed to join within {config.join_deadline_s} s: "
                f"{unsynced}")

    def _measurement_start(self) -> int:
        """A mid-sleep instant ``warmup_cycles`` cycles into steady state."""
        config = self.config
        bs_mac = self.base_station.mac
        cycle = bs_mac.current_cycle_ticks()
        next_beacon = bs_mac.next_beacon_ticks
        target_beacon = next_beacon + config.warmup_cycles * cycle
        guard = self._max_lead(cycle) + milliseconds(1)
        start = target_beacon - guard
        if start <= self.sim.now:
            start = target_beacon + cycle - guard
        return start

    def _max_lead(self, cycle: int) -> int:
        leads = [node.mac.sync_policy.lead_ticks(cycle, cycle)
                 for node in self.nodes
                 if hasattr(node.mac, "sync_policy")]
        return max(leads) if leads else 0


def run_scenario(**kwargs: Any) -> NetworkEnergyResult:
    """One-call convenience: build a scenario from keyword arguments
    (see :class:`BanScenarioConfig`) and run it."""
    return BanScenario(BanScenarioConfig(**kwargs)).run()


__all__ = ["BanScenarioConfig", "BanScenario", "NodeSpec",
           "run_scenario", "MACS", "APPS"]
