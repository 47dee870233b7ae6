"""Causal span tracing: per-packet latency and per-joule attribution.

Metrics (:mod:`repro.obs.metrics`) and trace sinks
(:mod:`repro.obs.sinks`) answer *how much* — total joules, total
frames — but not *because of what*: there is no causal link from an
application sample through MAC queueing and PHY airtime to delivery
(or loss) at the base station.  This module adds that link.  Each data
packet (and each control frame) gets a **root span** covering its whole
lifetime; **child spans** cover every lifecycle phase:

========================  ====================================================
phase                      interval
========================  ====================================================
``app.buffer``             first sample since the previous payload read ->
                           the app hands the MAC a payload
``mac.slot_wait``          beacon processed -> owned TDMA slot fires
``mac.ssr_wait``           SSR scheduled -> SSR transmitted (join protocol)
``mac.tx_jitter``          ALOHA poll -> randomised transmit instant
``mac.backoff_wait``       CSMA backoff draw -> CCA start (radio off)
``mac.cca``                CSMA clear-channel assessment window (RX
                           current), with ``busy``/``idle`` as status
``tinyos.queue``           task posted -> task dispatched (FIFO wait)
``mcu.prepare``            packet-preparation task executing on the MCU
``radio.settle``           ShockBurst PLL settle (TX state, tag ``settle``)
``phy.air``                first bit on air -> last bit off air
``radio.tail``             TX shutdown tail (TX state, tag ``tail``)
``phy.rx``                 the frame's airtime at one receiver, with the
                           receive outcome (``delivered`` / ``corrupted`` /
                           ``overheard``) as its status
========================  ====================================================

Determinism argument
--------------------

Spans-enabled runs are byte-identical to spans-off runs in event order,
energies and fingerprints because every hook is a plain method call on
the tracer — no events are scheduled, no RNG is consumed, no simulator
state is touched — and a tracer does not select the scheduler's
per-task chain, so a run takes the same path with spans on or off.
Span IDs come from a **store-local serial counter** (deterministic:
hooks fire in dispatch order, which is itself deterministic), *not*
from ``Simulator.next_serial()`` — consuming the simulator's serial
would shift every ``Frame.frame_id`` and change the trace text of a
spans-on run.  No wall clock and no module-global counters are
involved, so ``repro.lint`` stays clean and repeat runs produce
bit-identical span sets.  Cross-worker, each worker's
:class:`SpanStore` merges with deterministic ID rebasing in submission
order, so ``--jobs N`` output equals sequential.

Energy attribution
------------------

Every span energy is ``ledger.iv_coeff(state) * to_seconds(span_ticks)``
— the *exact* expression :class:`~repro.core.ledger.PowerStateLedger`
uses — so summed per-span energies for a node equal that node's ledger
totals for the attributed states up to float addition order (the
ledger multiplies the coefficient by the *summed* integer ticks; spans
multiply per phase and then sum).  TX coverage is exact: the settle,
air and tail phases partition the ledger's TX interval tick for tick.
RX and MCU-active coverage is partial by design (idle listening and
non-packet tasks are not packet-attributable); the reconciliation
report states the coverage ratio instead of hiding it.
"""

from __future__ import annotations

import json
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..hw.frames import Frame, FrameKind
from ..sim.simtime import TICKS_PER_SECOND, to_seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..hw.radio import TxOutcome
    from ..net.basestation import BaseStation
    from ..net.node import SensorNode
    from ..net.scenario import BanScenario
    from .metrics import MetricsRegistry
    from .sinks import JsonlTraceSink

#: Root span name (one per packet / control frame).
ROOT = "packet"

#: Histogram bucket bounds for the latency rollup [ms].
LATENCY_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                      500.0, 1000.0)

#: Histogram bucket bounds for the per-packet energy rollup [uJ].
ENERGY_BUCKETS_UJ = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                     500.0, 1000.0)

#: Perfetto track (tid) per phase name; phases that may overlap in time
#: on one node render on separate tracks.
_PERFETTO_TIDS = {ROOT: 0, "app.buffer": 1, "mac.slot_wait": 2,
                  "mac.ssr_wait": 2, "mac.tx_jitter": 2,
                  "mac.backoff_wait": 2,
                  "tinyos.queue": 3, "mcu.prepare": 3,
                  "radio.settle": 4, "phy.air": 4, "radio.tail": 4,
                  "mac.cca": 4, "phy.rx": 5}

#: A span as a plain JSON-able record (what :meth:`SpanStore.snapshot`
#: lists): ``[span_id, parent_id, trace_id, name, node, kind, frame_id,
#: start, end, energy_j, status]``.
SpanRecord = List[Any]


class Span:
    """One closed interval in a packet's life, with energy attribution.

    Attributes:
        span_id: store-local serial (deterministic; see module docs).
        parent_id: enclosing span's id (None for roots and orphans).
        trace_id: the root span's id (== span_id for roots).
        name: phase name (:data:`ROOT` or a child phase).
        node: the node whose hardware the time/energy belongs to.
        kind: the frame kind value (``data``/``beacon``/...).
        frame_id: the frame's simulator-serial id (correlates spans
            with trace records; 0 if never transmitted).
        start: interval start [ticks].
        end: interval end [ticks].
        energy_j: attributed energy [J] (ledger-coefficient exact).
        status: outcome tag (root: ``delivered``/``lost``/``broadcast``;
            ``phy.rx``: receive outcome; else free-form).
    """

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "node",
                 "kind", "frame_id", "start", "end", "energy_j",
                 "status")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 trace_id: int, name: str, node: str, kind: str,
                 frame_id: int, start: int, end: int,
                 energy_j: float, status: str = "") -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.node = node
        self.kind = kind
        self.frame_id = frame_id
        self.start = start
        self.end = end
        self.energy_j = energy_j
        self.status = status

    @property
    def duration_ticks(self) -> int:
        """The interval length in ticks."""
        return self.end - self.start

    @property
    def duration_s(self) -> float:
        """The interval length in seconds."""
        return to_seconds(self.end - self.start)

    def to_record(self) -> SpanRecord:
        """The plain-data form (see :data:`SpanRecord`)."""
        return [self.span_id, self.parent_id, self.trace_id, self.name,
                self.node, self.kind, self.frame_id, self.start,
                self.end, self.energy_j, self.status]

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        """Pickle as a constructor call over :meth:`to_record`.

        A pooled worker ships its whole store; against pickling the
        slot state, this takes about 0.6 of the bytes and under half
        the time.
        """
        return (Span, tuple(self.to_record()))

    def __repr__(self) -> str:
        return (f"Span(#{self.span_id} {self.name} node={self.node} "
                f"[{self.start}..{self.end}] {self.energy_j:.3e} J "
                f"{self.status})")


class SpanStore:
    """Finished spans plus the deterministic ID allocator.

    Spans are kept in ID order: they are added in the order their IDs
    were allocated, and :meth:`clear` restarts both.  Workers fill
    private stores and ship the stores themselves back (a
    :class:`Span` pickles as it is); the parent folds each in with
    :meth:`merge_snapshot`, which rebases span IDs past the IDs
    already present, so merging per-config stores in submission order
    reproduces the sequential store bit for bit.  :meth:`snapshot` is
    the plain-data view that :meth:`fingerprint` hashes.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Next span ID (store-local serial; see the module docs)."""
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def add(self, span: Span) -> None:
        """Append a finished span."""
        self.spans.append(span)

    def clear(self) -> None:
        """Drop all spans and restart the ID serial (measurement reset)."""
        self.spans.clear()
        self._next_id = 1

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> List[Span]:
        """The root spans, in finalisation order."""
        return [span for span in self.spans if span.parent_id is None
                and span.name == ROOT]

    def children_of(self, trace_id: int) -> List[Span]:
        """Child spans of one trace, in recorded order."""
        return [span for span in self.spans
                if span.trace_id == trace_id and span.parent_id
                is not None]

    # ------------------------------------------------------------------
    # Snapshot / merge (the cross-worker contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[SpanRecord]]:
        """A plain-data view, sorted by span ID (canonical order)."""
        records = sorted((span.to_record() for span in self.spans),
                         key=lambda record: record[0])
        return {"spans": records}

    def merge_snapshot(self, worker: "SpanStore") -> None:
        """Fold a worker's store in, rebasing its span IDs past ours.

        The worker's spans move here as they are, their IDs shifted in
        place, and ``worker`` is left empty.
        """
        base = self._next_id - 1
        spans = worker.spans
        for span in spans:
            span.span_id += base
            span.trace_id += base
            if span.parent_id is not None:
                span.parent_id += base
        self.spans.extend(spans)
        self._next_id = base + worker._next_id
        worker.clear()

    def fingerprint(self) -> str:
        """SHA-256 over the canonical snapshot JSON (bit-exact)."""
        import hashlib
        text = json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class _NodeBinding:
    """Per-node energy coefficients, pulled from the node's ledgers."""

    __slots__ = ("mcu_active_w", "radio_tx_w", "radio_rx_w",
                 "mcu_clock_hz", "_ticks_memo")

    def __init__(self, mcu_active_w: float, radio_tx_w: float,
                 radio_rx_w: float, mcu_clock_hz: float) -> None:
        self.mcu_active_w = mcu_active_w
        self.radio_tx_w = radio_tx_w
        self.radio_rx_w = radio_rx_w
        self.mcu_clock_hz = mcu_clock_hz
        self._ticks_memo: Dict[int, int] = {}

    def cycles_to_ticks(self, cycles: int) -> int:
        """MCU cycles -> ticks, replicating ``Msp430.cycles_to_ticks``
        (own memo: the tracer never touches model state)."""
        ticks = self._ticks_memo.get(cycles)
        if ticks is None:
            ticks = round(cycles * TICKS_PER_SECOND / self.mcu_clock_hz)
            self._ticks_memo[cycles] = ticks
        return ticks


class _PacketTrace:
    """In-flight bookkeeping for one frame's trace (pre-finalisation).

    Phases are recorded as raw tuples and only become :class:`Span`
    objects at finalisation, when the frame's simulator-serial
    ``frame_id`` is known (it is stamped at first transmit).
    """

    __slots__ = ("frame", "node", "start", "phases", "open_name",
                 "open_start")

    def __init__(self, frame: Frame, node: str, start: int) -> None:
        self.frame = frame
        self.node = node
        self.start = start
        #: (name, node, start, end, energy_j, status) per closed phase.
        self.phases: List[Tuple[str, str, int, int, float, str]] = []
        self.open_name: Optional[str] = None
        self.open_start = 0


class SpanTracer:
    """The hook target every instrumented component points at.

    Components hold ``spans = None`` by default; the disabled path is a
    single ``is None`` test.  :func:`attach_span_tracer` wires one
    tracer through a scenario.  All hooks are pure tracer-state
    mutations — see the module docstring's determinism argument.
    """

    def __init__(self, store: Optional[SpanStore] = None) -> None:
        self.store = store if store is not None else SpanStore()
        self._bindings: Dict[str, _NodeBinding] = {}
        # id(frame) -> trace; the trace holds the frame reference, so
        # the id cannot be recycled while the entry is pending.
        self._by_frame: Dict[int, _PacketTrace] = {}
        # task label -> traces awaiting that label's dispatch (FIFO).
        self._awaiting_task: Dict[str, List[_PacketTrace]] = {}
        # node -> (first sample tick, active MCU ticks, sample count).
        self._pending_samples: Dict[str, Tuple[int, int, int]] = {}
        # node -> (first sample tick, active MCU ticks, sample count,
        # payload read tick): the app.buffer phase of the node's next
        # queued data packet.
        self._read_samples: Dict[str, Tuple[int, int, int, int]] = {}
        # node -> (wait phase name, start, end).
        self._pending_wait: Dict[str, Tuple[str, int, int]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_node(self, node: str, mcu_active_w: float,
                  radio_tx_w: float, radio_rx_w: float,
                  mcu_clock_hz: float) -> None:
        """Register one node's energy coefficients (ledger-exact)."""
        self._bindings[node] = _NodeBinding(
            mcu_active_w, radio_tx_w, radio_rx_w, mcu_clock_hz)

    def reset(self) -> None:
        """Drop warm-up spans and pending state (measurement start).

        Bindings survive.  A transmission straddling the reset loses
        its trace entirely (its later hooks no-op), mirroring how the
        ledgers drop the pre-reset part of their open interval.
        """
        self.store.clear()
        self._by_frame.clear()
        self._awaiting_task.clear()
        self._pending_samples.clear()
        self._read_samples.clear()
        self._pending_wait.clear()

    # ------------------------------------------------------------------
    # Application hooks
    # ------------------------------------------------------------------
    def note_sample(self, node: str, now: int, cycles: int) -> None:
        """One sample vector acquired; accumulates toward the next
        packet's ``app.buffer`` phase."""
        binding = self._bindings.get(node)
        ticks = binding.cycles_to_ticks(cycles) if binding is not None \
            else 0
        entry = self._pending_samples.get(node)
        if entry is None:
            self._pending_samples[node] = (now, ticks, 1)
        else:
            first, total, count = entry
            self._pending_samples[node] = (first, total + ticks,
                                           count + 1)

    def payload_read(self, node: str, now: int) -> None:
        """The app handed the MAC a payload: the samples noted since
        the previous read become the next data packet's ``app.buffer``
        phase, ending now.  Samples noted later count toward the packet
        after it."""
        samples = self._pending_samples.pop(node, None)
        if samples is None:
            self._read_samples.pop(node, None)
        else:
            self._read_samples[node] = samples + (now,)

    # ------------------------------------------------------------------
    # MAC hooks
    # ------------------------------------------------------------------
    def note_wait(self, node: str, name: str, start: int,
                  end: int) -> None:
        """A MAC-level wait (slot wait, ES-window draw, ALOHA jitter)
        ending at the next packet this node queues."""
        self._pending_wait[node] = (name, start, end)

    def mac_phase(self, frame: Frame, name: str, start: int, end: int,
                  status: str = "") -> None:
        """A closed contention phase on an already-queued packet.

        CSMA uses it for every backoff wait and CCA window of a frame
        (repeatable phases, unlike the single-slot ``note_wait``).
        ``mac.cca`` is attributed at the sender's RX coefficient — the
        receive chain dwells for the window — which is exactly the
        ledger's ``cca``-state expression; waits are radio-off and
        carry no energy.
        """
        trace = self._by_frame.get(id(frame))
        if trace is None:
            return
        energy = 0.0
        if name == "mac.cca":
            binding = self._bindings.get(trace.node)
            if binding is not None:
                energy = binding.radio_rx_w * to_seconds(end - start)
        trace.phases.append((name, trace.node, start, end, energy,
                             status))

    def packet_abandoned(self, frame: Frame, now: int) -> None:
        """The MAC dropped the frame without transmitting it (CSMA
        channel-access failure): finalise its trace as ``abandoned``."""
        trace = self._by_frame.pop(id(frame), None)
        if trace is None:
            return
        self._finalize(trace, now, "abandoned")

    def packet_queued(self, frame: Frame, now: int,
                      task_label: str) -> None:
        """The MAC accepted a payload and posted its preparation task."""
        node = frame.src
        trace = _PacketTrace(frame, node, now)
        samples = self._read_samples.pop(node, None)
        if samples is not None and frame.kind is FrameKind.DATA:
            first, ticks, count, read_at = samples
            binding = self._bindings.get(node)
            energy = (binding.mcu_active_w * to_seconds(ticks)
                      if binding is not None else 0.0)
            trace.phases.append(("app.buffer", node, first, read_at,
                                 energy, f"samples={count}"))
            trace.start = min(trace.start, first)
        wait = self._pending_wait.pop(node, None)
        if wait is not None:
            wait_name, wait_start, wait_end = wait
            trace.phases.append((wait_name, node, wait_start, wait_end,
                                 0.0, ""))
            trace.start = min(trace.start, wait_start)
        trace.open_name = "tinyos.queue"
        trace.open_start = now
        self._by_frame[id(frame)] = trace
        self._awaiting_task.setdefault(task_label, []).append(trace)

    # ------------------------------------------------------------------
    # TinyOS scheduler hook
    # ------------------------------------------------------------------
    def task_started(self, label: str, now: int,
                     duration_ticks: int) -> None:
        """A task was dispatched; if a trace awaits this label, close
        its queue phase and book the preparation task."""
        waiting = self._awaiting_task.get(label)
        if not waiting:
            return
        trace = waiting.pop(0)
        if not waiting:
            del self._awaiting_task[label]
        node = trace.node
        if trace.open_name == "tinyos.queue":
            # Queue-wait energy is the MCU wake transition plus idle —
            # not packet work; attributed 0 by design.
            trace.phases.append(("tinyos.queue", node,
                                 trace.open_start, now, 0.0, ""))
            trace.open_name = None
        binding = self._bindings.get(node)
        energy = (binding.mcu_active_w * to_seconds(duration_ticks)
                  if binding is not None else 0.0)
        trace.phases.append(("mcu.prepare", node, now,
                             now + duration_ticks, energy, ""))

    # ------------------------------------------------------------------
    # Radio / channel hooks (sender side)
    # ------------------------------------------------------------------
    def tx_start(self, frame: Frame, now: int) -> None:
        """ShockBurst event begins (TX settle)."""
        trace = self._by_frame.get(id(frame))
        if trace is None:
            # Control frame or retransmission with no registered queue
            # phase: auto-root at transmit start.
            trace = _PacketTrace(frame, frame.src, now)
            self._by_frame[id(frame)] = trace
            wait = self._pending_wait.pop(frame.src, None)
            if wait is not None:
                wait_name, wait_start, wait_end = wait
                trace.phases.append((wait_name, frame.src, wait_start,
                                     wait_end, 0.0, ""))
                trace.start = min(trace.start, wait_start)
        trace.open_name = "radio.settle"
        trace.open_start = now

    def air_begin(self, frame: Frame, now: int) -> None:
        """First bit on air: close the settle phase, open the airtime."""
        trace = self._by_frame.get(id(frame))
        if trace is None:
            return
        self._close_tx_phase(trace, "radio.settle", now)
        trace.open_name = "phy.air"
        trace.open_start = now

    def air_end(self, frame: Frame, now: int) -> None:
        """Last bit off air: close the airtime, open the TX tail."""
        trace = self._by_frame.get(id(frame))
        if trace is None:
            return
        self._close_tx_phase(trace, "phy.air", now)
        trace.open_name = "radio.tail"
        trace.open_start = now

    def _close_tx_phase(self, trace: _PacketTrace, expected: str,
                        now: int) -> None:
        if trace.open_name != expected:
            return
        binding = self._bindings.get(trace.node)
        ticks = now - trace.open_start
        energy = (binding.radio_tx_w * to_seconds(ticks)
                  if binding is not None else 0.0)
        trace.phases.append((expected, trace.node, trace.open_start,
                             now, energy, ""))
        trace.open_name = None

    def tx_finish(self, outcome: "TxOutcome", now: int) -> None:
        """Radio back in stand-by: close the tail and finalise."""
        frame = outcome.frame
        trace = self._by_frame.pop(id(frame), None)
        if trace is None:
            return
        self._close_tx_phase(trace, "radio.tail", now)
        if frame.is_broadcast:
            status = "broadcast"
        elif frame.dest in outcome.delivered_to:
            status = "delivered"
        else:
            status = "lost"
        self._finalize(trace, now, status)

    # ------------------------------------------------------------------
    # Receiver-side hook
    # ------------------------------------------------------------------
    def rx_outcome(self, frame: Frame, receiver: str, start: int,
                   end: int, status: str) -> None:
        """A frame's airtime ended at one listening receiver."""
        binding = self._bindings.get(receiver)
        energy = (binding.radio_rx_w * to_seconds(end - start)
                  if binding is not None else 0.0)
        trace = self._by_frame.get(id(frame))
        if trace is not None:
            trace.phases.append(("phy.rx", receiver, start, end,
                                 energy, status))
            return
        # Foreign frame (e.g. another BAN with its own tracer): record
        # a standalone rx span so the receiver's energy is attributed.
        store = self.store
        span_id = store.allocate()
        store.add(Span(span_id, None, span_id, "phy.rx", receiver,
                       frame.kind.value, frame.frame_id, start, end,
                       energy, status))

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _finalize(self, trace: _PacketTrace, end: int,
                  status: str) -> None:
        store = self.store
        frame = trace.frame
        kind = frame.kind.value
        frame_id = frame.frame_id
        root_id = store.allocate()
        total = 0.0
        children: List[Span] = []
        for name, node, start, stop, energy, child_status \
                in trace.phases:
            children.append(Span(store.allocate(), root_id, root_id,
                                 name, node, kind, frame_id, start,
                                 stop, energy, child_status))
            total += energy
        store.add(Span(root_id, None, root_id, ROOT, trace.node, kind,
                       frame_id, trace.start, end, total, status))
        for child in children:
            store.add(child)


# ----------------------------------------------------------------------
# Scenario wiring
# ----------------------------------------------------------------------
def attach_span_tracer(scenario: "BanScenario",
                       tracer: Optional[SpanTracer] = None
                       ) -> SpanTracer:
    """Wire a :class:`SpanTracer` through every layer of a scenario.

    Sets the ``spans`` hook attribute on the apps, schedulers, MACs,
    radios and the channel, binds each station's ledger coefficients,
    and installs the tracer as ``scenario.span_tracer`` so the
    measurement-window reset also drops warm-up spans.  Pass an
    existing ``tracer`` to share one across scenarios (multi-BAN runs
    on a shared channel).
    """
    if tracer is None:
        tracer = SpanTracer()
    for node in scenario.nodes:
        node.attach_spans(tracer)
    scenario.base_station.attach_spans(tracer)
    scenario.channel.spans = tracer
    scenario.span_tracer = tracer
    return tracer


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def spans_to_sink(store: SpanStore, sink: "JsonlTraceSink") -> int:
    """Emit every span as a trace record through ``sink``.

    Each span becomes one record: ``t`` = span start, ``source`` = the
    span's node, ``kind`` = ``"span"``, ``detail`` = the remaining
    fields as compact JSON.  Returns the number of records emitted.
    """
    emitted = 0
    for span in store.spans:
        detail = json.dumps(
            {"span_id": span.span_id, "parent_id": span.parent_id,
             "trace_id": span.trace_id, "name": span.name,
             "kind": span.kind, "frame_id": span.frame_id,
             "end": span.end, "energy_j": span.energy_j,
             "status": span.status}, sort_keys=True,
            separators=(",", ":"))
        sink.emit(span.start, span.node, "span", detail)
        emitted += 1
    return emitted


def write_spans_jsonl(store: SpanStore, path: str) -> int:
    """Write the store as JSON lines via :class:`JsonlTraceSink`."""
    from .sinks import JsonlTraceSink
    with JsonlTraceSink(path) as sink:
        return spans_to_sink(store, sink)


def to_perfetto(store: SpanStore) -> Dict[str, Any]:
    """The store as Chrome/Perfetto ``trace_event`` JSON (dict form).

    Complete events (``ph="X"``), one process per node, one track per
    phase family; timestamps in microseconds (ticks are nanoseconds).
    Load the dumped JSON in https://ui.perfetto.dev for a
    flamegraph-style view; ``args`` carry span id, frame id, energy
    [uJ] and status.
    """
    nodes = sorted({span.node for span in store.spans})
    pids = {node: index + 1 for index, node in enumerate(nodes)}
    events: List[Dict[str, Any]] = []
    for node in nodes:
        events.append({"name": "process_name", "ph": "M",
                       "pid": pids[node], "tid": 0,
                       "args": {"name": node}})
    for span in store.spans:
        events.append({
            "name": span.name, "cat": span.kind, "ph": "X",
            "pid": pids[span.node],
            "tid": _PERFETTO_TIDS.get(span.name, 6),
            "ts": span.start / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "args": {"span_id": span.span_id,
                     "trace_id": span.trace_id,
                     "frame_id": span.frame_id,
                     "energy_uj": span.energy_j * 1e6,
                     "status": span.status},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(store: SpanStore, path: str) -> int:
    """Dump :func:`to_perfetto` to ``path``; returns the event count."""
    payload = to_perfetto(store)
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# Rollups into the metrics registry
# ----------------------------------------------------------------------
def rollup_spans(store: SpanStore, registry: "MetricsRegistry") -> None:
    """Derive per-node metrics from the span set.

    Per sender node: ``spans/<node>/latency_ms`` (end-to-end data
    packet latency) and ``spans/<node>/packet_energy_uj`` histograms,
    plus ``packets_<status>`` counters.  Per owning node:
    ``spans/<node>/energy_by_phase_uj`` and ``time_by_phase_ms`` state
    timers, and a ``spans_recorded`` counter.
    """
    for span in store.spans:
        registry.counter("spans", span.node, "spans_recorded").inc()
        if span.parent_id is None and span.name == ROOT:
            registry.counter("spans", span.node,
                             f"packets_{span.status}").inc()
            if span.kind == "data":
                registry.histogram(
                    "spans", span.node, "latency_ms",
                    bounds=LATENCY_BUCKETS_MS).observe(
                        span.duration_s * 1e3)
                registry.histogram(
                    "spans", span.node, "packet_energy_uj",
                    bounds=ENERGY_BUCKETS_UJ).observe(
                        span.energy_j * 1e6)
        else:
            timer = registry.state_timer("spans", span.node,
                                         "energy_by_phase_uj")
            timer.add(span.name, span.energy_j * 1e6)
            clock = registry.state_timer("spans", span.node,
                                         "time_by_phase_ms")
            clock.add(span.name, span.duration_s * 1e3)


# ----------------------------------------------------------------------
# Reconciliation and the text report
# ----------------------------------------------------------------------
#: phase names booked against the radio's TX state.
_TX_PHASES = ("radio.settle", "phy.air", "radio.tail")
#: phase names booked against the MCU's active state.
_MCU_PHASES = ("app.buffer", "mcu.prepare")


def _span_energy_by_state(store: SpanStore
                          ) -> Dict[Tuple[str, str], float]:
    """Summed span energies per (node, ledger state)."""
    sums: Dict[Tuple[str, str], float] = {}
    for span in store.spans:
        if span.parent_id is None and span.name != "phy.rx":
            continue  # roots duplicate their children's energy
        if span.name in _TX_PHASES:
            key = (span.node, "tx")
        elif span.name == "phy.rx":
            key = (span.node, "rx")
        elif span.name == "mac.cca":
            key = (span.node, "cca")
        elif span.name in _MCU_PHASES:
            key = (span.node, "active")
        else:
            continue  # wait/queue phases carry no energy
        sums[key] = sums.get(key, 0.0) + span.energy_j
    return sums


def reconcile_spans(store: SpanStore, scenario: "BanScenario"
                    ) -> List[Dict[str, Any]]:
    """Span sums vs ledger totals, per node and attributed state.

    Rows: ``{"node", "state", "ledger", "span_j", "ledger_j",
    "coverage"}``.  TX coverage is ~1.0 (exact up to float addition
    order); RX and MCU-active are partial by design (idle listening,
    beacon windows and non-packet tasks are not packet-attributable).
    """
    sums = _span_energy_by_state(store)
    stations: List[Tuple[str, Any, Any]] = [
        (node.node_id, node.radio.ledger, node.mcu.ledger)
        for node in scenario.nodes]
    bs = scenario.base_station
    stations.append((bs.address, bs.radio.ledger, bs.mcu.ledger))
    rows: List[Dict[str, Any]] = []
    for node_id, radio_ledger, mcu_ledger in stations:
        radio_by_state = radio_ledger.energy_by_state()
        mcu_by_state = mcu_ledger.energy_by_state()
        for state, ledger_name, ledger_j in (
                ("tx", "radio", radio_by_state.get("tx", 0.0)),
                ("rx", "radio", radio_by_state.get("rx", 0.0)),
                ("cca", "radio", radio_by_state.get("cca", 0.0)),
                ("active", "mcu", mcu_by_state.get("active", 0.0))):
            span_j = sums.get((node_id, state), 0.0)
            if span_j == 0.0 and ledger_j == 0.0:
                continue
            rows.append({
                "node": node_id, "state": state, "ledger": ledger_name,
                "span_j": span_j, "ledger_j": ledger_j,
                "coverage": span_j / ledger_j if ledger_j else 0.0,
            })
    return rows


def _percentile(values: List[float], q: float) -> float:
    """Deterministic nearest-rank percentile over sorted ``values``."""
    if not values:
        return 0.0
    rank = max(0, min(len(values) - 1,
                      -(-int(q * len(values)) // 1) - 1))
    return values[rank]


def attribution_report(store: SpanStore,
                       scenario: Optional["BanScenario"] = None
                       ) -> str:
    """The text attribution report ("where did the 31 uJ go").

    Phase table, per-node latency/energy percentiles and — when the
    scenario is given — the span-vs-ledger reconciliation.  Span sums
    use the ledger's exact I*V coefficients, so they match ledger
    totals up to float addition order: the ledger computes
    ``coeff * sum(ticks)``, spans compute ``sum(coeff * ticks_i)``.
    """
    lines: List[str] = []
    roots = store.roots()
    lines.append(f"Causal span attribution: {len(roots)} traces, "
                 f"{len(store)} spans")
    lines.append("")

    # Phase table --------------------------------------------------------
    phase_count: Dict[str, int] = {}
    phase_ms: Dict[str, float] = {}
    phase_uj: Dict[str, float] = {}
    order: List[str] = []
    for span in store.spans:
        if span.parent_id is None and span.name == ROOT:
            continue
        if span.name not in phase_count:
            order.append(span.name)
        phase_count[span.name] = phase_count.get(span.name, 0) + 1
        phase_ms[span.name] = (phase_ms.get(span.name, 0.0)
                               + span.duration_s * 1e3)
        phase_uj[span.name] = (phase_uj.get(span.name, 0.0)
                               + span.energy_j * 1e6)
    total_uj = sum(phase_uj.values())
    lines.append(f"{'phase':<14} {'spans':>7} {'time [ms]':>11} "
                 f"{'energy [uJ]':>12} {'share':>7}")
    for name in sorted(order):
        share = (phase_uj[name] / total_uj * 100.0) if total_uj else 0.0
        lines.append(f"{name:<14} {phase_count[name]:>7} "
                     f"{phase_ms[name]:>11.3f} {phase_uj[name]:>12.3f} "
                     f"{share:>6.1f}%")
    lines.append(f"{'total':<14} "
                 f"{sum(phase_count.values()):>7} "
                 f"{sum(phase_ms.values()):>11.3f} {total_uj:>12.3f} "
                 f"{'100.0%' if total_uj else '-':>7}")
    lines.append("")

    # Per-node latency / packet energy ----------------------------------
    by_node: Dict[str, List[Span]] = {}
    for root in roots:
        if root.kind == "data":
            by_node.setdefault(root.node, []).append(root)
    if by_node:
        lines.append("end-to-end data-packet latency "
                     "(first sample -> TX outcome) and per-packet "
                     "energy:")
        for node in sorted(by_node):
            packets = by_node[node]
            lat = sorted(p.duration_s * 1e3 for p in packets)
            uj = sorted(p.energy_j * 1e6 for p in packets)
            delivered = sum(1 for p in packets
                            if p.status == "delivered")
            lines.append(
                f"  {node}: n={len(packets)} delivered={delivered} "
                f"p50={_percentile(lat, 0.50):.3f} ms "
                f"p99={_percentile(lat, 0.99):.3f} ms "
                f"max={lat[-1]:.3f} ms | "
                f"mean={sum(uj) / len(uj):.3f} uJ "
                f"p99={_percentile(uj, 0.99):.3f} uJ")
        lines.append("")

    # Reconciliation -----------------------------------------------------
    if scenario is not None:
        lines.append("reconciliation vs power-state ledgers "
                     "(span sums use the ledgers' exact I*V "
                     "coefficients; they equal ledger totals up to "
                     "float addition order -- the ledger multiplies "
                     "the coefficient by summed ticks, spans multiply "
                     "per phase and sum):")
        lines.append(f"  {'node':<16} {'state':<7} {'spans [uJ]':>12} "
                     f"{'ledger [uJ]':>12} {'coverage':>9}")
        for row in reconcile_spans(store, scenario):
            lines.append(
                f"  {row['node']:<16} {row['state']:<7} "
                f"{row['span_j'] * 1e6:>12.4f} "
                f"{row['ledger_j'] * 1e6:>12.4f} "
                f"{row['coverage'] * 100.0:>8.2f}%")
        lines.append("")
        lines.append("  tx coverage is exact (settle/air/tail "
                     "partition the ledger's TX ticks); rx/active are "
                     "partial by design (idle listening, beacon "
                     "windows and non-packet tasks are not "
                     "packet-attributable).")
    return "\n".join(lines)


__all__ = ["Span", "SpanStore", "SpanTracer", "SpanRecord",
           "attach_span_tracer", "spans_to_sink", "write_spans_jsonl",
           "to_perfetto", "write_perfetto", "rollup_spans",
           "reconcile_spans", "attribution_report", "ROOT",
           "LATENCY_BUCKETS_MS", "ENERGY_BUCKETS_UJ"]
