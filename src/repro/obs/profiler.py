"""Lightweight simulation profiler.

Answers the question the kernel fast-path work keeps asking: **where
does the host's wall-clock time go during a run?**  The kernel's
observed dispatch loop (see :meth:`repro.sim.kernel.Simulator.run_until`)
times every callback with :func:`time.perf_counter` and hands the
per-label aggregates to a :class:`SimulationProfiler`, which:

* groups labels after *normalisation* (``node3.mac.rxon`` →
  ``node*.mac.rxon``) so a 50-node BAN reads as one line per code
  path, not fifty;
* attributes the residual loop time (heap pops, bookkeeping) to the
  ``(kernel dispatch)`` pseudo-label, so the whole measured wall time
  is accounted for — the attribution fraction is ~1.0 by construction;
* reports **sim-seconds-per-wall-second**, the simulator's headline
  throughput figure.

Profiles are plain data: :meth:`snapshot` / :meth:`merge_snapshot`
let worker processes profile independently and the parent aggregate,
exactly like the metrics registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.simtime import to_seconds

#: Pseudo-label for dispatch-loop overhead (heap ops, bookkeeping).
KERNEL_LABEL = "(kernel dispatch)"

#: Pseudo-label for events scheduled without a label.
UNLABELLED = "(unlabelled)"


def normalize_label(label: str) -> str:
    """Collapse per-instance numbering out of an event label.

    Every dot-separated segment has its trailing digits replaced by
    ``*`` (``node12`` → ``node*``, ``ban2`` → ``ban*``), so homologous
    callbacks across nodes and BANs aggregate into one profile row.
    """
    if not label:
        return UNLABELLED
    segments = []
    for segment in label.split("."):
        stripped = segment.rstrip("0123456789")
        segments.append(segment if stripped == segment
                        else stripped + "*")
    return ".".join(segments)


class SimulationProfiler:
    """Accumulates per-label host time across profiled ``run*`` calls.

    Attach one to a simulator (``sim.profiler = SimulationProfiler()``)
    *before* running; the kernel switches to its observed dispatch loop
    and calls :meth:`absorb` once per ``run_until``.  Attaching a
    profiler never changes event order or energies — it only spends
    host time reading the clock.
    """

    def __init__(self) -> None:
        #: label -> [cumulative seconds, call count]
        self.labels: Dict[str, List[float]] = {}
        #: Total wall seconds measured inside observed dispatch loops.
        self.wall_s = 0.0
        #: Total simulated ticks advanced by profiled runs.
        self.sim_ticks = 0
        #: Total events dispatched by profiled runs.
        self.events = 0

    # ------------------------------------------------------------------
    # Ingestion (called by the kernel)
    # ------------------------------------------------------------------
    def absorb(self, raw: Dict[str, List[float]], wall_s: float,
               sim_ticks: int, events: int) -> None:
        """Fold one profiled run's raw per-label aggregates in.

        Args:
            raw: label -> ``[seconds, count]`` as measured by the
                kernel (labels not yet normalised).
            wall_s: wall time of the whole dispatch loop.
            sim_ticks: simulated time the run advanced.
            events: events dispatched by the run.
        """
        attributed = 0.0
        for label, (seconds, count) in raw.items():
            attributed += seconds
            normalized = normalize_label(label)
            entry = self.labels.get(normalized)
            if entry is None:
                self.labels[normalized] = [seconds, float(count)]
            else:
                entry[0] += seconds
                entry[1] += count
        overhead = max(0.0, wall_s - attributed)
        entry = self.labels.get(KERNEL_LABEL)
        if entry is None:
            self.labels[KERNEL_LABEL] = [overhead, float(events)]
        else:
            entry[0] += overhead
            entry[1] += events
        self.wall_s += wall_s
        self.sim_ticks += sim_ticks
        self.events += events

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Wall seconds attributed to labels (incl. dispatch overhead)."""
        return sum(seconds for seconds, _ in self.labels.values())

    @property
    def attributed_fraction(self) -> float:
        """Share of measured wall time carrying a label (~1.0)."""
        if self.wall_s <= 0:
            return 1.0
        return min(1.0, self.attributed_s / self.wall_s)

    @property
    def sim_s(self) -> float:
        """Simulated seconds advanced by profiled runs."""
        return to_seconds(self.sim_ticks)

    @property
    def sim_rate(self) -> float:
        """Simulated seconds per wall second (the throughput figure)."""
        return self.sim_s / self.wall_s if self.wall_s > 0 else 0.0

    def top(self, limit: Optional[int] = None
            ) -> List[Tuple[str, float, float]]:
        """(label, seconds, count) rows, hottest first."""
        rows = sorted(((label, seconds, count)
                       for label, (seconds, count) in self.labels.items()),
                      key=lambda row: row[1], reverse=True)
        return rows if limit is None else rows[:limit]

    # ------------------------------------------------------------------
    # Snapshot / merge (for worker aggregation)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-data view, mergeable via :meth:`merge_snapshot`."""
        return {"labels": {label: list(entry)
                           for label, entry in self.labels.items()},
                "wall_s": self.wall_s, "sim_ticks": self.sim_ticks,
                "events": self.events}

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold another profiler's :meth:`snapshot` into this one."""
        for label, (seconds, count) in snapshot["labels"].items():
            entry = self.labels.get(label)
            if entry is None:
                self.labels[label] = [seconds, count]
            else:
                entry[0] += seconds
                entry[1] += count
        self.wall_s += snapshot["wall_s"]
        self.sim_ticks += snapshot["sim_ticks"]
        self.events += snapshot["events"]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_table(self, limit: int = 25) -> str:
        """The profile as a fixed-width text table."""
        lines = [f"{'label':<36} {'calls':>10} {'wall (s)':>10} "
                 f"{'share':>7}",
                 "-" * 66]
        wall = self.wall_s if self.wall_s > 0 else 1.0
        for label, seconds, count in self.top(limit):
            lines.append(f"{label:<36} {int(count):>10} {seconds:>10.4f} "
                         f"{100.0 * seconds / wall:>6.1f}%")
        lines.append("-" * 66)
        lines.append(
            f"measured wall: {self.wall_s:.4f} s   "
            f"sim: {self.sim_s:.2f} s   "
            f"rate: {self.sim_rate:.1f} sim-s/wall-s   "
            f"events: {self.events}   "
            f"attributed: {100.0 * self.attributed_fraction:.1f}%")
        return "\n".join(lines)


__all__ = ["SimulationProfiler", "normalize_label", "KERNEL_LABEL",
           "UNLABELLED"]
