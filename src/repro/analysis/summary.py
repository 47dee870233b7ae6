"""One-shot reproduction report.

:func:`full_report` regenerates the paper's whole evaluation — all four
tables, Figure 4 and the validation error summary — plus the analytic
cross-check and a loss-taxonomy digest, as a single text document.
``repro-ban report --out report.txt`` is the command-line wrapper; the
result is what EXPERIMENTS.md summarises, produced fresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

from ..core.calibration import ModelCalibration
from ..core.losses import RadioEnergyCategory
from ..exec import ScenarioExecutor
from ..net.scenario import BanScenarioConfig
from .closed_form import predict
from .experiments import _resolve, reproduce_all_tables, reproduce_figure4
from .figures import render_figure4
from .validation import validate_all

#: Banner width for section separators.
WIDTH = 72


def _section(title: str) -> str:
    return f"\n{'=' * WIDTH}\n{title}\n{'=' * WIDTH}\n"


def full_report(measure_s: float = 60.0, seed: int = 0,
                calibration: Optional[ModelCalibration] = None,
                executor: Optional[ScenarioExecutor] = None) -> str:
    """Regenerate the complete evaluation as one text report.

    With a parallel ``executor``, the table rows, the figure and the
    taxonomy scenario all route through it; with an instrumented one,
    a telemetry digest closes the report.
    """
    parts = [
        "Reproduction report — Rincon et al., \"OS-Based Sensor Node "
        "Platform and Energy\nEstimation Model for Health-Care Wireless "
        "Sensor Networks\" (DATE 2008)",
        f"Measurement window: {measure_s:.0f} s per scenario "
        f"(paper: 60 s); seed {seed}.",
    ]

    results = reproduce_all_tables(measure_s=measure_s, seed=seed,
                                   calibration=calibration,
                                   executor=executor)
    for table_id in sorted(results):
        parts.append(_section(f"{table_id.upper()}"))
        parts.append(results[table_id].render())

    parts.append(_section("FIGURE 4"))
    figure = reproduce_figure4(measure_s=measure_s, seed=seed,
                               calibration=calibration, executor=executor)
    parts.append(render_figure4(figure))

    parts.append(_section("VALIDATION SUMMARY"))
    parts.append(validate_all(results).render())

    parts.append(_section("ANALYTIC CROSS-CHECK (Table 1 row 1)"))
    config = BanScenarioConfig(mac="static", app="ecg_streaming",
                               num_nodes=5, cycle_ms=30.0,
                               sampling_hz=205.0, measure_s=measure_s,
                               seed=seed)
    if calibration is not None:
        import dataclasses
        config = dataclasses.replace(config, calibration=calibration)
    prediction = predict(config)
    simulated = results["table1"].rows[0]
    parts.append(
        f"closed form: radio {prediction.radio_mj:.1f} mJ, "
        f"uC {prediction.mcu_mj:.1f} mJ\n"
        f"simulated:   radio {simulated.radio_ours_mj:.1f} mJ, "
        f"uC {simulated.mcu_ours_mj:.1f} mJ")

    parts.append(_section("LOSS TAXONOMY (Table 1 row 1, node1)"))
    node = _resolve(executor).run_configs([config])[0].node("node1")
    assert node.losses is not None
    for category in RadioEnergyCategory:
        energy = node.losses.energy_j.get(category, 0.0) * 1e3
        parts.append(f"  {category.value:<16} {energy:8.1f} mJ  "
                     f"({100 * node.losses.fraction(category):5.1f}%)")

    metrics = getattr(executor, "metrics", None)
    if metrics is not None:
        parts.append(_section("TELEMETRY DIGEST"))
        parts.append(_metrics_digest(metrics))

    return "\n".join(parts)


def _metrics_digest(registry: "MetricsRegistry") -> str:
    """A few headline figures from a metrics registry, as text.

    Keeps the report self-describing when the executor ran
    instrumented; the full snapshot is what ``--metrics`` writes.
    """
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    lines = []
    events = counters.get("kernel/-/events_dispatched")
    if events is not None:
        lines.append(f"  kernel events dispatched: {events:,.0f}")
    ran = counters.get("exec/-/scenarios_run")
    if ran is not None:
        lines.append(f"  scenarios run: {ran:.0f}")
    utilization = gauges.get("exec/-/worker_utilization")
    if utilization is not None:
        workers = gauges.get("exec/-/workers", 1.0)
        lines.append(f"  worker utilisation: {100 * utilization:.0f}% "
                     f"of {workers:.0f} worker(s)")
    corrupted = sum(value for key, value in counters.items()
                    if key.startswith("radio/")
                    and key.endswith("/corrupted"))
    lines.append(f"  corrupted frames (all scenarios): {corrupted:,.0f}")
    return "\n".join(lines) if lines else "  (registry empty)"


__all__ = ["full_report"]
