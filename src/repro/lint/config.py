"""Lint configuration: the rule scopes, and the one run-time choice.

Every scope a rule patrols is a module constant below, versioned with
the code it polices; widening or narrowing one is a reviewed code
change, not a settings edit.  The only run-time choice is which rules
run (:attr:`LintConfig.select`, the CLI's ``--select``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Module-path suffixes allowed to read the wall clock (DET002).  All
#: four only *time* the host (profiling / worker-utilisation metrics);
#: no reading ever feeds a simulated quantity, which stays tick-derived.
DET002_ALLOW: Tuple[str, ...] = (
    "obs/profiler.py",   # the profiler aggregates perf_counter spans
    "sim/kernel.py",     # run_until dispatch-rate + observed loop
    "exec/executor.py",  # batch/scenario wall-clock metrics
    "lint/engine.py",    # per-analysis lint timings for the CI report
)

#: Packages where a set-iteration order could reach the event queue or
#: a ledger (DET003).
DET003_PACKAGES: Tuple[str, ...] = ("sim", "mac", "net", "faults")

#: Identifier fragments FLT001 treats as energy/time-like (matched
#: case-insensitively with ``re.search``).
FLT001_PATTERN = (
    "energy|joule|charge|_mj|_uj|_nj|_mah|wall|elapsed|duration"
    "|_seconds|seconds_|lifetime"
)

#: Modules (path prefixes/suffixes) whose *public* float constants must
#: carry a unit suffix or a ``# unit:`` annotation (UNI004): the
#: calibration tables and published paper numbers the whole energy
#: model is seeded from.
UNITS_CONST_MODULES: Tuple[str, ...] = (
    "core/calibration.py", "data/paper_tables.py", "hw/",
)

#: Packages patrolled for PowerStateLedger classes without a declared
#: TransitionSpec (SM005) and for ``transition()`` calls driven from
#: outside the owning component (SM001).
SM_PACKAGES: Tuple[str, ...] = ("hw", "mac")

#: Modules (path prefixes/suffixes) holding *observability* state: the
#: effect pass treats mutations of objects defined here as benign —
#: spans, metrics and traces may mutate themselves, never the
#: simulation.
EFFECTS_OBS_MODULES: Tuple[str, ...] = ("obs/", "sim/trace.py")

#: Attribute names whose ``is not None`` guards mark observability
#: hook sites (``if self.spans is not None: ...``).
EFFECTS_HOOK_ATTRS: Tuple[str, ...] = ("spans", "_trace")

#: Method names implementing the pull-based metrics hook protocol
#: (OBS003).
EFFECTS_HOOK_METHODS: Tuple[str, ...] = ("observe_metrics",)

#: Root classes of the cache-fingerprint closure (FPC001/FPC002).
FPC_ROOTS: Tuple[str, ...] = ("BanScenarioConfig", "MultiBanScenario")

#: Class-name pattern selecting config-shaped dataclasses for FPC002.
FPC_PATTERN = "(Config|Spec|Plan)$"

#: Packages whose code counts as "simulation code" for FPC reads and
#: derived-config construction: every package that can influence a
#: simulated energy figure.
FPC_PACKAGES: Tuple[str, ...] = (
    "core", "sim", "tinyos", "hw", "phy", "mac", "apps", "signals",
    "net", "faults",
)


@dataclass(frozen=True)
class LintConfig:
    """The run-time choice of a lint run: which rules to run."""

    #: Rule codes to run; ``None`` means every registered rule.
    select: Optional[Tuple[str, ...]] = None

    def rule_enabled(self, code: str) -> bool:
        """Whether ``code`` is selected for this run."""
        return self.select is None or code in self.select


__all__ = [
    "DET002_ALLOW",
    "DET003_PACKAGES",
    "EFFECTS_HOOK_ATTRS",
    "EFFECTS_HOOK_METHODS",
    "EFFECTS_OBS_MODULES",
    "FLT001_PATTERN",
    "FPC_PACKAGES",
    "FPC_PATTERN",
    "FPC_ROOTS",
    "LintConfig",
    "SM_PACKAGES",
    "UNITS_CONST_MODULES",
]
