"""Determinism & simulation-safety lint suite (``repro.lint``).

The paper's headline claim is an energy estimate within ~4 % of
hardware; this reproduction's equivalent claim is *bit-exact
determinism* — repeat runs and the "merged parallel metrics equal
sequential" invariant both silently break if simulation code starts
drawing from the global RNG, reading the wall clock, or iterating a
``set`` where the order can reach the event queue.  ``repro.lint`` turns those reviewer
rules into named, machine-checked ones:

========  ==========================================================
Code      Rule
========  ==========================================================
DET001    no global/module-level RNG draws (seeded ``random.Random``
          / NumPy ``Generator`` instances stay legal)
DET002    no wall-clock reads outside the allowlist (``DET002_ALLOW``)
DET003    no iteration over sets in order-sensitive packages
FLT001    no float ``==``/``!=`` on energy/time-like values
EXC001    no bare or overbroad ``except`` without a reasoned waiver
MUT001    no mutable default arguments
========  ==========================================================

On top of the per-line rules sit the *flow-sensitive tree analyses*
(:mod:`repro.lint.dataflow` holds the shared machinery):

========  ==========================================================
Code      Analysis
========  ==========================================================
UNI001-4  dimensional checking of the energy model: units are seeded
          from identifier suffixes (``_s``, ``_ma``, ``_mj``...) and
          ``# unit: <expr>`` annotations, then propagated through
          assignments, arithmetic and conversion calls
          (:mod:`repro.lint.units`)
SM001-5   power-state machines encoded in the hardware models are
          verified against the ``TransitionSpec`` tables declared in
          :mod:`repro.core.states`
          (:mod:`repro.lint.statemachine`)
RNG001-2  RNG provenance: every constructed generator must be seeded
          from a value that derives from a seed parameter or a
          Simulator-owned stream (:mod:`repro.lint.rngprov`)
OBS001-3  observability hooks cannot touch simulation state
          (:mod:`repro.lint.effects`)
FPC001-2  every config field simulation code reads is covered by
          ``config_fingerprint`` (:mod:`repro.lint.fingerprint`)
LIF001-5  declared resource protocols (acquire/release pairing) hold
          on every path (:mod:`repro.lint.lifecycle`)
SUP002    waivers whose rule no longer fires on the waived line are
          themselves findings (stale-waiver detection)
========  ==========================================================

Run it as ``repro-ban lint src`` or ``python -m repro.lint src``.
Findings are suppressed per line with a *reasoned* comment::

    except Exception as exc:  # lint: allow(EXC001): re-raised annotated

A suppression without a reason does not suppress — it is itself
reported (SUP001), and one whose rule has stopped firing goes stale
(SUP002).  Each rule's scope (which files or packages it patrols) is a
constant in :mod:`repro.lint.config`; the only run-time choice is
which rules run (``--select``).  ``docs/static_analysis.md`` holds
the catalog and the suppression policy.  The dynamic counterpart
proving these static rules guard a real invariant is
``tools/determinism_check.py``.
"""

from __future__ import annotations

from .config import LintConfig
from .engine import FileContext, Finding, LintReport, lint_paths, lint_source
from .report import render_json, render_text
from .rules import ANALYSIS_RULES, RULES, all_rule_codes

__all__ = [
    "ANALYSIS_RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "all_rule_codes",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
