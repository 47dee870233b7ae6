"""Parallel scenario execution.

This package is the batch layer between the single-scenario simulator
(:mod:`repro.net.scenario`) and the analysis code that evaluates many
independent scenarios (tables, sweeps, replications, sensitivity,
multi-BAN studies):

* :mod:`repro.exec.executor` — :class:`ScenarioExecutor` fans
  independent :class:`~repro.net.scenario.BanScenarioConfig`s out over
  worker processes, returning results in submission order so output is
  bit-identical to the sequential path.  The first scenario that
  raises fails the batch with its own exception.
* :mod:`repro.exec.cache` — :func:`config_fingerprint`, the canonical
  encoding that ``tools/determinism_check.py`` and the end-to-end
  benchmark hash scenario results with.

Every analysis entry point accepts an ``executor`` (and the CLI
exposes ``--jobs N``) that routes through here.
"""

from .cache import Uncacheable, config_fingerprint
from .executor import ScenarioExecutor

__all__ = [
    "ScenarioExecutor",
    "Uncacheable",
    "config_fingerprint",
]
