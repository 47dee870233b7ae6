"""Tests for the interprocedural lint layer (PR 9).

Covers the call graph (receiver typing, inheritance dispatch, callback
bindings, hook indirection), the effect-inference pass and every OBS/FPC
rule in both directions, the ``# effect: pure`` pin, the on-disk
seeded-bug fixtures, and the hook audit consumed by
``tools/determinism_check.py --static-obs``.
"""

import pathlib
import textwrap

import pytest

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.callgraph import build_call_graph
from repro.lint.effects import (
    EFFECTS,
    FORBIDDEN_IN_HOOKS,
    analyze_effects,
    audit_hooks,
)
from repro.lint.engine import _collect_context
from repro.lint.fingerprint import analyze_fingerprint, field_type_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"


def fired(source, module_path="mac/m.py", config=None):
    """Unsuppressed rule codes for a snippet in simulation code."""
    findings = lint_source(textwrap.dedent(source), "<fixture>",
                           config or LintConfig(),
                           module_path=module_path)
    return [f.rule for f in findings if not f.suppressed]


def contexts_of(*sources, module_path="mac/m%d.py"):
    """FileContexts for snippets (for direct graph/pass tests)."""
    config = LintConfig()
    out = []
    for index, source in enumerate(sources):
        ctx, parse_findings = _collect_context(
            textwrap.dedent(source), f"<fixture-{index}>", config,
            module_path=module_path % index)
        assert ctx is not None and not parse_findings
        out.append(ctx)
    return out


# A guarded hook body that schedules through the kernel primitive.
IMPURE_GUARD = """
    class Simulator:
        def at(self, when, callback):
            pass

    class Mac:
        def __init__(self, sim):
            self._sim = sim
            self.spans = None

        def _kick(self):
            self._sim.at(1, self._kick)

        def send(self):
            if self.spans is not None:
                self._kick()
"""

PURE_GUARD = """
    class Mac:
        def __init__(self):
            self.spans = None
            self.sent = 0

        def send(self):
            self.sent += 1
            if self.spans is not None:
                total = self.sent + 1
                print(total)
"""


# ----------------------------------------------------------------------
# Call graph: resolution, inheritance, callbacks, indirection
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_typed_receiver_resolves_method(self):
        (ctx,) = contexts_of(IMPURE_GUARD)
        graph = build_call_graph([ctx])
        edges = graph.edges()
        assert ("mac/m0.py::Mac.send", "mac/m0.py::Mac._kick") in edges
        assert ("mac/m0.py::Mac._kick", "mac/m0.py::Simulator.at") in edges

    def test_inherited_method_resolves_through_base(self):
        (ctx,) = contexts_of("""
            class Base:
                def helper(self):
                    pass

            class Child(Base):
                def run(self):
                    self.helper()
        """)
        graph = build_call_graph([ctx])
        assert ("mac/m0.py::Child.run", "mac/m0.py::Base.helper") \
            in graph.edges()

    def test_subclass_override_fans_out(self):
        (ctx,) = contexts_of("""
            class Radio:
                def start(self):
                    pass

            class CC2420(Radio):
                def start(self):
                    pass

            class Node:
                def __init__(self, radio: Radio):
                    self._radio = radio

                def boot(self):
                    self._radio.start()
        """)
        graph = build_call_graph([ctx])
        edges = graph.edges()
        assert ("mac/m0.py::Node.boot", "mac/m0.py::Radio.start") in edges
        assert ("mac/m0.py::Node.boot", "mac/m0.py::CC2420.start") in edges

    def test_callback_binding_resolves_indirect_call(self):
        (ctx,) = contexts_of("""
            class Timer:
                def __init__(self):
                    self.on_fire = None

                def fire(self):
                    self.on_fire()

            class Mac:
                def __init__(self, timer: Timer):
                    timer.on_fire = self._on_timer

                def _on_timer(self):
                    pass
        """)
        graph = build_call_graph([ctx])
        assert "mac/m0.py::Mac._on_timer" \
            in graph.callback_bindings.get("on_fire", set())
        assert ("mac/m0.py::Timer.fire", "mac/m0.py::Mac._on_timer") \
            in graph.edges()

    def test_cross_file_resolution(self):
        kernel, user = contexts_of(
            """
            class Ledger:
                def transition(self, state, tick):
                    pass
            """,
            """
            class Driver:
                def __init__(self, ledger: Ledger):
                    self._ledger = ledger

                def go(self):
                    self._ledger.transition("tx", 0)
            """)
        graph = build_call_graph([kernel, user])
        assert ("mac/m1.py::Driver.go", "mac/m0.py::Ledger.transition") \
            in graph.edges()

    def test_summary_shape(self):
        (ctx,) = contexts_of(IMPURE_GUARD)
        summary = build_call_graph([ctx]).to_summary()
        for key in ("functions", "classes", "call_sites",
                    "resolved_call_sites", "edges"):
            assert key in summary
        assert summary["functions"] >= 4


# ----------------------------------------------------------------------
# Effect inference
# ----------------------------------------------------------------------
class TestEffectInference:
    def effects_table(self, source):
        (ctx,) = contexts_of(source)
        _, extras = analyze_effects([ctx])
        return extras["effects"]["functions"]

    def test_kernel_primitive_seeds_propagate(self):
        table = self.effects_table(IMPURE_GUARD)
        assert "schedules-event" in table["mac/m0.py::Simulator.at"]
        assert "schedules-event" in table["mac/m0.py::Mac._kick"]
        assert "schedules-event" in table["mac/m0.py::Mac.send"]

    def test_rng_draw_detected(self):
        table = self.effects_table("""
            class Backoff:
                def __init__(self, rng):
                    self._rng = rng

                def pick(self):
                    return self._rng.randrange(8)
        """)
        assert "draws-rng" in table["mac/m0.py::Backoff.pick"]

    def test_fresh_local_mutation_is_pure(self):
        table = self.effects_table("""
            class Summary:
                def collect(self):
                    out = []
                    out.append(1)
                    report = {}
                    report["a"] = 2
                    return out, report
        """)
        assert "mac/m0.py::Summary.collect" not in table

    def test_lattice_and_forbidden_set(self):
        assert "io" in EFFECTS
        assert "io" not in FORBIDDEN_IN_HOOKS
        assert set(FORBIDDEN_IN_HOOKS) < set(EFFECTS)

    def test_pure_pin_suppresses_effect(self):
        table = self.effects_table("""
            class Mcu:
                def __init__(self):
                    self._memo = {}

                # effect: pure
                def ticks(self, cycles):
                    self._memo[cycles] = cycles * 2
                    return self._memo[cycles]
        """)
        assert "mac/m0.py::Mcu.ticks" not in table


# ----------------------------------------------------------------------
# OBS001/OBS002/OBS003: hook purity, both directions
# ----------------------------------------------------------------------
class TestObsRules:
    def test_obs002_guarded_call_reaching_scheduler_fires(self):
        assert "OBS002" in fired(IMPURE_GUARD)

    def test_obs002_message_carries_witness_path(self):
        findings = lint_source(textwrap.dedent(IMPURE_GUARD),
                               "<fixture>", LintConfig(),
                               module_path="mac/m.py")
        (finding,) = [f for f in findings if f.rule == "OBS002"]
        assert "Mac._kick" in finding.message
        assert "Simulator.at" in finding.message

    def test_pure_guard_body_is_clean(self):
        assert fired(PURE_GUARD) == []

    def test_obs001_direct_mutation_in_guard_fires(self):
        assert "OBS001" in fired("""
            class Mac:
                def __init__(self):
                    self.spans = None
                    self._queue = []

                def send(self):
                    if self.spans is not None:
                        self._queue.pop()
        """)

    def test_obs001_direct_schedule_in_guard_fires(self):
        codes = fired("""
            class Mac:
                def __init__(self, sim):
                    self._sim = sim
                    self.spans = None

                def send(self):
                    if self.spans is not None:
                        self._sim.at(3, self.send)
        """)
        assert "OBS001" in codes or "OBS002" in codes

    def test_trace_attr_guard_also_audited(self):
        assert "OBS001" in fired("""
            class Mac:
                def __init__(self):
                    self._trace = None
                    self._queue = []

                def send(self):
                    if self._trace is not None:
                        self._queue.pop()
        """)

    def test_guard_inside_obs_module_exempt(self):
        source = """
            class Tracer:
                def __init__(self):
                    self.spans = None
                    self._events = []

                def note(self):
                    if self.spans is not None:
                        self._events.pop()
        """
        assert "OBS001" in fired(source, module_path="mac/t.py")
        assert fired(source, module_path="obs/t.py") == []

    def test_obs003_impure_metrics_hook_fires(self):
        assert "OBS003" in fired("""
            class Simulator:
                def at(self, when, callback):
                    pass

            class Mac:
                def __init__(self, sim):
                    self._sim = sim

                def observe_metrics(self, registry):
                    self._sim.at(1, self.observe_metrics)
        """)

    def test_obs003_pure_metrics_hook_clean(self):
        assert fired("""
            class Mac:
                def __init__(self):
                    self.sent = 0

                def observe_metrics(self, registry):
                    registry.counter("mac.sent").set(self.sent)
        """) == []

    def test_obs002_pin_accepted_as_pure(self):
        assert fired("""
            class Mcu:
                def __init__(self):
                    self._memo = {}

                # effect: pure
                def ticks(self, cycles):
                    self._memo[cycles] = cycles * 2
                    return self._memo[cycles]

            class Mac:
                def __init__(self, mcu: Mcu):
                    self._mcu = mcu
                    self.spans = None

                def send(self):
                    if self.spans is not None:
                        self._mcu.ticks(40)
        """) == []


# ----------------------------------------------------------------------
# FPC001/FPC002: fingerprint coverage, both directions
# ----------------------------------------------------------------------
FPC_MODULE = "net/m.py"


class TestFpcRules:
    def test_fpc001_non_field_attr_read_fires(self):
        assert "FPC001" in fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

                def __post_init__(self):
                    self.debug_gain = 1.0

            def run(config: BanScenarioConfig):
                return config.seed * config.debug_gain
        """, module_path=FPC_MODULE)

    def test_fpc001_field_read_clean(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

            def run(config: BanScenarioConfig):
                return config.seed
        """, module_path=FPC_MODULE) == []

    def test_fpc001_method_access_clean(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

                def derived(self):
                    return self.seed + 1

            def run(config: BanScenarioConfig):
                return config.derived()
        """, module_path=FPC_MODULE) == []

    def test_fpc002_unfingerprinted_config_read_fires(self):
        assert "FPC002" in fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run(tuning: TuningConfig):
                return tuning.gain
        """, module_path=FPC_MODULE)

    def test_fpc002_constructed_in_sim_code_exempt(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run():
                tuning = TuningConfig(gain=2.0)
                return tuning.gain
        """, module_path=FPC_MODULE) == []

    def test_fpc002_closure_member_exempt(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            @dataclass
            class BanScenarioConfig:
                tuning: TuningConfig = None

            def run(config: BanScenarioConfig):
                return config.tuning.gain
        """, module_path=FPC_MODULE) == []

    def test_fpc_silent_outside_salted_packages(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run(tuning: TuningConfig):
                return tuning.gain
        """, module_path="analysis/m.py") == []

    def test_field_type_names_unwraps_containers(self):
        import ast
        ann = ast.parse("Optional[Sequence[NodeSpec]]",
                        mode="eval").body
        assert "NodeSpec" in field_type_names(ann)
        callable_ann = ast.parse("Callable[[int], float]",
                                 mode="eval").body
        assert field_type_names(callable_ann) == ()

    def test_closure_extras_published(self):
        (ctx,) = contexts_of("""
            from dataclasses import dataclass

            @dataclass
            class SubConfig:
                depth: int = 1

            @dataclass
            class BanScenarioConfig:
                sub: SubConfig = None
        """, module_path="net/m%d.py")
        _, extras = analyze_fingerprint([ctx])
        closure = extras["fingerprint"]["closure"]
        assert "BanScenarioConfig" in closure
        assert "SubConfig" in closure


# ----------------------------------------------------------------------
# On-disk seeded-bug fixtures
# ----------------------------------------------------------------------
class TestSeededFixtures:
    def test_impure_span_hook_fixture_caught(self):
        source = (FIXTURES / "impure_span_hook.py").read_text()
        findings = lint_source(source, "impure_span_hook.py",
                               LintConfig(),
                               module_path="mac/impure_span_hook.py")
        codes = sorted(f.rule for f in findings if not f.suppressed)
        assert "OBS001" in codes and "OBS002" in codes
        lines = {f.rule: f.line for f in findings}
        assert lines["OBS002"] < lines["OBS001"]  # at() then pop()

    def test_unfingerprinted_field_fixture_caught(self):
        source = (FIXTURES / "unfingerprinted_field.py").read_text()
        findings = lint_source(
            source, "unfingerprinted_field.py", LintConfig(),
            module_path="net/unfingerprinted_field.py")
        codes = sorted(f.rule for f in findings if not f.suppressed)
        assert codes == ["FPC001", "FPC002"]


# ----------------------------------------------------------------------
# Hook audit (tools/determinism_check.py --static-obs)
# ----------------------------------------------------------------------
class TestHookAudit:
    def test_audit_lists_guard_classes_and_hooks(self):
        ctxs = contexts_of(IMPURE_GUARD, """
            class Injector:
                def observe_metrics(self, registry):
                    pass
        """)
        audit, findings = audit_hooks(ctxs)
        assert audit.guard_classes() == {"Mac"}
        assert any(q.endswith("Injector.observe_metrics")
                   for q in audit.hook_methods)
        assert any(f.rule == "OBS002" for f in findings)

    def test_audit_over_real_tree_matches_runtime_surface(
            self, src_lint_report):
        hooks = src_lint_report.extras["effects"]["hooks"]
        guarded = {g["attr"] for g in hooks["span_guards"]}
        assert "spans" in guarded
        assert hooks["hook_methods"]  # observe_metrics providers exist


# ----------------------------------------------------------------------
# Report schema v3 extras
# ----------------------------------------------------------------------
class TestReportExtras:
    def test_tree_run_publishes_v3_analyses(self, tmp_path):
        src = tmp_path / "proj"
        src.mkdir()
        (src / "m.py").write_text(textwrap.dedent(IMPURE_GUARD))
        report = lint_paths([src], LintConfig())
        assert "call_graph" in report.extras
        effects = report.extras["effects"]
        assert effects["lattice"] == list(EFFECTS)
        assert effects["forbidden_in_hooks"] \
            == sorted(FORBIDDEN_IN_HOOKS)
        assert "fingerprint" in report.extras
        assert "timings" in report.extras
