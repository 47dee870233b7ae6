"""Tests for the power-state machine verification (SM001-SM005).

A template component (``Widget``: standby -> tx -> cooldown ->
standby) is linted through :func:`repro.lint.lint_source` and mutated
per test case, so each rule is exercised both firing and silent.  The
final classes pin the analyzer against the real hardware models: every
declared ``TransitionSpec`` in ``repro.core.states`` must match the
transitions its class actually encodes, and the radio must honor its
spec at runtime.
"""

import pathlib
import textwrap

import pytest

from repro.core.states import (ALL_TRANSITION_SPECS, ASIC_TRANSITIONS,
                               MCU_TRANSITIONS, RADIO_TRANSITIONS,
                               TransitionSpec)
from repro.hw.frames import Frame, FrameKind
from repro.hw.radio import Nrf2401, RadioError
from repro.lint import LintConfig, lint_source
from repro.phy.channel import Channel

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"

#: A spec-conforming three-state component.  Tests mutate this source
#: with plain string replacement; every replacement target is unique.
WIDGET = '''\
from repro.core.ledger import PowerStateLedger
from repro.core.states import PowerState, PowerStateTable, TransitionSpec

SPEC = TransitionSpec(
    component="widget",
    module="hw/widget.py",
    class_name="Widget",
    initial="standby",
    states=("standby", "tx", "cooldown"),
    transitions=(
        ("standby", "tx"),
        ("tx", "cooldown"),
        ("cooldown", "standby"),
    ),
    busy_flags=(("_tx_busy", ("tx",)),),
)


class Widget:
    def __init__(self, sim):
        table = PowerStateTable([
            PowerState("standby", 0.0),
            PowerState("tx", 0.010),
            PowerState("cooldown", 0.002),
        ])
        self.ledger = PowerStateLedger(sim, "widget", table, 3.0,
                                       initial_state="standby")
        self._tx_busy = False

    def fire(self):
        if self.ledger.state == "standby":
            self._tx_busy = True
            self.ledger.transition("tx")

    def finish(self):
        if self._tx_busy:
            self._tx_busy = False
            self.ledger.transition("cooldown")

    def settle(self):
        if self.ledger.state == "cooldown":
            self.ledger.transition("standby")
'''


def fired(source, module_path="hw/widget.py", config=None):
    findings = lint_source(source, "<fixture>",
                           config or LintConfig(),
                           module_path=module_path)
    return sorted(f.rule for f in findings if not f.suppressed)


class TestCleanMachine:
    def test_template_is_clean(self):
        assert fired(WIDGET) == []

    def test_ledger_guard_narrowing(self):
        # Re-guard finish() on the ledger state instead of the busy
        # flag and drop the busy_flags declaration entirely: the
        # state-compare narrowing alone must keep the machine clean.
        source = WIDGET.replace(
            '    busy_flags=(("_tx_busy", ("tx",)),),\n', "")
        source = source.replace('if self._tx_busy:',
                                'if self.ledger.state == "tx":')
        assert fired(source) == []

    def test_busy_flag_narrowing_is_load_bearing(self):
        # Same machine without the busy_flags declaration: the
        # analyzer can no longer prove finish() runs only in "tx",
        # so the conservative standby -> cooldown edge appears.
        source = WIDGET.replace(
            '    busy_flags=(("_tx_busy", ("tx",)),),\n', "")
        assert fired(source) == ["SM001"]

    def test_sm_assume_annotation(self):
        source = WIDGET.replace(
            '    busy_flags=(("_tx_busy", ("tx",)),),\n', "")
        source = source.replace("def finish(self):",
                                "def finish(self):  # sm: assume(tx)")
        source = source.replace("        if self._tx_busy:\n"
                                "            self._tx_busy = False\n"
                                "            self.ledger.transition"
                                '("cooldown")',
                                "        self._tx_busy = False\n"
                                "        self.ledger.transition"
                                '("cooldown")')
        assert fired(source) == []


class TestSm001Undeclared:
    def test_guarded_undeclared_edge(self):
        source = WIDGET + textwrap.indent(textwrap.dedent('''
            def abort(self):
                if self.ledger.state == "tx":
                    self.ledger.transition("standby")
            '''), "    ")
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert [f.rule for f in findings] == ["SM001"]
        assert "'tx' -> 'standby'" in findings[0].message

    def test_out_of_component_transition(self):
        source = textwrap.dedent('''
            def force_tx(node):
                node.radio.ledger.transition("tx")
            ''')
        assert fired(source, module_path="mac/driver.py") == ["SM001"]

    def test_out_of_package_is_silent(self):
        source = textwrap.dedent('''
            def force_tx(node):
                node.radio.ledger.transition("tx")
            ''')
        assert fired(source, module_path="analysis/foo.py") == []


class TestSm002DeadDeclaration:
    def test_declared_never_encoded(self):
        source = WIDGET.replace(
            '        ("cooldown", "standby"),\n',
            '        ("cooldown", "standby"),\n'
            '        ("tx", "standby"),\n')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert [f.rule for f in findings] == ["SM002"]
        assert "'tx' -> 'standby'" in findings[0].message


class TestSm003Unreachable:
    def test_ghost_state_with_energy_accounting(self):
        source = WIDGET.replace(
            '    states=("standby", "tx", "cooldown"),\n',
            '    states=("standby", "tx", "cooldown", "ghost"),\n')
        source = source.replace(
            '            PowerState("cooldown", 0.002),\n',
            '            PowerState("cooldown", 0.002),\n'
            '            PowerState("ghost", 1.0),\n')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert [f.rule for f in findings] == ["SM003"]
        assert "ghost" in findings[0].message


class TestSm004Structural:
    def test_non_literal_spec(self):
        source = WIDGET.replace(
            '    states=("standby", "tx", "cooldown"),\n',
            '    states=make_states(),\n')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        # The broken spec cascades: the class is treated as unspecced
        # (SM005) and its transition calls as out-of-component
        # (SM001).  The root cause must still be named.
        assert any(f.rule == "SM004"
                   and "not a literal declaration" in f.message
                   for f in findings)

    def test_missing_class(self):
        source = WIDGET.replace('    class_name="Widget",',
                                '    class_name="Gadget",')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        # Widget itself is now an unspecced ledger class -> SM005 too.
        assert sorted(f.rule for f in findings) == ["SM004", "SM005"]
        assert any("Gadget" in f.message for f in findings
                   if f.rule == "SM004")

    def test_no_ledger_constructed(self):
        source = WIDGET.replace(
            '        self.ledger = PowerStateLedger(sim, "widget", '
            'table, 3.0,\n'
            '                                       '
            'initial_state="standby")\n',
            '        self.ledger = None\n')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert "SM004" in [f.rule for f in findings]

    def test_initial_state_mismatch(self):
        source = WIDGET.replace('    initial="standby",',
                                '    initial="tx",')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert "SM004" in [f.rule for f in findings]
        assert any("initial" in f.message for f in findings
                   if f.rule == "SM004")

    def test_state_set_mismatch(self):
        source = WIDGET.replace(
            '            PowerState("cooldown", 0.002),\n',
            '            PowerState("cooldown", 0.002),\n'
            '            PowerState("ghost", 1.0),\n')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert any(f.rule == "SM004"
                   and "power-state table" in f.message
                   for f in findings)

    def test_unresolvable_transition_target(self):
        source = WIDGET.replace(
            '            self.ledger.transition("tx")',
            '            self.ledger.transition(pick_state())')
        findings = lint_source(source, "<fixture>", LintConfig(),
                               module_path="hw/widget.py")
        assert "SM004" in [f.rule for f in findings]


class TestSm005UnspeccedLedger:
    SOURCE = textwrap.dedent('''
        from repro.core.ledger import PowerStateLedger
        from repro.core.states import PowerState, PowerStateTable

        class Widget:
            def __init__(self, sim):
                table = PowerStateTable([PowerState("on", 0.001)])
                self.ledger = PowerStateLedger(sim, "w", table, 3.0,
                                               initial_state="on")
        ''')

    def test_ledger_without_spec(self):
        assert fired(self.SOURCE,
                     module_path="hw/widget.py") == ["SM005"]

    def test_outside_sm_packages_is_silent(self):
        assert fired(self.SOURCE, module_path="analysis/foo.py") == []


class TestTransitionSpecRuntime:
    def test_allows(self):
        assert RADIO_TRANSITIONS.allows("standby", "tx")
        assert not RADIO_TRANSITIONS.allows("power_down", "tx")
        # A same-state change is a re-tag, not a transition: always ok.
        assert RADIO_TRANSITIONS.allows("tx", "tx")

    def test_initial_must_be_known(self):
        with pytest.raises(ValueError, match="initial"):
            TransitionSpec(component="x", module="m", class_name="C",
                           initial="nope", states=("a", "b"),
                           transitions=(("a", "b"),))

    def test_edges_must_reference_known_states(self):
        with pytest.raises(ValueError, match="unknown state"):
            TransitionSpec(component="x", module="m", class_name="C",
                           initial="a", states=("a", "b"),
                           transitions=(("a", "zz"),))

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TransitionSpec(component="x", module="m", class_name="C",
                           initial="a", states=("a", "b"),
                           transitions=(("a", "a"),))


class TestSpecsMatchHardware:
    """The PR's acceptance gate: declared == encoded for every spec."""

    @pytest.fixture(scope="class")
    def graphs(self, src_lint_report):
        report = src_lint_report
        sm = [f for f in report.findings
              if f.rule.startswith("SM") and not f.suppressed]
        assert sm == []
        return report.extras["state_machines"]

    def test_all_specs_extracted(self, graphs):
        assert sorted(graphs) == ["asic", "mcu", "radio"]
        assert len(ALL_TRANSITION_SPECS) == 3

    @pytest.mark.parametrize("spec", [MCU_TRANSITIONS,
                                      RADIO_TRANSITIONS,
                                      ASIC_TRANSITIONS],
                             ids=["mcu", "radio", "asic"])
    def test_declared_matches_encoded(self, graphs, spec):
        graph = graphs[spec.component]
        assert graph["class"] == spec.class_name
        assert graph["initial"] == spec.initial
        assert graph["states"] == sorted(spec.states)
        declared = sorted(list(edge) for edge in spec.transitions)
        assert graph["declared"] == declared
        assert graph["encoded"] == declared


class TestRadioHonorsSpec:
    """Runtime pinning of the POWER_DOWN guards the analyzer forced."""

    def data_frame(self):
        return Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=18, payload={"n": 1})

    def test_start_rx_requires_power_up(self, sim, cal):
        radio = Nrf2401(sim, cal, Channel(sim), "a")
        with pytest.raises(RadioError, match="powered down"):
            radio.start_rx()

    def test_send_requires_power_up(self, sim, cal):
        radio = Nrf2401(sim, cal, Channel(sim), "a")
        with pytest.raises(RadioError, match="powered down"):
            radio.send(self.data_frame())

    def test_normal_path_still_works(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        received = []
        b.on_frame = received.append
        a.power_up()
        b.power_up()
        b.start_rx()
        a.send(self.data_frame())
        sim.run_until(10_000_000)
        assert len(received) == 1


class TestIllegalTransitionFixture:
    def test_seeded_bugs_all_caught(self):
        source = (FIXTURES / "illegal_transition.py").read_text(
            encoding="utf-8")
        findings = lint_source(source,
                               str(FIXTURES / "illegal_transition.py"),
                               LintConfig(),
                               module_path="hw/illegal_transition.py")
        assert sorted(f.rule for f in findings) == [
            "SM001", "SM002", "SM003"]
        by_rule = {f.rule: f for f in findings}
        assert by_rule["SM001"].line == 50   # off -> tx jump
        assert "'off' -> 'tx'" in by_rule["SM001"].message
        assert "'idle' -> 'off'" in by_rule["SM002"].message
        assert "ghost" in by_rule["SM003"].message
