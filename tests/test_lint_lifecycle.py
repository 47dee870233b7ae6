"""Tests for the typestate lifecycle verifier (LIF001-LIF005).

Three layers: the on-disk seeded-bug fixtures (each caught in both
directions — the buggy class fires, its fixed twin in the same file
stays silent); inline snippets pinning each rule's firing condition;
and the meta-level guarantees — the live specs in
``repro.core.lifecycles`` validate, LIF003 statically re-derives the
runtime ``RadioError`` guards from the *real* radio spec, and the
shipped ``src`` tree is clean under every LIF rule.
"""

import pathlib
import textwrap

import pytest

from repro.core.lifecycles import (ALL_LIFECYCLE_SPECS,
                                   HANDLE_LIFECYCLE, RADIO_LIFECYCLE,
                                   SINK_LIFECYCLE, SPAN_LIFECYCLE,
                                   LifecycleSpec)
from repro.lint import LintConfig, lint_paths, lint_source

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"
LIF_CODES = ("LIF001", "LIF002", "LIF003", "LIF004", "LIF005")


def lif_findings(source, path="<fixture>", module_path="app/widget.py"):
    findings = lint_source(source, path, LintConfig(),
                           module_path=module_path)
    return [f for f in findings
            if f.rule.startswith("LIF") and not f.suppressed]


#: Shared template: a co-located spec, an exempt resource class, and a
#: holder whose method body each test drops in.
RADIO_TEMPLATE = '''\
from repro.core.lifecycles import LifecycleSpec

SPEC = LifecycleSpec(
    resource="fake-radio",
    module="hw/fake_radio.py",
    class_names=("FakeRadio",),
    acquire=("power_up",),
    release=("power_down",),
    uses=("send", "start_rx"),
    idempotent_release=False,
    boundary=(("on_start", "on_stop"),),
)


class FakeRadio:
    def power_up(self):
        pass

    def power_down(self):
        pass

    def send(self, payload):
        pass

    def start_rx(self):
        pass


class Holder:
    def __init__(self, radio: FakeRadio):
        self._radio = radio
        self._want = False
        self._cold = False

BODY
'''


def holder(body):
    return RADIO_TEMPLATE.replace(
        "BODY", textwrap.indent(textwrap.dedent(body), "    "))


class TestFixtures:
    """Each on-disk fixture is caught in both directions at once: the
    expected rules fire on the buggy classes only, and the fixed twins
    in the same file contribute nothing."""

    CASES = (
        ("leaked_radio", [("LIF001", "LeakyMac")]),
        ("dangling_timer", [("LIF004", "every"),
                            ("LIF004", "after")]),
        ("unbalanced_span", [("LIF001", "phase_close")]),
    )

    @pytest.mark.parametrize("name,expected",
                             CASES, ids=[c[0] for c in CASES])
    def test_fixture(self, name, expected):
        path = FIXTURES / f"{name}.py"
        found = lif_findings(path.read_text(encoding="utf-8"),
                             str(path),
                             module_path=f"tests/fixtures/lint/{name}.py")
        assert [f.rule for f in found] == [rule for rule, _ in expected]
        for finding, (_, fragment) in zip(found, expected):
            assert fragment in finding.message

    def test_leaked_radio_fix_silences(self):
        source = (FIXTURES / "leaked_radio.py").read_text(
            encoding="utf-8")
        fixed = source.replace(
            "self._started = False  # the radio stays in stand-by "
            "forever",
            "self._started = False\n        self._radio.power_down()")
        assert fixed != source
        assert lif_findings(fixed) == []

    def test_unbalanced_span_fix_silences(self):
        source = (FIXTURES / "unbalanced_span.py").read_text(
            encoding="utf-8")
        fixed = source.replace(
            'self._spans.phase_open("tx")  # never paired with '
            'phase_close',
            'self._spans.phase_open("tx")\n'
            '        self._spans.phase_close("tx", 0.0)')
        assert fixed != source
        assert lif_findings(fixed) == []


class TestBoundaryLeak:
    """LIF001: acquire on every start path, leak on a stop path."""

    def test_unconditional_leak_names_witness(self):
        found = lif_findings(holder('''
        def on_start(self):
            self._radio.power_up()

        def on_stop(self):
            self._want = False
        '''))
        assert [f.rule for f in found] == ["LIF001"]
        assert "self._radio" in found[0].message
        assert "power_down" in found[0].message

    def test_conditional_stop_path_leaks(self):
        found = lif_findings(holder('''
        def on_start(self):
            self._radio.power_up()

        def on_stop(self):
            if self._cold:
                return
            self._radio.power_down()
        '''))
        assert [f.rule for f in found] == ["LIF001"]
        assert "self._cold" in found[0].message  # the witness guard

    def test_release_on_every_path_is_clean(self):
        assert lif_findings(holder('''
        def on_start(self):
            self._radio.power_up()

        def on_stop(self):
            if self._cold:
                self._radio.power_down()
                return
            self._radio.power_down()
        ''')) == []

    def test_release_via_helper_discharges(self):
        assert lif_findings(holder('''
        def on_start(self):
            self._radio.power_up()

        def on_stop(self):
            self._teardown()

        def _teardown(self):
            self._radio.power_down()
        ''')) == []

    def test_conditional_acquire_carries_no_obligation(self):
        assert lif_findings(holder('''
        def on_start(self):
            if self._want:
                self._radio.power_up()
                self._radio.power_down()

        def on_stop(self):
            self._want = False
        ''')) == []


class TestDoubleRelease:
    """LIF002: release without acquire on a non-idempotent resource."""

    def test_double_power_down_fires(self):
        found = lif_findings(holder('''
        def reset(self):
            self._radio.power_down()
            self._radio.power_down()
        '''))
        assert [f.rule for f in found] == ["LIF002"]

    def test_reacquire_between_releases_is_clean(self):
        assert lif_findings(holder('''
        def reset(self):
            self._radio.power_down()
            self._radio.power_up()
            self._radio.power_down()
        ''')) == []

    def test_idempotent_release_is_exempt(self):
        source = holder('''
        def reset(self):
            self._radio.power_down()
            self._radio.power_down()
        ''').replace("idempotent_release=False",
                     "idempotent_release=True")
        assert lif_findings(source) == []


class TestUseAfterRelease:
    """LIF003: the static form of the runtime RadioError guards."""

    def test_send_after_power_down_fires(self):
        found = lif_findings(holder('''
        def drain(self):
            self._radio.power_down()
            self._radio.send(b"x")
        '''))
        assert [f.rule for f in found] == ["LIF003"]
        assert "use-after-release" in found[0].message

    def test_maybe_released_does_not_fire(self):
        # Path-sensitivity: only *definitely* released receivers fire.
        assert lif_findings(holder('''
        def drain(self):
            if self._cold:
                self._radio.power_down()
            self._radio.send(b"x")
        ''')) == []

    def test_rederives_real_radio_guard(self, tmp_path):
        """The shipped RADIO_LIFECYCLE spec proves what the runtime
        ``RadioError`` guard in ``hw/radio.py`` checks dynamically."""
        snippet = textwrap.dedent('''\
        class Collector:
            def __init__(self, radio: Nrf2401):
                self._radio = radio

            def shutdown_then_poll(self):
                self._radio.power_down()
                self._radio.start_rx()
        ''')
        target = tmp_path / "collector.py"
        target.write_text(snippet, encoding="utf-8")
        spec_file = ROOT / "src" / "repro" / "core" / "lifecycles.py"
        report = lint_paths([spec_file, target],
                            LintConfig(select=LIF_CODES))
        rules = [f.rule for f in report.findings if not f.suppressed]
        assert rules == ["LIF003"]


class TestUnownedHandles:
    """LIF004: escaping resources with no owner."""

    SCHED_TEMPLATE = '''\
    from repro.core.lifecycles import LifecycleSpec

    SPEC = LifecycleSpec(
        resource="fake-tick",
        module="sim/fake_kernel.py",
        class_names=("FakeKernel",),
        release=("cancel_event",),
        boundary=(("on_start", "on_stop"),),
        handle_factories=("every",),
        reschedule_factories=("at", "after"),
    )


    def cancel_event(entry):
        entry[-1] = None


    class FakeKernel:
        def every(self, period, callback):
            return [period, callback]

        def after(self, delay, callback):
            return [delay, callback]


    class App:
        def __init__(self, sim: FakeKernel):
            self._sim = sim
            self._tick = None

    BODY
    '''

    def sched(self, body):
        template = textwrap.dedent(self.SCHED_TEMPLATE)
        return template.replace(
            "BODY", textwrap.indent(textwrap.dedent(body), "    "))

    def test_discarded_every_fires(self):
        found = lif_findings(self.sched('''
        def on_start(self):
            self._sim.every(1.0, self.poll)

        def on_stop(self):
            pass

        def poll(self):
            pass
        '''))
        assert [f.rule for f in found] == ["LIF004"]
        assert "never be cancelled" in found[0].message

    def test_stored_and_cancelled_is_clean(self):
        assert lif_findings(self.sched('''
        def on_start(self):
            self._tick = self._sim.every(1.0, self.poll)

        def on_stop(self):
            cancel_event(self._tick)

        def poll(self):
            pass
        ''')) == []

    def test_stored_but_never_cancelled_leaks_at_boundary(self):
        found = lif_findings(self.sched('''
        def on_start(self):
            self._tick = self._sim.every(1.0, self.poll)

        def on_stop(self):
            self._tick = self._tick

        def poll(self):
            pass
        '''))
        assert [f.rule for f in found] == ["LIF001"]

    def test_unconditional_self_rearm_fires(self):
        found = lif_findings(self.sched('''
        def poll(self):
            self._sim.after(1.0, self.poll)
        '''))
        assert [f.rule for f in found] == ["LIF004"]
        assert "re-arms itself" in found[0].message

    def test_guarded_self_rearm_is_clean(self):
        assert lif_findings(self.sched('''
        def poll(self):
            if self._tick is None:
                return
            self._sim.after(1.0, self.poll)
        ''')) == []


class TestGuardDecorrelation:
    """LIF005: acquire and release guarded by different conditions."""

    def test_mismatched_guards_fire(self):
        found = lif_findings(holder('''
        def toggle(self):
            if self._want:
                self._radio.power_up()
            if self._cold:
                self._radio.power_down()
        '''))
        assert "LIF005" in [f.rule for f in found]
        assert "decorrelates" in next(
            f.message for f in found if f.rule == "LIF005")

    def test_matching_guards_are_clean(self):
        assert lif_findings(holder('''
        def toggle(self):
            if self._want:
                self._radio.power_up()
            if self._want:
                self._radio.power_down()
        ''')) == []


class TestSpecTables:
    """The declared protocols validate, and malformed ones refuse."""

    def test_all_specs_well_formed(self):
        resources = [spec.resource for spec in ALL_LIFECYCLE_SPECS]
        assert len(resources) == len(set(resources))
        for spec in ALL_LIFECYCLE_SPECS:
            assert spec.module.endswith(".py")
            assert spec.class_names

    def test_radio_spec_matches_runtime_guards(self):
        assert RADIO_LIFECYCLE.uses >= ("send", "start_rx")
        assert not RADIO_LIFECYCLE.idempotent_release
        assert "release" in RADIO_LIFECYCLE.release

    def test_sink_spec_demands_unwind_safety(self):
        assert SINK_LIFECYCLE.acquire_on_construct
        assert SINK_LIFECYCLE.release_on_unwind

    def test_handle_spec_names_factories(self):
        assert "every" in HANDLE_LIFECYCLE.handle_factories
        assert set(HANDLE_LIFECYCLE.reschedule_factories) == \
            {"at", "after"}

    def test_span_spec_is_class_paired(self):
        assert SPAN_LIFECYCLE.class_paired

    def test_empty_class_names_rejected(self):
        with pytest.raises(ValueError):
            LifecycleSpec(resource="x", module="a.py", class_names=())

    def test_boundary_without_release_rejected(self):
        with pytest.raises(ValueError):
            LifecycleSpec(resource="x", module="a.py",
                          class_names=("C",), acquire=("open",),
                          boundary=(("on_start", "on_stop"),))

    def test_overlapping_acquire_release_rejected(self):
        with pytest.raises(ValueError):
            LifecycleSpec(resource="x", module="a.py",
                          class_names=("C",), acquire=("flip",),
                          release=("flip",))

    def test_self_paired_phase_rejected(self):
        with pytest.raises(ValueError):
            LifecycleSpec(resource="x", module="a.py",
                          class_names=("C",),
                          class_paired=(("tick", "tick"),))


class TestTreeIsCleanUnderLifecycle:
    """Meta-test: the shipped src tree carries no lifecycle bugs."""

    @pytest.fixture(scope="class")
    def report(self):
        return lint_paths([ROOT / "src"], LintConfig(select=LIF_CODES))

    def test_src_clean_under_lif_rules(self, report):
        assert report.ok, [
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in report.unsuppressed]

    def test_report_carries_lifecycle_artifacts(self, report):
        artifacts = report.extras["lifecycle"]
        resources = {spec["resource"] for spec in artifacts["specs"]}
        assert {"radio", "timer", "sched-handle", "trace-sink",
                "span"} <= resources
        assert artifacts["boundary_obligations"] >= 1
        assert artifacts["functions_walked"] > 100
