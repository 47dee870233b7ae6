"""Golden-value regression: the canonical scenarios must reproduce
their pinned outputs exactly (the simulator is deterministic)."""

from repro.analysis.golden import (
    CANONICAL,
    GOLDENS,
    check_goldens,
    compute_goldens,
    format_goldens,
)


class TestGoldens:
    def test_canonical_set_covers_the_feature_matrix(self):
        configs = CANONICAL
        assert {"static", "dynamic"} \
            == {config.mac for config in configs.values()}
        apps = {config.app for config in configs.values()}
        assert apps == {"ecg_streaming", "rpeak"}
        assert any(config.join_protocol for config in configs.values())

    def test_every_canonical_scenario_has_a_golden(self):
        assert set(GOLDENS) == set(CANONICAL)

    def test_goldens_hold(self):
        deviations = check_goldens()
        assert deviations == [], "\n".join(
            ["Golden values drifted — a model change moved pinned "
             "outputs.  If intentional, regenerate with "
             "compute_goldens() and review:"] + deviations)

    def test_format_goldens_is_paste_ready(self):
        text = format_goldens(compute_goldens(("rpeak_static_120ms",)))
        assert text.startswith("GOLDENS: Dict[str, GoldenValue] = {")
        assert "rpeak_static_120ms" in text
        assert text.rstrip().endswith("}")
