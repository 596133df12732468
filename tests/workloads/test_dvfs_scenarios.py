"""Bursty single-column scenarios on the one-stage pipeline harness."""

import pytest

from repro.arch.column_exec import compile_column_runner
from repro.errors import ConfigurationError
from repro.workloads.coordinated import PipelineScenario, PipelineStage
from repro.workloads.dvfs import (
    mpeg4_scene_scenario,
    run_scenario,
    wlan_mcs_scenario,
)

FRAMES = 8  # short traces keep the suite fast


@pytest.fixture(scope="module")
def wlan():
    return wlan_mcs_scenario(frames=FRAMES)


@pytest.fixture(scope="module")
def mpeg4():
    return mpeg4_scene_scenario(frames=FRAMES)


class TestScenarioShape:
    def test_traces_are_deterministic(self):
        assert wlan_mcs_scenario().frame_loads \
            == wlan_mcs_scenario().frame_loads
        assert mpeg4_scene_scenario().frame_loads \
            == mpeg4_scene_scenario().frame_loads
        assert wlan_mcs_scenario(seed=1).frame_loads \
            != wlan_mcs_scenario(seed=2).frame_loads

    def test_traces_are_really_bursty(self, wlan, mpeg4):
        for scenario in (wlan, mpeg4):
            assert scenario.peak_words >= 3 * min(scenario.frame_loads)

    def test_static_divider_sustains_the_peak(self, wlan):
        (divider,) = wlan.static_dividers()
        (cycles_per_word,) = wlan.stage_cycles
        budget = wlan.frame_ticks / divider
        assert budget >= wlan.peak_words * cycles_per_word
        # and the next slower rung would not make it
        ladder = wlan.divider_ladder
        slower = [d for d in ladder if d > divider]
        if slower:
            assert wlan.frame_ticks / slower[0] \
                < wlan.provision_guard * wlan.peak_words \
                * cycles_per_word

    def test_chips_share_programs_and_runner_tables(self, wlan, mpeg4):
        first, second = wlan.build_chip(), wlan.build_chip()
        assert (first.columns[0].controller.program
                is second.columns[0].controller.program)
        assert first.columns[0].dou.program is second.columns[0].dou.program
        # The runner's dispatch table is compiled once per program ...
        table = compile_column_runner(first.columns[0]).dispatch
        assert compile_column_runner(second.columns[0]).dispatch is table
        # ... and never handed to a different program.
        other = compile_column_runner(mpeg4.build_chip().columns[0])
        assert other.dispatch is not table

    def test_epoch_and_frame_alignment_is_validated(self):
        worker = (PipelineStage("worker", 6),)
        with pytest.raises(ConfigurationError, match="multiple"):
            PipelineScenario(
                name="bad", key="bad", frame_loads=(4,), stages=worker,
                frame_ticks=100, epoch_ticks=100,
                divider_ladder=(1, 8),
            )
        with pytest.raises(ConfigurationError, match="divide"):
            PipelineScenario(
                name="bad", key="bad", frame_loads=(4,), stages=worker,
                frame_ticks=2048, epoch_ticks=513,
                divider_ladder=(1,),
            )


class TestHarness:
    def test_every_word_is_processed(self, wlan):
        result = run_scenario(wlan, "static")
        assert result.produced_samples[-1][1] == wlan.total_words
        assert result.deadline_misses == 0

    def test_all_governors_meet_deadlines(self, mpeg4):
        for kind in ("static", "occupancy_pi", "slack"):
            result = run_scenario(mpeg4, kind)
            assert result.deadline_misses == 0, kind

    def test_feedback_governors_beat_static(self, wlan):
        static = run_scenario(wlan, "static")
        for kind in ("occupancy_pi", "slack"):
            governed = run_scenario(wlan, kind)
            assert governed.energy_nj < static.energy_nj, kind

    def test_energy_conservation_is_exact(self, wlan):
        for kind in ("static", "occupancy_pi", "slack"):
            result = run_scenario(wlan, kind)
            assert result.conservation_error <= 1e-9
            # every transition charge really landed in the ledger
            assert result.ledger.transition_nj == pytest.approx(
                sum(t.energy_nj for t in result.run.transitions)
            )

    def test_static_governor_never_transitions(self, wlan):
        result = run_scenario(wlan, "static")
        assert result.transition_count == 0
        assert result.transition_nj == 0.0

    def test_residency_spans_the_ladder_under_slack(self, wlan):
        result = run_scenario(wlan, "slack")
        residency = result.frequency_residency(0)
        assert len(residency) >= 2  # it really moved around
        assert sum(residency.values()) \
            == result.run.stats.reference_ticks

    def test_engines_agree_on_a_governed_scenario(self, wlan):
        reference = run_scenario(wlan, "slack", engine="reference")
        compiled = run_scenario(wlan, "slack", engine="compiled")
        assert compiled.run.stats == reference.run.stats
        assert compiled.run.timeline == reference.run.timeline
        assert compiled.energy_nj == reference.energy_nj
        assert compiled.deadline_misses == reference.deadline_misses
