"""Multi-column pipeline scenarios under coordinated governance."""

import pickle

import pytest

from repro.control.coordinator import CoordinatedGovernor
from repro.control.epochs import run_governed
from repro.errors import ConfigurationError
from repro.workloads.coordinated import (
    PIPELINE_GOVERNORS,
    IndependentSlackGovernor,
    PipelineScenario,
    PipelineStage,
    _PipelineHarness,
    ddc_pipeline_scenario,
    pipeline_governor,
    run_pipeline,
    wlan_rx_pipeline_scenario,
)
from repro.workloads.generate import generate_scenario

FRAMES = 6


@pytest.fixture(scope="module")
def ddc_results():
    scenario = ddc_pipeline_scenario(frames=FRAMES)
    return scenario, {
        kind: run_pipeline(scenario, kind)
        for kind in PIPELINE_GOVERNORS
    }


class TestScenarioShape:
    def test_ddc_spans_four_columns(self):
        scenario = ddc_pipeline_scenario(frames=4)
        assert scenario.n_stages == 4
        chip = scenario.build_chip()
        assert len(chip.columns) == 4
        assert chip.horizontal_dou is not None

    def test_wlan_spans_three_columns(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        assert scenario.n_stages == 3
        assert len(scenario.build_chip().columns) == 3

    def test_static_dividers_are_per_stage(self):
        scenario = ddc_pipeline_scenario(frames=4)
        dividers = scenario.static_dividers()
        assert len(dividers) == 4
        # The heavy CIC stage needs a faster rung than the light gain
        # stage - the paper's rational-clocking claim in provisioning.
        cycles = scenario.stage_cycles
        heavy = cycles.index(max(cycles))
        light = cycles.index(min(cycles))
        assert dividers[heavy] < dividers[light]

    def test_word_flow_scales_are_cached_outside_pickles(self):
        scenario = ddc_pipeline_scenario(frames=4)
        blob = pickle.dumps(scenario)
        assert scenario.exit_scale == scenario.output_scales[-1]
        assert scenario.input_scales is scenario.input_scales
        assert scenario.output_scales is scenario.output_scales
        # Reading the cached properties changes neither the pickled
        # bytes (batch content hashes) nor equality.
        assert pickle.dumps(scenario) == blob
        clone = pickle.loads(blob)
        assert clone == scenario
        assert clone.output_scales == scenario.output_scales

    def test_rejects_zero_stages(self):
        with pytest.raises(ConfigurationError, match="one stage"):
            PipelineScenario(
                name="x", key="x", frame_loads=(8,), stages=(),
            )

    def test_single_stage_builds_without_horizontal_bus(self):
        scenario = PipelineScenario(
            name="x", key="x", frame_loads=(8,),
            stages=(PipelineStage("only", 2),),
        )
        chip = scenario.build_chip()
        assert len(chip.columns) == 1
        assert chip.horizontal_dou is None

    def test_rejects_unaligned_epochs(self):
        with pytest.raises(ConfigurationError, match="divide"):
            PipelineScenario(
                name="x", key="x", frame_loads=(8,),
                stages=(PipelineStage("a", 2), PipelineStage("b", 2)),
                frame_ticks=2048, epoch_ticks=768,
            )

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError, match="no frames"):
            PipelineScenario(
                name="x", key="x", frame_loads=(),
                stages=(PipelineStage("a", 2), PipelineStage("b", 2)),
            )

    def test_rejects_non_positive_stage_work(self):
        with pytest.raises(ConfigurationError, match="positive"):
            PipelineStage("bad", 0)


class TestGovernorFactory:
    def test_builds_every_kind(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        assert pipeline_governor("static", scenario).name == "static"
        independent = pipeline_governor("independent", scenario)
        assert isinstance(independent, IndependentSlackGovernor)
        coordinated = pipeline_governor("coordinated", scenario)
        assert isinstance(coordinated, CoordinatedGovernor)
        assert coordinated.n_stages == scenario.n_stages

    def test_unknown_kind_lists_choices(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        with pytest.raises(ConfigurationError) as excinfo:
            pipeline_governor("thermal", scenario)
        message = str(excinfo.value)
        for kind in PIPELINE_GOVERNORS:
            assert kind in message


class TestPipelineRuns:
    def test_every_policy_clears_the_trace(self, ddc_results):
        scenario, results = ddc_results
        for result in results.values():
            final_tick, final_words = result.produced_samples[-1]
            assert final_words == scenario.total_words
            assert result.deadline_misses == 0

    def test_energy_ordering(self, ddc_results):
        _, results = ddc_results
        assert results["coordinated"].energy_nj \
            < results["independent"].energy_nj \
            < results["static"].energy_nj

    def test_conservation_exact_for_every_policy(self, ddc_results):
        _, results = ddc_results
        for result in results.values():
            assert result.conservation_error <= 1e-9

    def test_static_policy_never_retunes(self, ddc_results):
        _, results = ddc_results
        assert results["static"].transition_count == 0
        assert results["static"].gate_segments == ()

    def test_coordinated_gates_and_wakes(self, ddc_results):
        _, results = ddc_results
        coordinated = results["coordinated"]
        assert coordinated.gate_segments
        assert coordinated.wake_count >= 1
        gated_entries = [
            entry for entry in coordinated.ledger.domains
            if entry.gated
        ]
        assert gated_entries
        # Gated windows are charged at the gated rate: retention
        # leakage only, no dynamic or interconnect energy.
        for entry in gated_entries:
            assert entry.active_nj == 0.0
            assert entry.bus_nj == 0.0
        wakes = [
            t for t in coordinated.ledger.transitions
            if t.name.startswith("wake")
        ]
        assert len(wakes) == coordinated.wake_count
        assert all(t.energy_nj > 0 for t in wakes)

    def test_reference_and_compiled_runs_are_bit_identical(self):
        scenario = wlan_rx_pipeline_scenario(frames=FRAMES)
        for kind in PIPELINE_GOVERNORS:
            compiled = run_pipeline(scenario, kind, engine="compiled")
            reference = run_pipeline(
                scenario, kind, engine="reference"
            )
            assert compiled.run.stats == reference.run.stats
            assert compiled.run.timeline == reference.run.timeline
            assert compiled.run.transitions == reference.run.transitions
            assert compiled.energy_nj == reference.energy_nj

    def test_gating_override_applies_to_any_policy(self):
        scenario = wlan_rx_pipeline_scenario(frames=FRAMES)
        plain = run_pipeline(scenario, "independent")
        gated = run_pipeline(scenario, "independent", gating=True)
        assert plain.gate_segments == ()
        assert gated.gate_segments
        assert gated.energy_nj < plain.energy_nj
        assert gated.conservation_error <= 1e-9


def _fraction_stage_words(scenario, produced, chip) -> tuple:
    """Per-stage words to deadline, in exact Fraction arithmetic."""
    arrived = min(
        scenario.n_frames - 1,
        chip.reference_ticks // scenario.frame_ticks,
    )
    due_head = sum(scenario.frame_loads[:arrived + 1])
    scales = scenario.input_scales
    out_scales = scenario.output_scales
    words = []
    for index, scale in enumerate(scales):
        past = produced * scale / scenario.exit_scale
        past += len(chip.columns[index].h_out) * scale / out_scales[index]
        walk = index
        while scenario.stage_successors[walk]:
            walk = scenario.stage_successors[walk][0]
            if len(scenario.stage_predecessors[walk]) == 1:
                past += len(chip.columns[walk].h_in) \
                    * scale / scales[walk]
            past += len(chip.columns[walk].h_out) \
                * scale / out_scales[walk]
        words.append(max(0, int(due_head * scale) - int(past)))
    return tuple(words)


@pytest.mark.parametrize("index", [6, 26])
def test_integer_credit_walk_matches_fraction_reference(index):
    # Generated cases 6 (an expanding stage ahead of a decimator) and
    # 26 (fork/join) give fractional credit weights and due scales;
    # the harness's integer weights must floor exactly like the
    # Fraction sums at every epoch of a governed run.
    scenario = generate_scenario(11, index).scenario
    assert max(walk[0] for walk in scenario._credit_walks) > 1
    chip = scenario.build_chip()
    harness = _PipelineHarness(scenario, chip)
    published = []

    def extras(chip, epoch):
        signals = harness.telemetry_extras(chip, epoch)
        assert signals["stage_words_to_deadline"] \
            == _fraction_stage_words(scenario, harness.produced, chip)
        published.append(signals["stage_words_to_deadline"])
        return signals

    run_governed(
        chip,
        pipeline_governor("coordinated", scenario),
        epoch_ticks=scenario.epoch_ticks,
        before_epoch=harness.before_epoch,
        telemetry_extras=extras,
    )
    assert any(any(words) for words in published)
