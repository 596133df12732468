"""Bursty rate-varying scenarios for the runtime-DVFS evaluation.

Synchroscalar's static schedules provision every column for the
worst-case input rate; these scenarios make the worst case *rare* so
a feedback governor has something to win:

* :func:`wlan_mcs_scenario` - an 802.11a receiver whose
  modulation-and-coding scheme hops between BPSK and 64-QAM with
  realistic dwell, scaling the per-frame symbol load 8x;
* :func:`mpeg4_scene_scenario` - an MPEG-4 encoder whose motion load
  sits near a quiet baseline and spikes at scene changes, decaying
  over the following frames.

Each scenario is a deterministic frame trace (words per frame period)
executed by a streaming worker column (``recv / work / send`` per
word) behind the column's input port - the voltage-adapting
inter-domain buffer whose fill level the occupancy governor watches.
:func:`run_scenario` wires a scenario and a governor into
:func:`repro.control.epochs.run_governed`, feeds frames at their
arrival ticks, counts deadline misses against per-frame completion,
and charges an :class:`~repro.power.measured.EnergyLedger` epoch by
epoch at the time-varying operating point (transition energy
included, conservation exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control.epochs import GovernedRun, run_governed
from repro.control.governor import (
    Governor,
    OccupancyPIGovernor,
    SlackGovernor,
    StaticGovernor,
    slowest_safe_divider,
)
from repro.control.transitions import TransitionModel
from repro.errors import ConfigurationError, SimulationError
from repro.isa.assembler import assemble
from repro.power.interconnect import CommProfile
from repro.power.measured import EnergyLedger
from repro.power.model import ComponentSpec, PowerModel

__all__ = [
    "BurstyScenario",
    "ScenarioResult",
    "default_governor",
    "energy_segments",
    "mpeg4_scene_scenario",
    "run_scenario",
    "wlan_mcs_scenario",
]


@dataclass(frozen=True)
class BurstyScenario:
    """A rate-varying streaming workload with per-frame deadlines.

    Frame ``i`` arrives at tick ``i * frame_ticks`` and its words must
    be fully processed by ``(i + 1) * frame_ticks``.  ``work_per_word``
    is the unrolled compute the worker performs per word, so a word
    costs ``work_per_word + 2`` tile cycles (RECV + work + SEND).
    ``divider_ladder`` is the discrete operating-point set governors
    move along; ``epoch_ticks`` (a multiple of every ladder
    hyperperiod that also divides ``frame_ticks``) sets the control
    period.
    """

    name: str
    key: str
    frame_loads: tuple
    frame_ticks: int = 2048
    work_per_word: int = 6
    reference_mhz: float = 512.0
    divider_ladder: tuple = (1, 2, 4, 8)
    epoch_ticks: int = 512
    provision_guard: float = 1.15
    port_capacity: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "frame_loads", tuple(int(v) for v in self.frame_loads)
        )
        object.__setattr__(
            self, "divider_ladder",
            tuple(sorted(self.divider_ladder)),
        )
        if not self.frame_loads:
            raise ConfigurationError(f"{self.name}: no frames")
        if min(self.frame_loads) < 1:
            raise ConfigurationError(
                f"{self.name}: every frame needs at least one word"
            )
        for divider in self.divider_ladder:
            if self.frame_ticks % divider != 0 \
                    or self.epoch_ticks % divider != 0:
                raise ConfigurationError(
                    f"{self.name}: frame and epoch ticks must be "
                    f"multiples of ladder divider {divider}"
                )
        if self.frame_ticks % self.epoch_ticks != 0:
            raise ConfigurationError(
                f"{self.name}: epoch_ticks must divide frame_ticks "
                f"so deadlines land on control boundaries"
            )

    @property
    def n_frames(self) -> int:
        """Frames in the trace."""
        return len(self.frame_loads)

    @property
    def total_words(self) -> int:
        """Words across the whole trace."""
        return sum(self.frame_loads)

    @property
    def peak_words(self) -> int:
        """The heaviest frame - what static provisioning sizes for."""
        return max(self.frame_loads)

    @property
    def cycles_per_word(self) -> int:
        """Tile cycles each word costs (RECV + work + SEND)."""
        return self.work_per_word + 2

    def static_divider(self) -> int:
        """Worst-case provisioning: the slowest always-safe divider.

        The largest ladder divider whose clock still processes the
        *peak* frame inside one frame period with the provisioning
        guard - the operating point a startup-only schedule must pick
        for the whole run.  Uses the same
        :func:`~repro.control.governor.slowest_safe_divider` rule the
        deadline governor applies per decision, so baseline and
        governor can never drift apart.
        """
        divider = slowest_safe_divider(
            self.divider_ladder, self.frame_ticks, self.peak_words,
            self.cycles_per_word, self.provision_guard,
        )
        if divider is None:
            raise ConfigurationError(
                f"{self.name}: peak frame of {self.peak_words} words "
                f"cannot be sustained even at divider "
                f"{self.divider_ladder[0]}"
            )
        return divider

    def build_chip(self, divider: int | None = None) -> Chip:
        """A one-column streaming worker chip for this scenario."""
        start = divider if divider is not None else self.static_divider()
        program, dou = _worker_programs(
            self.key, self.total_words, self.work_per_word
        )
        config = ChipConfig(
            reference_mhz=self.reference_mhz,
            columns=(ColumnConfig(divider=start),),
            port_capacity=self.port_capacity,
            strict_schedules=False,
        )
        return Chip(config, programs=[program], dou_programs=[dou])


#: (key, total_words, work_per_word) -> (worker Program, stream
#: DouProgram).  Both are immutable once built, and every chip of a
#: scenario runs the same pair, so repeated runs skip re-assembling.
_WORKER_PROGRAMS: dict = {}


def _worker_programs(key: str, total_words: int, work_per_word: int):
    """The streaming worker's column and DOU programs (cached)."""
    cache_key = (key, total_words, work_per_word)
    programs = _WORKER_PROGRAMS.get(cache_key)
    if programs is None:
        work = "\n".join(
            "  addi r2, r2, 1" for _ in range(work_per_word)
        )
        program = assemble(f"""
            tmask 0x1            ; tile 0 is the stream worker
            movi r2, 0
            loop {total_words}
              recv r1
{work}
              send r1
            endloop
            halt
        """, f"{key}-worker")
        dou = compile_schedule(
            [
                [Transfer(src=PORT_POSITION, dsts=(0,))],
                [Transfer(src=0, dsts=(PORT_POSITION,))],
            ],
            name=f"{key}-stream",
        )
        programs = (program, dou)
        if len(_WORKER_PROGRAMS) >= 64:
            _WORKER_PROGRAMS.clear()
        _WORKER_PROGRAMS[cache_key] = programs
    return programs


def _mcs_loads(frames: int, seed: int) -> tuple:
    """A WLAN modulation-and-coding trace: sticky MCS with hops."""
    rng = np.random.default_rng(seed)
    levels = (12, 24, 48, 96)  # BPSK .. 64-QAM words per frame
    level = 1
    loads = []
    for _ in range(frames):
        roll = rng.random()
        if roll > 0.65:  # hop one MCS step, biased upward
            step = 1 if rng.random() < 0.55 else -1
            level = min(len(levels) - 1, max(0, level + step))
        loads.append(levels[level])
    # Guarantee the trace really exercises the worst case once.
    loads[int(rng.integers(frames // 2, frames))] = levels[-1]
    return tuple(loads)


def wlan_mcs_scenario(
    frames: int = 24, seed: int = 7
) -> BurstyScenario:
    """802.11a receive with runtime modulation changes."""
    return BurstyScenario(
        name="WLAN variable MCS",
        key="wlan_mcs",
        frame_loads=_mcs_loads(frames, seed),
    )


def _scene_loads(frames: int, seed: int) -> tuple:
    """An MPEG-4 motion-load trace with scene-change spikes."""
    rng = np.random.default_rng(seed)
    loads = []
    decay = ()
    for index in range(frames):
        if decay:
            loads.append(decay[0])
            decay = decay[1:]
            continue
        if index > 0 and rng.random() < 0.18:  # scene change
            loads.append(96)
            decay = (64, 40)
            continue
        loads.append(int(20 + rng.integers(0, 9)))  # quiet baseline
    return tuple(loads)


def mpeg4_scene_scenario(
    frames: int = 24, seed: int = 11
) -> BurstyScenario:
    """MPEG-4 encode with scene-dependent motion load."""
    return BurstyScenario(
        name="MPEG-4 scene changes",
        key="mpeg4_scene",
        frame_loads=_scene_loads(frames, seed),
    )


def default_governor(
    kind: str, scenario: BurstyScenario
) -> Governor:
    """Construct one of the evaluated policies for a scenario."""
    ladder = scenario.divider_ladder
    if kind == "static":
        return StaticGovernor((scenario.static_divider(),))
    if kind == "occupancy_pi":
        return OccupancyPIGovernor(ladder)
    if kind == "slack":
        return SlackGovernor(ladder)
    raise ConfigurationError(
        f"unknown governor kind {kind!r}; valid: "
        f"['occupancy_pi', 'slack', 'static']"
    )


@dataclass
class ScenarioResult:
    """A governed scenario run with deadlines and energy settled."""

    scenario: BurstyScenario
    governor: str
    run: GovernedRun
    ledger: EnergyLedger
    deadline_misses: int
    produced_samples: tuple
    conservation_error: float

    @property
    def energy_nj(self) -> float:
        """Total energy including transition charges."""
        return self.ledger.total_nj

    @property
    def transition_nj(self) -> float:
        """Energy charged to rail transitions."""
        return self.ledger.transition_nj

    @property
    def transition_count(self) -> int:
        """Committed operating-point changes."""
        return self.run.transition_count

    @property
    def average_mw(self) -> float:
        """Mean power over the simulated run."""
        time_us = self.run.stats.simulated_time_us
        if time_us <= 0:
            return 0.0
        return self.energy_nj / time_us

    @property
    def idle_fraction(self) -> float:
        """Idle (bubble + stall) share of tile cycles over the epochs.

        Over-provisioned runs burn most of their cycles stalled on an
        empty input buffer; a well-governed run converts that idle
        time into slower, cheaper cycles - the quantity that makes
        the energy comparison legible.
        """
        cycles = sum(
            activity.tile_cycles
            for epoch in self.run.timeline
            for activity in epoch.column_activity
        )
        idle = sum(
            activity.idle
            for epoch in self.run.timeline
            for activity in epoch.column_activity
        )
        return idle / cycles if cycles else 0.0

    def frequency_residency(self, column: int = 0) -> dict:
        """Per-domain frequency residency histogram."""
        return self.run.stats_with_epochs.frequency_residency(column)


class _ScenarioHarness:
    """Feeds frames, drains outputs, and publishes deadline slack."""

    def __init__(self, scenario: BurstyScenario, chip: Chip) -> None:
        self.scenario = scenario
        self.chip = chip
        self.fed_frames = 0
        self.produced = 0
        self.samples: list = []

    def before_epoch(self, chip: Chip, epoch: int) -> None:
        tick = chip.reference_ticks
        self.produced += chip.columns[0].h_out.drain()
        scenario = self.scenario
        while self.fed_frames < scenario.n_frames \
                and self.fed_frames * scenario.frame_ticks <= tick:
            words = scenario.frame_loads[self.fed_frames]
            if len(chip.columns[0].h_in) + words \
                    > chip.columns[0].h_in.capacity:
                raise SimulationError(
                    f"{scenario.name}: input port overflow at tick "
                    f"{tick} - raise port_capacity or fix the governor"
                )
            chip.feed_column(0, [1 + (w % 97) for w in range(words)])
            self.fed_frames += 1
        self.samples.append((tick, self.produced))

    def telemetry_extras(self, chip: Chip, epoch: int) -> dict:
        scenario = self.scenario
        tick = chip.reference_ticks
        frame_ticks = scenario.frame_ticks
        arrived = min(
            scenario.n_frames - 1, tick // frame_ticks
        )
        due_words = sum(scenario.frame_loads[:arrived + 1])
        next_deadline = (arrived + 1) * frame_ticks
        return {
            "words_to_deadline": max(0, due_words - self.produced),
            "ticks_to_deadline": max(1, next_deadline - tick),
            "cycles_per_word": float(scenario.cycles_per_word),
        }

    def finish(self, run: GovernedRun) -> None:
        """Account the words still in flight at halt time.

        Words the worker SENT before halting only reach the output
        port during the post-halt bus drain, so they are credited at
        the drain's end tick - the conservative timestamp: a deadline
        falling between halt and drain-end counts them as late.
        """
        while not self.chip.columns[0].h_out.is_empty:
            self.chip.columns[0].h_out.pop()
            self.produced += 1
        self.samples.append(
            (run.stats.reference_ticks, self.produced)
        )

    def deadline_misses(self) -> int:
        """Frames whose words were not all out by their deadline."""
        scenario = self.scenario
        samples = self.samples  # taken at non-decreasing ticks
        misses = 0
        due = 0
        produced_by_deadline = 0
        cursor = 0
        for index, words in enumerate(scenario.frame_loads):
            due += words
            deadline = (index + 1) * scenario.frame_ticks
            while cursor < len(samples) \
                    and samples[cursor][0] <= deadline:
                produced_by_deadline = max(
                    produced_by_deadline, samples[cursor][1]
                )
                cursor += 1
            if produced_by_deadline < due:
                misses += 1
        return misses


def energy_segments(run: GovernedRun, name: str = "run") -> list:
    """Tile a governed run's tick span into chargeable segments.

    Returns ``(dividers, duration_ticks, column_activity | None)``
    triples: one per epoch window, plus a final activity-free segment
    for the post-halt bus drain at the last committed clock.  The
    *coverage* invariant is checked here - the segments must tile the
    run's full reference-tick span exactly, so a dropped epoch or
    drain window raises :class:`~repro.errors.SimulationError` instead
    of silently undercounting energy.  Both the single-column DVFS
    charger and the coordinated pipeline charger build on this.
    """
    segments = [
        (epoch.dividers, epoch.duration_ticks, epoch.column_activity)
        for epoch in run.timeline
    ]
    covered = run.timeline[-1].end_tick if run.timeline else 0
    drain = run.stats.reference_ticks - covered
    if drain > 0 and run.timeline:
        segments.append((run.timeline[-1].dividers, drain, None))
    tiled = sum(ticks for _, ticks, _ in segments)
    if tiled != run.stats.reference_ticks:
        raise SimulationError(
            f"{name}: energy segments cover {tiled} of "
            f"{run.stats.reference_ticks} reference ticks - the "
            f"ledger would undercount"
        )
    return segments


def _charge_ledger(
    scenario: BurstyScenario,
    run: GovernedRun,
    model: PowerModel,
) -> tuple:
    """EnergyLedger over the time-varying timeline; exact by epoch.

    Each (epoch, column) window is charged at that epoch's frequency
    and minimum rail with the epoch's measured busy split and bus
    density; the post-halt drain is charged idle at the final
    operating point; every rail transition adds its charge energy.

    Two checks guard the accounting: the coverage invariant enforced
    by :func:`energy_segments`, and the returned conservation error,
    which re-accumulates sum(power x time) + transitions alongside
    the ledger and so verifies the ledger's own term-splitting (the
    window coverage is what makes the first check trustworthy).
    """
    ledger = EnergyLedger()
    expected = 0.0
    reference_mhz = scenario.reference_mhz
    segments = energy_segments(run, scenario.name)
    for index, (dividers, ticks, activity) in enumerate(segments):
        time_us = ticks / reference_mhz
        for column, divider in enumerate(dividers):
            delta = activity[column] if activity is not None else None
            spec = ComponentSpec(
                name=f"seg{index}.col{column}",
                n_tiles=run.stats.column(column).n_tiles,
                frequency_mhz=reference_mhz / divider,
                comm=CommProfile(
                    words_per_cycle=(
                        delta.words_per_cycle if delta else 0.0
                    ),
                ),
            )
            power = model.component_power(spec)
            ledger.charge(
                power, time_us,
                busy_fraction=delta.busy_fraction if delta else 0.0,
            )
            expected += power.total_mw * time_us
    for record in run.transitions:
        ledger.charge_transition(record.label, record.energy_nj)
        expected += record.energy_nj
    if expected > 0:
        error = abs(ledger.total_nj - expected) / expected
    else:
        error = abs(ledger.total_nj)
    return ledger, error


_DEFAULT_TRANSITION_MODEL: TransitionModel | None = None
_DEFAULT_POWER_MODEL: PowerModel | None = None


def _default_transition_model() -> TransitionModel:
    """Shared paper-default transition model.

    Both defaults are pure evaluators over module-constant technology
    parameters (the stateful part, ``TransitionEngine``, is built per
    run), so every scenario run can reuse one instance instead of
    refitting the voltage curve and wire model each call.
    """
    global _DEFAULT_TRANSITION_MODEL
    if _DEFAULT_TRANSITION_MODEL is None:
        _DEFAULT_TRANSITION_MODEL = TransitionModel()
    return _DEFAULT_TRANSITION_MODEL


def _default_power_model() -> PowerModel:
    """Shared paper-default power model (see above)."""
    global _DEFAULT_POWER_MODEL
    if _DEFAULT_POWER_MODEL is None:
        _DEFAULT_POWER_MODEL = PowerModel()
    return _DEFAULT_POWER_MODEL


def run_scenario(
    scenario: BurstyScenario,
    governor: Governor | str,
    engine: str = "auto",
    transition_model: TransitionModel | None = None,
    model: PowerModel | None = None,
    max_ticks: int | None = None,
) -> ScenarioResult:
    """Run one scenario under one governor; settle deadlines + energy."""
    if isinstance(governor, str):
        governor = default_governor(governor, scenario)
    if transition_model is None:
        transition_model = _default_transition_model()
    if model is None:
        model = _default_power_model()
    chip = scenario.build_chip()
    harness = _ScenarioHarness(scenario, chip)
    budget = max_ticks if max_ticks is not None else (
        (scenario.n_frames + 8) * scenario.frame_ticks * 4
    )
    run = run_governed(
        chip,
        governor,
        transition_model=transition_model,
        engine=engine,
        epoch_ticks=scenario.epoch_ticks,
        max_ticks=budget,
        before_epoch=harness.before_epoch,
        telemetry_extras=harness.telemetry_extras,
    )
    harness.finish(run)
    if harness.produced != scenario.total_words:
        raise SimulationError(
            f"{scenario.name}: produced {harness.produced} of "
            f"{scenario.total_words} words - the worker and trace "
            f"disagree"
        )
    ledger, error = _charge_ledger(scenario, run, model)
    return ScenarioResult(
        scenario=scenario,
        governor=governor.name,
        run=run,
        ledger=ledger,
        deadline_misses=harness.deadline_misses(),
        produced_samples=tuple(harness.samples),
        conservation_error=error,
    )
