"""Cross-column lockstep rounds: differentials, guards, shared cache.

The compiled engine's top striding tier records one hyperperiod-
aligned round of the whole chip (every DOU step, every column edge,
every comm-headed runner call) at a recurring control signature,
compiles it to a generated round function, and replays it while the
entry checks hold.  These tests pin the hazard cases around that
tier:

* steady periodic streaming must actually engage rounds (counter
  assertions - a silent fall-back to dense ticking is a failure);
* rounds are confined to run-to-completion windows: governed epoch
  windows (``advance``) never take a safepoint, so a governor
  retuning every epoch stays bit-identical without any round, and
  the shared cache is left untouched;
* tiny buffer capacities force backpressure mid-orbit, so recorded
  rounds abort on their occupancy checks and the dense path finishes
  the window - still bit-identical;
* a plan built by one engine is rebound through the shared
  cross-engine cache by a structurally identical fresh engine, which
  must produce the same statistics without ever recording;
* the cost gate records a round only for a signature that recurs
  often enough, with room enough left in the window, to repay the
  recording and its ``compile()`` - and never delays a shared plan;
* evicting the shared cache never lets an engine's cached structural
  fingerprint alias a different structure's plans.

Every case is differential against the reference engine.
"""

import pytest

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control import (
    Governor, StaticGovernor, TransitionModel, run_governed,
)
from repro.eval.engines import build_ddc_stream_chip
from repro.isa.assembler import assemble
from repro.sim import engine as engine_module
from repro.sim.engine import CompiledEngine
from repro.sim.simulator import Simulator


def build_streaming_pair(
    samples: int = 96, capacity: int = 8,
    dividers: tuple = (4, 2),
) -> Chip:
    """Producer column streaming into a consumer column.

    The producer loads, scales, and SENDs one word per iteration; the
    consumer RECVs and accumulates.  Both loops are long enough for
    the periodic steady state to recur at many hyperperiod
    boundaries, which is the shape the lockstep recorder needs.
    """
    producer = assemble(f"""
        tmask 0x1
        movi p0, 0
        loop {samples}
          ld r1, [p0++]
          lsl r1, r1, 1
          send r1
        endloop
        halt
    """, "producer")
    consumer = assemble(f"""
        movi r2, 0
        loop {samples}
          recv r1
          add r2, r2, r1
        endloop
        halt
    """, "consumer")
    to_port = compile_schedule(
        [[Transfer(src=0, dsts=(PORT_POSITION,))]], name="to-port"
    )
    fan_out = compile_schedule(
        [[Transfer(src=PORT_POSITION, dsts=(0, 1, 2, 3))]],
        name="fan-out",
    )
    horizontal = compile_schedule(
        [[Transfer(src=0, dsts=(1,))]], n_positions=2, name="hbus"
    )
    config = ChipConfig(
        reference_mhz=512.0,
        columns=(
            ColumnConfig(divider=dividers[0]),
            ColumnConfig(divider=dividers[1]),
        ),
        buffer_capacity=capacity,
        strict_schedules=False,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, fan_out],
                horizontal_dou=horizontal)
    chip.columns[0].tiles[0].load_memory(
        0, list(range(1, samples + 1))
    )
    return chip


class EveryEpochToggler(Governor):
    """Retunes to a different divider tuple on every epoch boundary."""

    name = "every-epoch-toggler"

    def __init__(self, patterns):
        self.patterns = tuple(tuple(p) for p in patterns)

    def decide(self, telemetry):
        return self.patterns[
            telemetry.epoch_index % len(self.patterns)
        ]


#: Lockstep cost-gate and replay counters in ``profile_snapshot()``.
GATE_COUNTERS = (
    "lockstep_armed", "lockstep_built", "lockstep_declined",
    "lockstep_batches",
)


def _gate_counters(engine) -> dict:
    snapshot = engine.profile_snapshot()
    return {key: snapshot[key] for key in GATE_COUNTERS}


# ----------------------------------------------------------------------
# steady state: rounds engage and stay bit-identical
# ----------------------------------------------------------------------
def test_lockstep_rounds_engage_on_steady_stream():
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    engine = CompiledEngine(build_streaming_pair())
    compiled = engine.run(max_ticks=100_000)
    assert compiled == reference
    snapshot = engine.profile_snapshot()
    assert snapshot["lockstep_batches"] > 0
    assert snapshot["fused_runner_calls"] > 0


# ----------------------------------------------------------------------
# governed epochs: bit-identical retunes, no lockstep rounds
# ----------------------------------------------------------------------
def test_every_epoch_retune_differential():
    """A retune on every epoch boundary lands mid-lap by design.

    Governed epoch windows are too short to repay a round, so the
    compiled engine takes no lockstep safepoint in them at all: the
    orbit batcher, lap vectors, parked columns and runner crediting
    alone must keep every retune bit-identical to the reference.
    """
    patterns = [(4, 2), (8, 4), (2, 2)]
    governed = {}
    engines = {}
    for engine_name in ("reference", "compiled"):
        chip = build_streaming_pair(samples=192)
        driver = (
            CompiledEngine(chip)
            if engine_name == "compiled" else engine_name
        )
        engines[engine_name] = driver
        governed[engine_name] = run_governed(
            chip, EveryEpochToggler(patterns), engine=driver,
            epoch_ticks=128,
            transition_model=TransitionModel(relock_us=0.01),
            max_ticks=400_000,
        )
    reference, compiled = governed["reference"], governed["compiled"]
    assert compiled.stats == reference.stats
    assert compiled.timeline == reference.timeline
    assert compiled.transitions == reference.transitions
    assert compiled.transition_count > 0
    driver = engines["compiled"]
    assert _gate_counters(driver) == dict.fromkeys(GATE_COUNTERS, 0)
    assert not driver._lock_plans


def test_lockstep_confined_to_run_to_completion_windows(monkeypatch):
    """``run`` engages rounds; ``run_governed`` never takes a safepoint.

    The same streaming chip replays rounds when run to completion.
    Governed with epochs long enough to hold many rounds, the engine
    still computes no signature, so it neither probes nor publishes
    shared plans - the cache a previous run filled stays as it was.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    completed = CompiledEngine(build_streaming_pair())
    assert completed.run(max_ticks=100_000) == reference
    assert _gate_counters(completed)["lockstep_batches"] > 0
    published = dict(engine_module._SHARED_LOCK_PLANS)
    assert published

    signatures = []
    original_signature = CompiledEngine._lock_signature

    def counting_signature(self, tick, period):
        signatures.append(tick)
        return original_signature(self, tick, period)

    monkeypatch.setattr(
        CompiledEngine, "_lock_signature", counting_signature,
    )
    governed = {}
    for name in ("reference", "compiled"):
        chip = build_streaming_pair()
        engine = CompiledEngine(chip) if name == "compiled" else name
        governed[name] = run_governed(
            chip, StaticGovernor(), engine=engine, epoch_ticks=512,
            max_ticks=100_000,
        )
    assert governed["compiled"].stats == governed["reference"].stats
    assert governed["compiled"].timeline == governed["reference"].timeline
    assert not signatures
    assert _gate_counters(engine) == dict.fromkeys(GATE_COUNTERS, 0)
    assert engine_module._SHARED_LOCK_PLANS == published


# ----------------------------------------------------------------------
# backpressure mid-orbit: entry checks abort, dense path finishes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [1, 2])
def test_backpressure_mid_orbit_differential(capacity):
    """Tiny buffers block the stream mid-round; stats stay identical.

    At capacity 1 every word must be consumed before the next can
    land, so the DOUs spend most cycles blocked against full
    destinations inside the very rounds the recorder captures.  The
    recorded occupancy checks and validated transfer primitives must
    reproduce every one of those blocked cycles - and rounds must
    still engage, because the blocked pattern itself is periodic.
    """
    reference = Simulator(
        build_streaming_pair(capacity=capacity), engine="reference"
    ).run(max_ticks=200_000)
    chip = build_streaming_pair(capacity=capacity)
    engine = CompiledEngine(chip)
    compiled = engine.run(max_ticks=200_000)
    assert compiled == reference
    # The squeeze really blocked transfers, and rounds still engaged.
    assert chip.columns[0].dou.blocked_cycles > 0
    assert engine.profile_snapshot()["lockstep_batches"] > 0


# ----------------------------------------------------------------------
# shared cross-engine plan cache
# ----------------------------------------------------------------------
def test_shared_plan_cache_rebinds_across_engines(monkeypatch):
    """A fresh engine replays rounds it never recorded.

    Engine one builds and publishes plans; a structurally identical
    engine two must probe them at the signatures' first sighting,
    rebind the structural paths against its own machine objects, and
    still match the reference bit for bit.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    first = CompiledEngine(build_streaming_pair())
    assert first.run(max_ticks=100_000) == reference
    assert engine_module._SHARED_LOCK_PLANS  # plans were published

    probe_hits = []
    original_probe = CompiledEngine._lock_probe

    def counting_probe(self, sig):
        plan = original_probe(self, sig)
        if plan is not None:
            probe_hits.append(sig)
        return plan

    monkeypatch.setattr(CompiledEngine, "_lock_probe", counting_probe)
    second = CompiledEngine(build_streaming_pair())
    compiled = second.run(max_ticks=100_000)
    assert compiled == reference
    assert probe_hits  # the fresh engine really rebound shared plans
    assert second.profile_snapshot()["lockstep_batches"] > 0


def test_shared_plans_do_not_cross_structures(monkeypatch):
    """A different program never hits another structure's plans.

    The fingerprint pins full program text; a chip with a different
    loop count must miss every shared entry and fall back to its own
    recording - and still match its own reference run.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    first = CompiledEngine(build_streaming_pair(samples=96))
    first.run(max_ticks=100_000)
    assert engine_module._SHARED_LOCK_PLANS

    probe_hits = []
    original_probe = CompiledEngine._lock_probe

    def counting_probe(self, sig):
        plan = original_probe(self, sig)
        if plan is not None:
            probe_hits.append(sig)
        return plan

    monkeypatch.setattr(CompiledEngine, "_lock_probe", counting_probe)
    reference = Simulator(
        build_streaming_pair(samples=80), engine="reference"
    ).run(max_ticks=100_000)
    other = CompiledEngine(build_streaming_pair(samples=80))
    assert other.run(max_ticks=100_000) == reference
    assert not probe_hits  # different fingerprint, no cross-hits


def test_cache_eviction_never_reissues_fingerprints(monkeypatch):
    """An engine fingerprinted before an eviction never aliases.

    The intern table is evicted with the shared plans at
    ``_SHARED_LOCK_CAP``, here 1, so the second structure's first
    fingerprint evicts the first's.  The second structure then
    publishes a plan under signatures the first also reaches.  The
    first engine keeps its cached fingerprint, and ids are never
    reissued, so it misses that plan and records its own.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_CAP", 1)
    stale = CompiledEngine(build_streaming_pair(samples=96))
    stale_fp = stale._lock_fingerprint()
    other = CompiledEngine(build_streaming_pair(samples=80))
    other.run(max_ticks=100_000)
    assert stale_fp not in engine_module._FP_INTERN.values()
    assert engine_module._SHARED_LOCK_PLANS

    probe_hits = []
    original_probe = CompiledEngine._lock_probe

    def counting_probe(self, sig):
        plan = original_probe(self, sig)
        if plan is not None:
            probe_hits.append(sig)
        return plan

    monkeypatch.setattr(CompiledEngine, "_lock_probe", counting_probe)
    reference = Simulator(
        build_streaming_pair(samples=96), engine="reference"
    ).run(max_ticks=100_000)
    assert stale.run(max_ticks=100_000) == reference
    assert not probe_hits
    assert stale._lock_fingerprint() == stale_fp
    assert _gate_counters(stale)["lockstep_batches"] > 0


# ----------------------------------------------------------------------
# cost gate: record only what recurs often enough to amortise
# ----------------------------------------------------------------------
def test_gate_declines_signatures_recurring_below_threshold(monkeypatch):
    """Streams too short for the threshold never record a round.

    The first producer iteration fills the pipeline, so with one
    sample more than ``LOCKSTEP_ARM_RECURRENCES`` the steady signature
    is sighted that many times - one recurrence short of arming.  The
    gate declines every recurrence, nothing is recorded or compiled,
    and the dense path alone must still match the reference engine
    bit for bit.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    samples = engine_module.LOCKSTEP_ARM_RECURRENCES + 1
    reference = Simulator(
        build_streaming_pair(samples=samples), engine="reference"
    ).run(max_ticks=100_000)
    engine = CompiledEngine(build_streaming_pair(samples=samples))
    assert engine.run(max_ticks=100_000) == reference
    counters = _gate_counters(engine)
    assert counters["lockstep_declined"] > 0
    assert counters["lockstep_armed"] == 0
    assert counters["lockstep_built"] == 0
    assert counters["lockstep_batches"] == 0
    assert not engine_module._SHARED_LOCK_PLANS


def test_ddc_pipeline_still_engages_lockstep_cold(monkeypatch):
    """The canonical lockstep workload clears the gate on its own.

    With an empty shared cache the engine must record, build, and
    replay its own rounds - the gate prices out the cold fuzz corpus's
    short windows, not a long steady stream.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    reference = Simulator(
        build_ddc_stream_chip(), engine="reference"
    ).run(max_ticks=1_000_000)
    engine = CompiledEngine(build_ddc_stream_chip())
    assert engine.run(max_ticks=1_000_000) == reference
    counters = _gate_counters(engine)
    assert counters["lockstep_built"] > 0
    assert counters["lockstep_batches"] > 0


def test_shared_plans_replay_at_first_sighting_past_the_gate(monkeypatch):
    """A structurally identical engine never waits on the gate.

    The shared cache is probed at a signature's first sighting, before
    any recurrence is counted, so the second engine replays without
    arming a single recording - and replays at least as many rounds as
    the engine that had to earn its plans through the gate.
    """
    monkeypatch.setattr(engine_module, "_SHARED_LOCK_PLANS", {})
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    first = CompiledEngine(build_streaming_pair())
    assert first.run(max_ticks=100_000) == reference
    # The first engine earns its plans: early recurrences are
    # declined, then a recording arms and builds.
    earned = _gate_counters(first)
    assert earned["lockstep_declined"] > 0
    assert earned["lockstep_armed"] >= earned["lockstep_built"] > 0

    probed = []
    original_probe = CompiledEngine._lock_probe

    def recording_probe(self, sig):
        plan = original_probe(self, sig)
        probed.append((sig, plan is not None))
        return plan

    monkeypatch.setattr(CompiledEngine, "_lock_probe", recording_probe)
    second = CompiledEngine(build_streaming_pair())
    assert second.run(max_ticks=100_000) == reference
    hits = [sig for sig, hit in probed if hit]
    assert hits
    # Each hit was the signature's first probe, i.e. its first
    # sighting: a local miss is remembered and never re-probed.
    assert len({sig for sig, _ in probed}) == len(probed)
    counters = _gate_counters(second)
    assert counters["lockstep_armed"] == 0
    assert counters["lockstep_built"] == 0
    assert counters["lockstep_batches"] >= earned["lockstep_batches"] > 0
