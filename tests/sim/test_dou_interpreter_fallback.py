"""The generic-interpreter fallback of ``Dou.step`` is observable.

Every DOU counts the cycles it runs through the generic interpreter
(``Dou.interpreted_cycles``), and a compiled engine reports the
cycles its DOUs interpreted as ``dou_interpreted_cycles`` in
``profile_snapshot()``.  Benchmark traffic - governed pipelines and
the governed burst, backpressure included - compiles completely; a
schedule that starves one of two drives is the interpreter's.
"""

import pytest

from repro.arch.buffers import CommBuffer
from repro.arch.bus import SegmentedBus
from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou import Dou, DouProgram, DouState
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.eval import engines
from repro.eval.coordinated import GOVERNORS, SCENARIOS
from repro.isa.assembler import assemble
from repro.sim import engine as engine_module
from repro.sim.engine import CompiledEngine
from repro.sim.simulator import Simulator
from repro.workloads.coordinated import run_pipeline


def _two_drive_state():
    # Positions 0 and 1 each drive their own split into position 2.
    return DouState(
        closed=frozenset({(0, 0), (0, 1), (1, 1)}),
        drives=((0, 0), (1, 1)),
        captures=((2, 0), (2, 1)),
    )


def test_partial_starvation_is_interpreted():
    bus = SegmentedBus("bus", n_positions=3, n_splits=2)
    writes = {i: CommBuffer(f"w{i}") for i in range(3)}
    reads = {i: CommBuffer(f"r{i}") for i in range(3)}
    dou = Dou(DouProgram(states=(_two_drive_state(),)), bus, writes,
              reads, strict=False)
    assert dou._plans[0] is not None
    writes[0].push(5)  # position 1 stays empty
    assert dou.step() == 1
    assert dou.interpreted_cycles == 1
    writes[0].push(6)
    writes[1].push(7)
    assert dou.step() == 2  # both sources loaded: the compiled plan
    assert dou.interpreted_cycles == 1


def test_backpressure_is_not_interpreted():
    bus = SegmentedBus("bus", n_positions=3, n_splits=2)
    writes = {i: CommBuffer(f"w{i}") for i in range(3)}
    reads = {i: CommBuffer(f"r{i}", capacity=1) for i in range(3)}
    dou = Dou(DouProgram(states=(_two_drive_state(),)), bus, writes,
              reads, strict=False)
    for word in (5, 6):
        writes[0].push(word)
        writes[1].push(word + 2)
    assert dou.step() == 1  # one room for two captures
    assert dou.step() == 0  # no room at all: a blocked cycle
    assert dou.blocked_cycles == 1
    assert dou.interpreted_cycles == 0


def _half_starved_chip() -> Chip:
    """Tiles 0 and 1 both drive the port; only tile 0 ever sends."""
    producer = assemble("""
        tmask 0x1
        movi r1, 3
        loop 12
          send r1
        endloop
        halt
    """, "producer")
    consumer = assemble("""
        halt
    """, "consumer")
    to_port = compile_schedule(
        [[Transfer(src=0, dsts=(PORT_POSITION,)),
          Transfer(src=1, dsts=(PORT_POSITION,))]],
        name="two-to-port",
    )
    config = ChipConfig(
        reference_mhz=512.0,
        columns=(ColumnConfig(divider=2), ColumnConfig(divider=2)),
        strict_schedules=False,
    )
    return Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, DouProgram.idle()])


def test_engine_reports_interpreted_cycles():
    chip = _half_starved_chip()
    engine = CompiledEngine(chip)
    engine.run(max_ticks=2_000)
    assert engine.profile_snapshot()["dou_interpreted_cycles"] > 0
    engine.reset_profile()
    assert engine.profile_snapshot()["dou_interpreted_cycles"] == 0
    reference = Simulator(_half_starved_chip(), engine="reference")
    assert reference.run(max_ticks=2_000) == \
        CompiledEngine(_half_starved_chip()).run(max_ticks=2_000)


def _compiled_profiles(run):
    registry: list = []
    engine_module.PROFILE_REGISTRY = registry
    try:
        run()
    finally:
        engine_module.PROFILE_REGISTRY = None
    assert registry
    return [engine.profile_snapshot() for engine in registry]


@pytest.mark.parametrize("key", ["ddc_pipeline", "wlan_rx_pipeline"])
@pytest.mark.parametrize("governor", GOVERNORS)
def test_governed_pipelines_never_interpret(key, governor):
    scenario = SCENARIOS[key](frames=4)
    profiles = _compiled_profiles(
        lambda: run_pipeline(scenario, governor, engine="compiled")
    )
    assert all(p["dou_interpreted_cycles"] == 0 for p in profiles)


def test_governed_burst_never_interprets(monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    _, runner = engines.WORKLOADS["governed_burst"]
    profiles = _compiled_profiles(lambda: runner("compiled"))
    assert all(p["dou_interpreted_cycles"] == 0 for p in profiles)
