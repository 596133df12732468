"""Precompiled runner paths against the generic ``run_edges`` walk.

``ColumnRunner.run_edges`` takes a precompiled straight-line path when
its dynamic tests pass up front; every other call runs the generic
dispatch walk.  Both must leave identical machine state, so each case
here runs one runner with its paths and a twin with them removed.
"""

import itertools

import pytest

from repro.arch.chip import Chip
from repro.arch.column_exec import compile_column_runner
from repro.arch.config import ChipConfig, ColumnConfig
from repro.isa.assembler import assemble

WORKER = """
    tmask 0x1
    movi r2, 0
    loop 5
      recv r1
      addi r2, r2, 1
      addi r2, r2, 2
      send r1
    endloop
    halt
"""

BROADCAST = """
    tmask 0x3
    loop 3
      recv r1
      addi r1, r1, 7
      send r1
    endloop
    halt
"""


def _state(chip):
    column = chip.columns[0]
    ctrl = column.controller
    return (
        ctrl.pc, ctrl.issued, ctrl.control_executed,
        [list(frame) for frame in ctrl._loop_stack],
        column.tile_cycles,
        [
            (
                dict(tile.regs._values), tile.instructions_executed,
                list(tile.read_buffer._words),
                list(tile.write_buffer._words),
                tile.read_buffer.total_popped,
                tile.write_buffer.total_pushed,
            )
            for tile in column.tiles
        ],
    )


def _pair(source, pc, loop_count, reads, room):
    """Two identical chips parked at ``pc`` with the given buffers."""
    program = assemble(source, "traced")
    chips = []
    for _ in range(2):
        chip = Chip(
            ChipConfig(reference_mhz=100.0, columns=(ColumnConfig(divider=1),)),
            programs=[program],
        )
        column = chip.columns[0]
        ctrl = column.controller
        while not ctrl._loop_stack:  # run the prologue into the loop
            column.step_tile_clock()
        ctrl._pending = None
        ctrl.pc = pc
        ctrl._loop_stack[-1][1] = loop_count
        for tile in column.tiles:
            for word in range(reads):
                tile.read_buffer._words.append(10 + word)
            for word in range(tile.write_buffer.capacity - room):
                tile.write_buffer._words.append(word)
        chips.append(chip)
    return chips


@pytest.mark.parametrize("source", [WORKER, BROADCAST], ids=["worker", "broadcast"])
def test_paths_match_the_generic_walk(source):
    program_len = len(assemble(source, "traced").instructions)
    taken = 0
    for pc, loop_count, reads, room, budget in itertools.product(
        range(program_len), (0, 2), (0, 1), (0, 1), (0, 1, 2, 3, 4, 64),
    ):
        traced, generic = _pair(source, pc, loop_count, reads, room)
        fast = compile_column_runner(traced.columns[0])
        slow = compile_column_runner(generic.columns[0])
        slow.traces = (None,) * program_len
        before = _state(traced)
        assert fast.run_edges(budget) == slow.run_edges(budget)
        assert _state(traced) == _state(generic)
        assert (fast.calls, fast.edges) == (slow.calls, slow.edges)
        taken += _state(traced) != before
    assert taken  # the grid really moved the machines


def test_worker_program_compiles_paths():
    chip = Chip(
        ChipConfig(reference_mhz=100.0, columns=(ColumnConfig(divider=1),)),
        programs=[assemble(WORKER, "traced")],
    )
    traces = compile_column_runner(chip.columns[0]).traces
    recv = traces[3]
    assert recv is not None and recv[1] == 3  # recv + two addi
    send = traces[6]
    assert send is not None and send[0] == 2  # send + jump-back
