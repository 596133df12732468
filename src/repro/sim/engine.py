"""Pluggable simulation engines.

The reference clock is the only time base in Synchroscalar, and the
single-PLL/integer-divider clock tree makes the whole chip's activity
pattern periodic in the clock hyperperiod (Section 2.4).  This module
exploits that in two interchangeable engines behind one interface:

``ReferenceEngine``
    The tick-accurate stepper: one Python iteration per reference
    tick, with tracing folded in as an observer hook so traced and
    untraced runs share a single stepping loop.

``CompiledEngine``
    Precompiles the per-hyperperiod activity schedule from the
    :class:`~repro.arch.clocking.ClockTree` (which reference ticks
    carry column clock edges, which DOUs can ever move a word) and
    advances in hyperperiod-sized strides: dead ticks are skipped
    outright, inert DOUs are never stepped, halted columns accrue
    their bubble cycles arithmetically, and the post-halt bus drain is
    settled in O(columns) instead of O(ticks).  By construction it
    produces :class:`~repro.sim.stats.SimulationStats` identical to
    the reference engine - a property enforced by differential tests.

Both engines expose :meth:`Engine.advance` - run for a bounded window
of reference ticks - which is the primitive the runtime-DVFS epoch
layer (:mod:`repro.control.epochs`) builds on: each epoch retunes the
clock tree at a hyperperiod boundary and advances one window.  The
compiled engine recompiles its activity plan per divider tuple behind
a cache, so a governor revisiting an operating point pays for its
edge schedule once.  Its lockstep-round tier runs only in
run-to-completion :meth:`~CompiledEngine.run` windows: an epoch is
too short to repay a round's signatures and ``compile()``.

Engines only require the :class:`~repro.arch.chip.Chip` duck type:
``columns``, ``clock``, ``horizontal_dou``, ``all_halted``,
``reference_ticks``, ``clock_gate_until``, and
``step_reference_tick``.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.arch.chip import STALLED, Chip
from repro.arch.column_exec import compile_column_runner
from repro.obs.events import BUS
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import SimulationStats, collect

#: Default run budget in reference ticks.  Exhausting it raises
#: :class:`~repro.errors.SimulationError` - on this machine model a
#: workload that has not halted within two million reference ticks is
#: almost always a deadlocked communication schedule, not a long run.
DEFAULT_MAX_TICKS = 2_000_000


def _budget_error(max_ticks: int) -> SimulationError:
    return SimulationError(
        f"simulation exceeded {max_ticks} reference ticks "
        f"(deadlocked schedule?)"
    )


def _run_ticked(
    chip: Chip,
    observers: tuple,
    max_ticks: int,
    until: Callable[[Chip], bool] | None,
    drain_hyperperiods: int,
) -> SimulationStats:
    """The canonical tick-by-tick run loop (shared fallback path)."""
    for _ in range(max_ticks):
        if until is not None and until(chip):
            return collect(chip)
        if chip.all_halted:
            break
        chip.step_reference_tick(observers)
    else:
        raise _budget_error(max_ticks)
    for _ in range(drain_hyperperiods * chip.clock.hyperperiod()):
        chip.step_reference_tick(observers)
    return collect(chip)


def _advance_ticked(chip: Chip, observers: tuple, ticks: int) -> int:
    """Advance up to ``ticks`` reference ticks, stopping at all-halt.

    Mirrors the main loop of :func:`_run_ticked` exactly (all_halted
    is observed *before* each step), so windowed and open-ended runs
    agree tick for tick.  Returns the ticks actually consumed.
    """
    consumed = 0
    while consumed < ticks:
        if chip.all_halted:
            break
        chip.step_reference_tick(observers)
        consumed += 1
    return consumed


class Engine:
    """Common interface: advance a chip and collect its statistics.

    ``observers`` receive ``record(tick, column, outcome, pc)`` for
    every tile-clock step - :class:`~repro.sim.trace.Tracer` plugs in
    directly.
    """

    name = "engine"

    def __init__(self, chip: Chip, observers: tuple = ()) -> None:
        self.chip = chip
        self.observers = tuple(observers)

    def step(self) -> None:
        """Advance exactly one reference tick, observers notified.

        Always the tick-accurate path (every DOU stepped, every due
        column edge executed), regardless of the engine's fast paths -
        single-stepping is a debugging primitive and must see true
        per-tick state.
        """
        self.chip.step_reference_tick(self.observers)

    def advance(self, ticks: int) -> int:
        """Advance up to ``ticks`` reference ticks; stop at all-halt.

        The epoch primitive: between calls the control layer may
        retune the chip's clock tree (at a hyperperiod boundary) and
        gate relocking columns; within a call the clock is constant.
        Returns the number of ticks actually consumed, which is less
        than ``ticks`` only when every column halted inside the
        window.
        """
        return _advance_ticked(self.chip, self.observers, ticks)

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        """Run until every column halts (or ``until`` fires).

        After all columns halt, the buses are drained for
        ``drain_hyperperiods`` clock hyperperiods so in-flight words
        settle into their destination buffers.

        Raises
        ------
        SimulationError
            If the tick budget is exhausted first - almost always a
            deadlocked communication schedule.
        """
        raise NotImplementedError


class ReferenceEngine(Engine):
    """Tick-accurate stepping - the architectural reference.

    One Python iteration per reference tick through the single shared
    stepping loop (:meth:`~repro.arch.chip.Chip.step_reference_tick`),
    so its statistics define correctness: every other engine must be
    bit-identical to this one, and the differential tests treat it as
    the oracle.  It is the right engine whenever per-tick visibility
    matters (tracing observers, ``until`` predicates, debugging) and
    the slow one everywhere else.
    """

    name = "reference"

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        return _run_ticked(
            self.chip, self.observers, max_ticks, until,
            drain_hyperperiods,
        )


class _ClockPlan:
    """One divider tuple's compiled hyperperiod trace.

    ``edges`` keeps column *indexes* per offset (needed wherever
    PLL-relock gates must be consulted); ``edge_objs`` binds the same
    table down to :class:`Column` objects for the no-gate hot loop;
    ``sparse_steps[o]`` is ``(delta, edge_indexes)`` where ``delta``
    is the distance from offset ``o`` to the next offset carrying any
    edge (0 when ``o`` itself does) - the precomputed
    next-active-offset table that replaces the old per-jump linear
    scan, and doubles as the gap table for starved-DOU stall batching.
    """

    __slots__ = ("period", "edges", "edge_objs", "sparse_steps")

    def __init__(self, clock, columns) -> None:
        self.period = clock.hyperperiod()
        self.edges = clock.edge_schedule()
        self.edge_objs = tuple(
            tuple(columns[index] for index in offsets)
            for offsets in self.edges
        )
        active = [
            offset for offset, offsets in enumerate(self.edges)
            if offsets
        ]
        steps = []
        for offset in range(self.period):
            target = next(
                (a for a in active if a >= offset),
                self.period + active[0],
            )
            steps.append(
                (target - offset, self.edges[target % self.period])
            )
        self.sparse_steps = tuple(steps)


#: Recorded items kept while hunting for a recurring lockstep round;
#: past this the recording restarts (rounds longer than the cap are
#: never detected, which only costs the optimization).
LOCKSTEP_REC_CAP = 512

#: Recurrences of a safepoint signature, inside one ``run()`` window,
#: before a lockstep recording is armed for it.  Recording taxes every
#: tick of one round and the round's ``compile()`` costs far more than
#: a few rounds of dense stepping, so a signature that recurs only a
#: handful of times never pays it back.
LOCKSTEP_ARM_RECURRENCES = 4

#: Rounds, at the signature's observed recurrence interval, the window
#: must still hold when a recording is armed (the recorded round
#: included): a round armed near the window's end has no replays left
#: to amortise its recording and codegen.
LOCKSTEP_ROOM_ROUNDS = 3

#: Consecutive zero-round replay attempts before a cached round plan
#: is dropped (the occupancy regime it recorded has ended; a fresh
#: recording will rebuild it if the pattern returns).
LOCKSTEP_FAILURES = 8

#: Cached round plans across all signatures before the cache resets
#: (a runaway governor sweeping operating points, not steady state).
LOCKSTEP_PLAN_CAP = 256


#: Sentinel bound for occupancy windows that no recorded predicate
#: constrains.
_OCC_UNBOUNDED = 1 << 30


class _RoundPlan:
    """One recorded lockstep round, compiled for near-arithmetic replay.

    A round's behaviour is fully determined by the anchor signature
    (hyperperiod phase, dividers, stepped set, credits, DOU states,
    column control state), the DOU down-counters, and the *predicate
    regime* of every communication buffer - which occupancy thresholds
    (empty, full, has-word, has-room) each buffer sits on at each
    recorded decision point.  Data values never steer control flow
    silently: conditional branches and comm instructions execute only
    through validated real primitives (``run_edges`` outcomes and
    ``step_tile_clock`` post-state are checked per call), so a replay
    that passes the round-entry checks either reproduces the recording
    exactly or aborts at a validated primitive with all applied state
    real.

    ``occ_checks`` holds per-buffer absolute occupancy windows
    ``(deque, lo, hi)`` compiled from every occupancy predicate the
    recorded round evaluated, shifted by the buffer's anchor-relative
    drift: a buffer that only ever had to be *non-empty* tolerates a
    draining backlog, while one that gated on exactly-empty or
    exactly-full is pinned.  ``items`` is the event sequence with all
    frozen-orbit stall accounting, parked-edge charges, credit burns,
    and no-progress DOU steps folded into precomputed integer deltas;
    only runner calls, tile-clock edges, and whole-lap transfer
    vectors touch the machine.  ``adds`` carries the round's profile
    counter totals, applied when a round completes.
    """

    __slots__ = ("period", "fn", "failures", "adds", "source", "gkey")

    def __init__(self, period, fn, adds, source) -> None:
        self.period = period
        # The round is compiled to a specialized function (the same
        # technique the column runner uses for tile code): entry
        # checks, integer deltas, lap applications, and validated
        # primitives emitted as straight-line Python with every
        # machine object and constant bound in a closure.  ``fn``
        # takes ``(tick, limit, credits)`` and returns
        # ``(ok, new_tick)``; an abort has still executed real
        # primitives up to the abort point, so the returned tick is
        # always real.
        self.fn = fn
        self.failures = 0
        self.adds = adds
        self.source = source
        #: key of this plan's entry in the cross-engine shared plan
        #: cache (None while unshared); used to evict the shared copy
        #: when the local plan is retired for repeated failures.
        self.gkey = None


class _LockRecorder:
    """One armed lockstep recording: raw captures for a single round.

    Created once a safepoint signature clears the cost gate
    (:data:`LOCKSTEP_ARM_RECURRENCES`, :data:`LOCKSTEP_ROOM_ROUNDS`);
    records every dense-loop event - with the occupancy snapshots and
    per-DOU stat deltas the plan compiler needs - until the signature
    recurs, at which point :func:`_build_lock_plan` compiles the
    round.
    """

    __slots__ = (
        "sig", "start", "deques", "caps", "index_of", "anchor_occ",
        "credits", "counters", "items",
    )

    def __init__(self, sig, tick, universe, dous, credits) -> None:
        self.sig = sig
        self.start = tick
        self.deques, self.caps, self.index_of = universe
        self.anchor_occ = tuple(map(len, self.deques))
        self.credits = tuple(credits)
        self.counters = tuple(
            (dou, tuple(dou.counters)) for dou in dous
            if dou.counters
        )
        self.items: list = []

    def occ(self) -> tuple:
        return tuple(map(len, self.deques))

    def comm_state(self, columns, credits) -> tuple:
        """Pending-comm predicate inputs for each live credit-0 column.

        Captured at every batch event so the compiler can window the
        buffers whose empty/full state decided each column's parked
        classification.
        """
        out = []
        for cindex, column in enumerate(columns):
            if column.halted or credits[cindex]:
                continue
            pending = column.controller._pending
            if pending is None:
                continue
            op = pending.opcode.value
            if op == "recv":
                bufs = tuple(
                    (self.index_of[id(t.read_buffer._words)],
                     len(t.read_buffer._words))
                    for t in column.active_tiles()
                )
            elif op == "send":
                bufs = tuple(
                    (self.index_of[id(t.write_buffer._words)],
                     len(t.write_buffer._words))
                    for t in column.active_tiles()
                )
            else:
                continue
            out.append((cindex, op, bufs))
        return tuple(out)


def _build_lock_plan(recorder, period, dous, columns, runners, dividers):
    """Compile an armed recording into a :class:`_RoundPlan`, or None.

    Derives, for every occupancy predicate the recorded round
    evaluated (orbit starvation/backpressure classification, parked
    comm columns, no-progress DOU steps), the window of anchor
    occupancies under which the predicate keeps its recorded value,
    then folds all the occupancy-independent effects into integer
    deltas.
    """
    raw = recorder.items
    if not raw:
        return None
    total = 0
    for item in raw:
        total += item[1] if item[0] == "g" else 1
    if total != period:
        return None
    deques = recorder.deques
    caps = recorder.caps
    index_of = recorder.index_of
    anchor = recorder.anchor_occ
    n_bufs = len(deques)
    lo = [-_OCC_UNBOUNDED] * n_bufs
    hi = [_OCC_UNBOUNDED] * n_bufs

    def pin(j, occ_j):
        # Predicate sat exactly on this occupancy: the buffer may not
        # drift at all between rounds.
        if lo[j] < 0:
            lo[j] = 0
        if hi[j] > 0:
            hi[j] = 0

    def need_word(j, occ_j):
        # Non-empty was load-bearing: tolerate drift down to one word.
        floor = 1 - occ_j
        if floor > lo[j]:
            lo[j] = floor

    def need_room(j, occ_j, cap):
        ceil = cap - 1 - occ_j
        if ceil < hi[j]:
            hi[j] = ceil

    def block_constraints(plan, occ):
        # moved == 0 through this state: each block either starved or
        # fully backpressured.  Window the buffers so the recorded
        # branch recurs.
        for src_words, destinations in plan.blocks:
            j = index_of[id(src_words)]
            if occ[j] == 0:
                pin(j, 0)
                continue
            need_word(j, occ[j])
            for dest_words, capacity in destinations:
                jd = index_of[id(dest_words)]
                pin(jd, occ[jd])  # recorded full; must stay full

    def comm_constraints(comm, parked_mask):
        for cindex, op, bufs in comm:
            blocked = parked_mask >> cindex & 1
            if op == "recv":
                for j, occ_j in bufs:
                    if blocked and occ_j == 0:
                        pin(j, 0)
                    elif not blocked:
                        need_word(j, occ_j)
            else:
                for j, occ_j in bufs:
                    if blocked and occ_j >= caps[j]:
                        pin(j, occ_j)
                    elif not blocked:
                        need_room(j, occ_j, caps[j])

    items = []
    batch_events = 0
    batched_ticks = 0
    dense_ticks = 0
    parked_edges = 0
    orbit_laps = 0
    fused_calls = 0

    reach_cache = {}

    def reach(dou):
        # Every buffer a real ``dou.step()`` can possibly mutate: the
        # sources and destinations of all its transfer-plan blocks
        # plus its comm ports.  A diverging step is confined to this
        # set, so the post-tick occupancy check only needs these
        # indexes rather than the whole universe.
        out = reach_cache.get(id(dou))
        if out is not None:
            return out
        out = set()
        for plan in dou._plans:
            if plan is None:
                continue
            for src_words, destinations in plan.blocks:
                out.add(index_of[id(src_words)])
                for dest_words, _capacity in destinations:
                    out.add(index_of[id(dest_words)])
        for port in dou.write_ports.values():
            out.add(index_of[id(port._words)])
        for port in dou.read_ports.values():
            out.add(index_of[id(port._words)])
        reach_cache[id(dou)] = out
        return out

    def compile_acts(acts_raw):
        nonlocal fused_calls
        out = []
        for act in acts_raw:
            kind = act[0]
            cindex = act[1]
            column = columns[cindex]
            if kind == 0:
                out.append((0, cindex, column))
            elif kind == 1:
                (_, _, pre_pc, want, post_pc, comm_head, depth) = act
                if comm_head:
                    fused_calls += 1
                out.append((
                    1, cindex, column, column.controller,
                    runners[cindex], pre_pc, want, post_pc, depth,
                ))
            else:
                (_, _, post_pc, halted, pending, depth) = act
                out.append((
                    3, cindex, column, column.controller,
                    runners[cindex], post_pc, halted, pending, depth,
                ))
        return tuple(out)

    for item in raw:
        if item[0] == "g":
            (_, span, occ, states, effects, comm, parked_mask,
             charges, burns, acts_raw) = item
            # Split the frozen-orbit effects: machines owing only
            # their cycle count ride a bare tuple; the rest carry
            # their precomputed stall/bus/state deltas.
            cyc_dous = []
            dou_fx = []
            for position, dou in enumerate(dous):
                orbit = dou._orbits[states[position]]
                if orbit is None:
                    return None
                for state_index in orbit:
                    block_constraints(dou._plans[state_index], occ)
                fx = effects[position]
                length = len(fx)
                laps, rem = divmod(span, length)
                blocked = 0
                bus_words = 0
                bus_traffic = 0
                for orbit_pos, (stalls, active) in enumerate(fx):
                    visits = laps + (1 if orbit_pos < rem else 0)
                    if not visits:
                        continue
                    if stalls:
                        blocked += visits
                    if active:
                        bus_words += active * visits
                        bus_traffic += visits
                end_state = orbit[rem]
                if (not blocked and not bus_words
                        and end_state == states[position]):
                    cyc_dous.append(dou)
                else:
                    dou_fx.append((
                        dou, blocked, bus_words, bus_traffic,
                        end_state,
                    ))
            comm_constraints(comm, parked_mask)
            charge_objs = tuple(
                (columns[cindex], owed) for cindex, owed in charges
            )
            parked_edges += sum(owed for _, owed in charges)
            items.append((
                0, span, tuple(cyc_dous), tuple(dou_fx), charge_objs,
                tuple(burns),
                compile_acts(acts_raw) if acts_raw is not None
                else None,
            ))
            batch_events += 1
            batched_ticks += span
            continue
        (_, occ_post, per_dou, acts_raw) = item
        ops = []
        real_dous = []
        for position, dou in enumerate(dous):
            (state_pre, moved, touched, blocked_d, bus_words_d,
             bus_traffic_d, retired_d, state_post, counter_sets,
             occ_at) = per_dou[position]
            lap = dou.lap_plan(state_pre)
            if (lap is not None and lap.length == 1
                    and moved == lap.n_captures):
                ops.append((0, dou, lap))
                orbit_laps += 1
            elif not moved and not touched and not retired_d:
                # A no-progress step: window the deciding buffers
                # (at *this* machine's decision point - earlier
                # machines in the same tick may already have moved
                # words) and fold the accounting into integers.
                plan = dou._plans[state_pre]
                if plan is not None:
                    block_constraints(plan, occ_at)
                ops.append((
                    1, dou, blocked_d, bus_words_d, bus_traffic_d,
                    state_post, counter_sets,
                ))
            else:
                # Partial or multi-lap transfer: keep the real step,
                # validated by its moved count plus a post-tick
                # occupancy check over every buffer it can reach.
                ops.append((2, dou, moved))
                real_dous.append(dou)
        post_check = None
        if real_dous:
            touched_set = set()
            for dou in real_dous:
                touched_set |= reach(dou)
            post_check = tuple(
                (j, occ_post[j]) for j in sorted(touched_set)
            )
        items.append((
            1, tuple(ops), post_check, compile_acts(acts_raw),
        ))
        dense_ticks += 1

    # Merge maximal runs of identical edge-free tick items into one
    # K-lap application (payloads are pre-scaled by K at build time).
    merged = []
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if item[0] != 1 or item[2] is not None or item[3]:
            merged.append(item)
            i += 1
            continue
        k = 1
        while i + k < n and items[i + k] == item:
            k += 1
        if k == 1:
            merged.append(item)
            i += 1
            continue
        ops_k = []
        mergeable = True
        for op in item[1]:
            if op[0] == 0:
                ops_k.append(op)
            elif op[0] == 1:
                (_, dou, blocked_d, bus_words_d, bus_traffic_d,
                 state_post, counter_sets) = op
                if counter_sets:
                    mergeable = False
                    break
                ops_k.append((
                    1, dou, blocked_d * k, bus_words_d * k,
                    bus_traffic_d * k, state_post, (),
                ))
            else:
                mergeable = False
                break
        if not mergeable:
            merged.append(item)
            i += 1
            continue
        merged.append((2, tuple(ops_k), k))
        i += k

    occ_checks = []
    for j in range(n_bufs):
        if lo[j] == -_OCC_UNBOUNDED and hi[j] == _OCC_UNBOUNDED:
            continue
        occ_checks.append((
            deques[j],
            anchor[j] + lo[j] if lo[j] > -_OCC_UNBOUNDED else 0,
            anchor[j] + hi[j] if hi[j] < _OCC_UNBOUNDED
            else _OCC_UNBOUNDED,
        ))
    adds = (
        batch_events, batched_ticks, dense_ticks, parked_edges,
        orbit_laps, fused_calls,
    )
    fn, source, binds = _emit_round(
        tuple(merged), recorder.credits, recorder.counters,
        tuple(occ_checks), deques, anchor, dividers, runners,
    )
    return _RoundPlan(period, fn, adds, source), binds


def _emit_round(
    items, entry_credits, counter_checks, occ_checks, deques, anchor,
    dividers, runners,
):
    """Emit one round as specialized Python and compile it.

    Same technique the column runner uses for tile code: every machine
    object (DOU, bus, column, controller, runner, buffer deque, lap
    plan) is bound once in an enclosing scope and every recorded
    constant is folded into the source, so a replayed round runs with
    no dispatch, no tuple unpacking, and no per-action call overhead.
    Returns ``(fn, source, binds)`` where ``fn(tick, limit, credits)``
    -> ``(ok, new_tick)`` and ``binds`` is the bound-object list in
    bind-name order (the shared plan cache re-resolves it on another
    engine of the same chip structure).
    """
    binds = []
    bind_names = []
    names = {}

    def nm(obj, prefix):
        key = id(obj)
        name = names.get(key)
        if name is None:
            name = "%s%d" % (prefix, len(binds))
            names[key] = name
            binds.append(obj)
            bind_names.append(name)
        return name

    body = []

    def w(depth, text):
        body.append("    " * depth + text)

    def emit_generic_edge(depth, cindex, column, runner):
        # The dense loop's fallback for one clock edge: burn a credit,
        # else let the runner pre-execute, else single-step the tile
        # clock.  Keeps an off-plan tick consistent before the abort.
        w(depth, "if credits[%d]:" % cindex)
        w(depth + 1, "credits[%d] -= 1" % cindex)
        if runner is not None:
            div = dividers[cindex]
            w(depth, "else:")
            w(depth + 1, "consumed = %s.run_edges((limit - tick + %d) // %d)"
              % (nm(runner, "rn"), div, div))
            w(depth + 1, "if consumed:")
            w(depth + 2, "credits[%d] = consumed - 1" % cindex)
            w(depth + 1, "else:")
            w(depth + 2, "%s.step_tile_clock()" % nm(column, "c"))
        else:
            w(depth, "else:")
            w(depth + 1, "%s.step_tile_clock()" % nm(column, "c"))

    def emit_acts(depth, acts):
        for act in acts:
            kind = act[0]
            cindex = act[1]
            column = act[2]
            cn = nm(column, "c")
            w(depth, "if %s.halted:" % cn)
            w(depth + 1, "fail = True")
            if kind == 0:
                w(depth, "elif credits[%d]:" % cindex)
                w(depth + 1, "credits[%d] -= 1" % cindex)
                w(depth, "else:")
                w(depth + 1, "fail = True")
                emit_generic_edge(depth + 1, cindex, column,
                                  runners[cindex])
            elif kind == 1:
                (_, _, _, ctrl, runner, pre_pc, want, post_pc,
                 depth_rec) = act
                tn = nm(ctrl, "ct")
                div = dividers[cindex]
                w(depth,
                  "elif credits[%d] == 0 and %s.pc == %d "
                  "and %s._pending is None "
                  "and not %s._stall_pending:"
                  % (cindex, tn, pre_pc, tn, tn))
                # Same budget formula as the dense loop: a tighter cap
                # (e.g. exactly ``want``) would stop the runner before
                # folding a loop-end branch the recording folded into
                # its last edge.
                w(depth + 1,
                  "consumed = %s.run_edges((limit - tick + %d) // %d)"
                  % (nm(runner, "rn"), div, div))
                w(depth + 1, "if consumed:")
                w(depth + 2, "credits[%d] = consumed - 1" % cindex)
                w(depth + 1, "else:")
                w(depth + 2, "%s.step_tile_clock()" % cn)
                w(depth + 1,
                  "if consumed != %d or %s.pc != %d "
                  "or len(%s._loop_stack) != %d:"
                  % (want, tn, post_pc, tn, depth_rec))
                w(depth + 2, "fail = True")
                w(depth, "else:")
                w(depth + 1, "fail = True")
                emit_generic_edge(depth + 1, cindex, column,
                                  runners[cindex])
            else:
                (_, _, _, ctrl, runner, post_pc, halted, pending,
                 depth_rec) = act
                tn = nm(ctrl, "ct")
                w(depth, "elif credits[%d]:" % cindex)
                w(depth + 1, "credits[%d] -= 1" % cindex)
                w(depth + 1, "fail = True")
                w(depth, "else:")
                # No speculative runner call: refusal is determined by
                # control state (validated) except at a comm head,
                # where step_tile_clock applies the identical
                # buffer-gated semantics directly - a divergence from
                # the recorded outcome shows up in these post checks.
                w(depth + 1, "%s.step_tile_clock()" % cn)
                halt_check = ("or not %s.halted " % cn) if halted \
                    else ("or %s.halted " % cn)
                pend_check = ("or %s._pending is None " % tn) if pending \
                    else ("or %s._pending is not None " % tn)
                w(depth + 1,
                  "if (%s.pc != %d %s%sor len(%s._loop_stack) != %d):"
                  % (tn, post_pc, halt_check, pend_check, tn,
                     depth_rec))
                w(depth + 2, "fail = True")

    def emit_arith(depth, op, k):
        (_, dou, blocked_d, bus_words_d, bus_traffic_d, state_post,
         counter_sets) = op
        dn = nm(dou, "d")
        w(depth, "%s.cycles += %d" % (dn, k))
        if blocked_d:
            w(depth, "%s.blocked_cycles += %d" % (dn, blocked_d))
        if bus_words_d or bus_traffic_d:
            bn = nm(dou.bus, "b")
            if bus_words_d:
                w(depth, "%s.words_moved += %d" % (bn, bus_words_d))
            if bus_traffic_d:
                w(depth, "%s.cycles_with_traffic += %d"
                  % (bn, bus_traffic_d))
        w(depth, "%s.state_index = %d" % (dn, state_post))
        for index, value in counter_sets:
            w(depth, "%s.counters[%d] = %d" % (dn, index, value))

    # --- entry checks -------------------------------------------------
    cond = " or ".join(
        "credits[%d] != %d" % (i, c)
        for i, c in enumerate(entry_credits)
    )
    if cond:
        w(0, "if %s:" % cond)
        w(1, "return False, tick")
    for dou, counters in counter_checks:
        w(0, "if %s.counters != %r:" % (nm(dou, "d"), list(counters)))
        w(1, "return False, tick")
    for words, low, high in occ_checks:
        qn = nm(words, "q")
        unbounded_hi = high >= _OCC_UNBOUNDED
        if unbounded_hi and low <= 0:
            continue
        if unbounded_hi:
            w(0, "if len(%s) < %d:" % (qn, low))
        elif low <= 0:
            w(0, "if len(%s) > %d:" % (qn, high))
        elif low == high:
            w(0, "if len(%s) != %d:" % (qn, low))
        else:
            w(0, "if not %d <= len(%s) <= %d:" % (low, qn, high))
        w(1, "return False, tick")
    # Entry occupancies for every buffer some post-tick check compares
    # against (drift-adjusted: expected = entry + recorded delta).
    post_union = set()
    for item in items:
        if item[0] == 1 and item[2] is not None:
            for j, _expect in item[2]:
                post_union.add(j)
    entry_var = {}
    for j in sorted(post_union):
        var = "n%d" % j
        entry_var[j] = var
        w(0, "%s = len(%s)" % (var, nm(deques[j], "q")))

    # --- the round body -----------------------------------------------
    for item in items:
        tag = item[0]
        if tag == 0:
            _, span, cyc_dous, dou_fx, charges, burns, acts = item
            for dou in cyc_dous:
                w(0, "%s.cycles += %d" % (nm(dou, "d"), span))
            for dou, blocked, bus_words, bus_traffic, end in dou_fx:
                dn = nm(dou, "d")
                w(0, "%s.cycles += %d" % (dn, span))
                if blocked:
                    w(0, "%s.blocked_cycles += %d" % (dn, blocked))
                if bus_words:
                    bn = nm(dou.bus, "b")
                    w(0, "%s.words_moved += %d" % (bn, bus_words))
                    w(0, "%s.cycles_with_traffic += %d"
                      % (bn, bus_traffic))
                w(0, "%s.state_index = %d" % (dn, end))
            for column, owed in charges:
                cn = nm(column, "c")
                w(0, "%s.tile_cycles += %d" % (cn, owed))
                w(0, "%s.comm_stalls += %d" % (cn, owed))
            for cindex, burn in burns:
                w(0, "credits[%d] -= %d" % (cindex, burn))
            w(0, "tick += %d" % span)
            if acts:
                w(0, "fail = False")
                emit_acts(0, acts)
                w(0, "if fail:")
                w(1, "return False, tick")
        elif tag == 1:
            _, ops, post_check, acts = item
            divergent = any(op[0] != 1 for op in ops)
            if divergent:
                # A lap or real step that diverges finishes the tick
                # generically (every remaining machine single-steps),
                # still runs the clock-edge actions, and aborts - all
                # applied state is real.
                w(0, "bad = False")
                w(0, "while True:")
                for pos, op in enumerate(ops):
                    kind = op[0]
                    dou = op[1]
                    dn = nm(dou, "d")
                    if kind == 1:
                        emit_arith(1, op, 1)
                        continue
                    if kind == 0:
                        w(1, "if not %s.apply_laps(%s, 1):"
                          % (dn, nm(op[2], "lap")))
                    else:
                        w(1, "if %s.step() != %d:" % (dn, op[2]))
                    if kind == 0:
                        w(2, "%s.step()" % dn)
                    for later in ops[pos + 1:]:
                        w(2, "%s.step()" % nm(later[1], "d"))
                    w(2, "bad = True")
                    w(2, "break")
                w(1, "break")
                w(0, "tick += 1")
            else:
                for op in ops:
                    emit_arith(0, op, 1)
                w(0, "tick += 1")
            if post_check is not None:
                cond = " or ".join(
                    "len(%s) != %s%s" % (
                        nm(deques[j], "q"), entry_var[j],
                        " + %d" % (expect - anchor[j])
                        if expect > anchor[j]
                        else (" - %d" % (anchor[j] - expect)
                              if expect < anchor[j] else ""),
                    )
                    for j, expect in post_check
                )
                w(0, "if not bad and (%s):" % cond)
                w(1, "bad = True")
            if acts:
                w(0, "fail = False")
                emit_acts(0, acts)
                if divergent:
                    w(0, "if bad or fail:")
                else:
                    w(0, "if fail:")
                w(1, "return False, tick")
            elif divergent:
                w(0, "if bad:")
                w(1, "return False, tick")
        else:
            # Merged run of identical edge-free compiled ticks: guards
            # aggregated over all K laps up front, so an abort lands
            # cleanly at the tick boundary with nothing applied.
            _, ops, k = item
            guards = []
            for op in ops:
                if op[0] != 0:
                    continue
                lap = op[2]
                for words in lap.sources:
                    guards.append("len(%s) < %d" % (nm(words, "q"), k))
                for words, capacity in lap.rooms:
                    guards.append("len(%s) > %d"
                                  % (nm(words, "q"), capacity - k))
            if guards:
                w(0, "if %s:" % " or ".join(guards))
                w(1, "return False, tick")
            for op in ops:
                if op[0] == 0:
                    w(0, "%s.apply_laps(%s, %d)"
                      % (nm(op[1], "d"), nm(op[2], "lap"), k))
                else:
                    emit_arith(0, op, k)
            w(0, "tick += %d" % k)
    w(0, "return True, tick")

    lines = ["def _make(B):"]
    for i, name in enumerate(bind_names):
        lines.append("    %s = B[%d]" % (name, i))
    lines.append("    def _round(tick, limit, credits):")
    lines.extend("        " + line for line in body)
    lines.append("    return _round")
    source = "\n".join(lines)
    return _round_maker(source)(binds), source, binds


def _round_maker(source: str):
    """The ``_make(binds)`` factory of a generated round source."""
    make = _ROUND_MAKERS.get(source)
    if make is None:
        if len(_ROUND_MAKERS) >= LOCKSTEP_PLAN_CAP:
            _ROUND_MAKERS.clear()
        namespace = {}
        exec(compile(source, "<lockstep-round>", "exec"), namespace)
        make = namespace["_make"]
        _ROUND_MAKERS[source] = make
    return make


# Round factories, keyed by their generated source.  The emitter's
# bind names are assigned in deterministic discovery order, so
# re-simulating the same chip structure (fresh engine, fresh machine
# objects) regenerates byte-identical source and skips the
# ``compile()`` and module ``exec`` - only the closure rebind runs.
_ROUND_MAKERS: dict = {}

# Whole lockstep plans shared across engine instances, keyed by
# ``(fingerprint, signature)`` and holding ``(source, paths, adds,
# period)``: the generated round source, the bound objects
# re-expressed as structural paths (column/DOU/runner/universe
# indexes), the round's profile-counter totals, and its tick span.  A fresh engine simulating a
# structurally identical chip rebinds the paths against its own
# machine objects and gets the plan at the signature's FIRST sighting
# - no recording window, no analysis, no emission.  Safety matches
# intra-engine reuse: the fingerprint pins program text and transfer
# topology, the signature pins the control anchor, and the round's
# own entry checks and validated primitives catch (and cleanly abort
# on) any residual divergence.
_SHARED_LOCK_PLANS: dict = {}
_SHARED_LOCK_CAP = 1024

# Structural fingerprints interned to small ints so shared-cache keys
# stay cheap to hash.  Ids come from a monotonic counter, never from
# the table's size: the table is cleared together with the plans at
# ``_SHARED_LOCK_CAP``, and a reissued id would let a live engine's
# cached fingerprint alias a different structure's plans.
_FP_INTERN: dict = {}
_FP_IDS = itertools.count()


def _clear_shared_plans() -> None:
    """Evict every shared plan and interned fingerprint."""
    _SHARED_LOCK_PLANS.clear()
    _FP_INTERN.clear()


# id(program) -> (program, repr(program)).  Programs are immutable and
# harnesses reuse one object across the chips they build, so each is
# rendered once; holding the program keeps its id from being reused.
_PROGRAM_TEXT: dict = {}


def _program_text(program) -> str:
    """``repr(program)``, memoized per program object."""
    entry = _PROGRAM_TEXT.get(id(program))
    if entry is None or entry[0] is not program:
        if len(_PROGRAM_TEXT) >= _SHARED_LOCK_CAP:
            _PROGRAM_TEXT.clear()
        entry = (program, repr(program))
        _PROGRAM_TEXT[id(program)] = entry
    return entry[1]

# Local plan-cache marker for a signature already probed against the
# shared cache and missed.  Signatures recur many times before a
# recording window completes; remembering the miss keeps each
# recurrence to one local dict lookup instead of re-hashing the
# (fingerprint, signature) key against the shared cache every time.
_PROBE_MISS = object()


class CompiledEngine(Engine):
    """Hyperperiod-compiled stepping: skip what cannot change state.

    At construction the engine classifies every DOU: machines whose
    program is inert can never move a word, so they are accounted
    arithmetically from the start, and the rest are *demotable* - the
    moment one parks in a closed orbit of non-transferring states
    (:meth:`~repro.arch.dou.Dou.is_quiescent`, e.g. the idle park of
    ``linear_schedule(repeat=k)``) it too stops being stepped, with
    re-promotion impossible by construction.  The clock tree's edge
    schedule is compiled lazily, per divider tuple, into a plan cache
    (:class:`_ClockPlan`) - runtime retuning through
    :meth:`~repro.arch.chip.Chip.retune` just selects another plan.
    Two striding modes follow:

    * no DOU needs stepping ("sparse"): only reference ticks carrying
      at least one live column edge are visited, located through the
      plan's precomputed next-active-offset table in O(1) per jump;
    * some DOU needs stepping ("dense"): every tick steps those DOUs
      (they run at the reference rate by definition) through their
      compiled per-state plans, column edges come from the prebound
      object table with no per-tick modulo or gate checks in the
      common case, and edge-free gaps where every stepped DOU sits in
      a starved self-loop are settled arithmetically.

    In both modes a column that has halted stops being stepped; the
    bubbles and tile cycles the reference engine would have accrued on
    its remaining clock edges are reconstructed arithmetically at the
    end of each window, as are the cycle counts of every non-stepped
    DOU and the post-halt bus drain.  PLL-relock gates
    (``chip.clock_gate_until``) suppress a column's edges the same way
    the reference stepping loop does.  ``until`` predicates and
    observers need tick-accurate visibility, so their presence falls
    back to the shared tick-by-tick loop.
    """

    name = "compiled"

    def __init__(self, chip: Chip, observers: tuple = ()) -> None:
        super().__init__(chip, observers)
        compile_start = perf_counter()
        #: divider tuple -> compiled _ClockPlan
        self._plans: dict = {}
        dous = [column.dou for column in chip.columns]
        if chip.horizontal_dou is not None:
            dous.append(chip.horizontal_dou)
        #: every DOU, in the reference loop's stepping order
        #: (columns ascending, then the horizontal machine).
        self._all_dous = tuple(dous)
        #: indexes into _all_dous still stepped tick-by-tick; inert
        #: programs start demoted, the rest may demote at run time.
        self._stepped = [
            index for index, dou in enumerate(dous)
            if not dou.program.is_inert()
        ]
        self._refresh_demotable()
        #: per-column compute-run pre-executors (None = reference
        #: fetch only) and the count of upcoming clock edges each
        #: column has already executed through its runner.
        self._runners = tuple(
            compile_column_runner(column) for column in chip.columns
        )
        self._credits = [0] * len(chip.columns)
        self._controllers = tuple(
            column.controller for column in chip.columns
        )
        #: lockstep signature -> validated _RoundPlan.  Keyed on the
        #: full round anchor (divider tuple included), so a governor
        #: retuning the clock tree gets a fresh plan per operating
        #: point and stale plans are unreachable by construction.
        self._lock_plans: dict = {}
        #: lazily-built communication-buffer universe shared by every
        #: lockstep recording: (deque tuple, capacity tuple, id->index).
        self._lock_universe = None
        #: lazily-computed interned structural fingerprint and
        #: object-id -> structural-path map for the shared plan cache.
        self._lock_fp = None
        self._lock_path_of = None
        #: highest tick any window has reached; a chip observed below
        #: it again means the run restarted under this engine.
        self._profile_mark = 0
        #: the DOUs' interpreter-cycle total when this engine's
        #: profile last started (DOUs belong to the chip and may
        #: outlive one engine).
        self._interpreted_mark = self._interpreted_cycles()
        #: wall-clock attribution is collected only when
        #: ``profile_enabled`` is set; the event counters are always
        #: maintained (they sit off the per-tick hot path).
        self.profile_enabled = False
        self._profile = {
            "compile_s": perf_counter() - compile_start,
            "dense_s": 0.0,
            "sparse_s": 0.0,
            "settle_s": 0.0,
            "drain_s": 0.0,
            "dense_ticks": 0,
            "batch_events": 0,
            "batched_ticks": 0,
            "sparse_steps": 0,
            "parked_edges": 0,
            "lockstep_batches": 0,
            "orbit_laps": 0,
            "fused_runner_calls": 0,
            "lockstep_armed": 0,
            "lockstep_built": 0,
            "lockstep_declined": 0,
        }
        #: Typed view over the same dict the hot loops mutate raw:
        #: the registry owns instrument naming and kinds, ``_profile``
        #: stays the fast store (``dict[key] += n`` in the inner
        #: loops), and :meth:`profile_snapshot` renders through it.
        self.metrics = MetricsRegistry.adopt(
            self._profile, namespace="engine"
        )
        for key in self._profile:
            if key.endswith("_s"):
                self.metrics.gauge(key)
            else:
                self.metrics.counter(key)
        if BUS.active:
            # No wall-clock in the args: trace output must be
            # byte-identical across identical runs (the exporter
            # determinism contract); compile_s stays readable through
            # profile_snapshot().
            BUS.instant(
                "engine_compiled",
                tick=chip.reference_ticks,
                track="engine",
                args={"columns": len(chip.columns)},
            )

    def profile_snapshot(self) -> dict:
        """Phase timings and event counters for ``--profile`` runs.

        Compatibility view over :attr:`metrics` - same keys as ever,
        so the ``BENCH_engine.json`` profile schema and the CI counter
        checks are unaffected by the registry migration.  Timing keys
        are populated only when :attr:`profile_enabled` was set before
        the run; counter keys are always exact.  The runner aggregate
        folds in every column's pre-execution statistics (calls, edges
        consumed, vectorized batches); ``dou_interpreted_cycles``
        counts the DOU cycles that fell back to the generic
        interpreter since the profile started.
        """
        data = self.metrics.snapshot()
        calls = edges = batches = iterations = 0
        for runner in self._runners:
            if runner is None:
                continue
            calls += runner.calls
            edges += runner.edges
            batches += runner.vector_batches
            iterations += runner.vector_iterations
        data["runner_calls"] = calls
        data["runner_edges"] = edges
        data["vector_batches"] = batches
        data["vector_iterations"] = iterations
        data["dou_interpreted_cycles"] = (
            self._interpreted_cycles() - self._interpreted_mark
        )
        return data

    def _interpreted_cycles(self) -> int:
        return sum(dou.interpreted_cycles for dou in self._all_dous)

    def reset_profile(self) -> None:
        """Zero phase timings and event counters for a fresh run.

        ``compile_s`` is kept - construction happened once and stays
        attributable.  The per-column runner counters fold into
        :meth:`profile_snapshot`, so they are reset too.  Called
        automatically when :meth:`advance` observes the chip below the
        last settled tick (a restarted run under a reused engine);
        callers sharing one engine across measured runs may also call
        it directly.
        """
        profile = self._profile
        for key, value in profile.items():
            if key == "compile_s":
                continue
            profile[key] = 0.0 if isinstance(value, float) else 0
        for runner in self._runners:
            if runner is None:
                continue
            runner.calls = 0
            runner.edges = 0
            runner.vector_batches = 0
            runner.vector_iterations = 0
        self._profile_mark = self.chip.reference_ticks
        self._interpreted_mark = self._interpreted_cycles()

    def _refresh_demotable(self) -> None:
        self._demotable = any(
            self._all_dous[index].program.quiescent_states
            for index in self._stepped
        )

    def _demote_quiescent(self) -> None:
        """Stop stepping DOUs parked in a closed transfer-free orbit.

        Safe at any tick: a quiescent machine's remaining execution
        only increments its cycle counter, which the window settlement
        reconstructs arithmetically.  Demotion is permanent - the
        orbit is closed, so the machine can never transfer again.
        """
        if not self._demotable:
            return
        kept = [
            index for index in self._stepped
            if not self._all_dous[index].is_quiescent()
        ]
        if len(kept) != len(self._stepped):
            self._stepped = kept
            self._refresh_demotable()

    def _plan(self) -> _ClockPlan:
        """The compiled activity schedule for the current dividers.

        Cached per divider tuple, so an epoch run that revisits an
        operating point compiles its edge table exactly once.
        """
        key = self.chip.clock.dividers
        plan = self._plans.get(key)
        if plan is None:
            plan = _ClockPlan(self.chip.clock, self.chip.columns)
            self._plans[key] = plan
        return plan

    def advance(self, ticks: int) -> int:
        if self.observers:
            return _advance_ticked(self.chip, self.observers, ticks)
        if ticks <= 0 or self.chip.all_halted:
            return 0
        start = self.chip.reference_ticks
        if start < self._profile_mark:
            # The chip sits below a tick this engine already settled:
            # the run restarted (rewound/rebuilt chip under a reused
            # engine).  Stale counters would double-count the old run.
            self.reset_profile()
        end = self._stride_window(start + ticks, lockstep=False)
        self._profile_mark = end
        return end - start

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        if until is not None or self.observers:
            return _run_ticked(
                self.chip, self.observers, max_ticks, until,
                drain_hyperperiods,
            )
        start = self.chip.reference_ticks
        if start < self._profile_mark:
            self.reset_profile()
        end = self._stride_window(start + max_ticks, lockstep=True)
        # The reference loop spends one budget iteration *observing*
        # all_halted after the final step, so a chip halting on the
        # very last tick in budget still exhausts it.
        if end - start >= max_ticks:
            raise _budget_error(max_ticks)
        self._drain(drain_hyperperiods * self._plan().period)
        self._profile_mark = self.chip.reference_ticks
        return collect(self.chip)

    # ------------------------------------------------------------------
    # striding
    # ------------------------------------------------------------------
    #: Ticks between quiescence re-checks in the dense loop (also the
    #: minimum, so tiny hyperperiods do not check every tick).
    DEMOTION_CHECK_TICKS = 64

    def _stride_window(self, limit: int, lockstep: bool) -> int:
        """Advance from the current tick to at most ``limit``.

        Stops early the moment every column has halted (at the same
        tick the reference loop would observe ``all_halted``), settles
        the skipped arithmetic for the window, and returns the end
        tick.  ``lockstep`` enables lockstep-round safepoints in the
        dense loop: :meth:`run` windows run to completion and can
        repay a round, :meth:`advance` windows (one governor epoch)
        are too short to.
        """
        chip = self.chip
        start = chip.reference_ticks
        tracing = BUS.active
        if tracing:
            window_pre = self._window_open()
        initial_cycles = [
            column.tile_cycles for column in chip.columns
        ]
        dou_cycles = [dou.cycles for dou in self._all_dous]
        self._demote_quiescent()
        # Touch the plan cache even on sparse windows: one compiled
        # plan per operating point the run visits is part of the
        # engine's contract (and what the epoch layer's cache tests
        # pin down).
        self._plan()
        profiling = self.profile_enabled
        mark = perf_counter() if profiling else 0.0
        if self._stepped:
            end = self._dense_until(start, limit, lockstep)
            phase = "dense_s"
        else:
            end = self._sparse_until(start, limit)
            phase = "sparse_s"
        if profiling:
            now = perf_counter()
            self._profile[phase] += now - mark
            mark = now
        self._settle_window(start, end, initial_cycles, dou_cycles)
        if profiling:
            self._profile["settle_s"] += perf_counter() - mark
        chip.reference_ticks = end
        if tracing:
            self._window_close(window_pre, start, end, phase[:-2])
        return end

    #: Profile counters whose per-window deltas ride on the window
    #: span's args when a sink is subscribed.
    WINDOW_DELTA_KEYS = (
        "dense_ticks", "sparse_steps", "batch_events",
        "batched_ticks", "parked_edges", "lockstep_batches",
        "orbit_laps", "fused_runner_calls",
    )

    def _window_open(self) -> tuple:
        """Baselines for window-granularity telemetry (tracing only)."""
        profile = self._profile
        return (
            [column.halted for column in self.chip.columns],
            [profile[key] for key in self.WINDOW_DELTA_KEYS],
        )

    def _window_close(
        self, pre: tuple, start: int, end: int, phase: str
    ) -> None:
        """Emit the window's telemetry: one engine-track span with the
        profile-counter deltas, plus per-clock-domain tracks (divider
        rung, relock-gated stretch, cumulative issue/stall counters,
        halt instants)."""
        chip = self.chip
        halted_pre, counters_pre = pre
        profile = self._profile
        deltas = {
            key: profile[key] - base
            for key, base in zip(self.WINDOW_DELTA_KEYS, counters_pre)
            if profile[key] != base
        }
        BUS.span(
            f"window:{phase}", start, end, track="engine",
            args=deltas,
        )
        dividers = chip.clock.dividers
        gates = chip.clock_gate_until
        for index, column in enumerate(chip.columns):
            track = f"column{index}"
            BUS.counter(
                "divider", dividers[index], tick=start, track=track,
            )
            if gates[index] > start:
                BUS.span(
                    "gated", start, min(gates[index], end),
                    track=track,
                )
            BUS.counter(
                "issued", column.controller.issued, tick=end,
                track=track,
            )
            BUS.counter(
                "comm_stalls", column.comm_stalls, tick=end,
                track=track,
            )
            if column.halted and not halted_pre[index]:
                BUS.instant("halted", tick=end, track=track)

    def _sparse_until(self, start: int, limit: int) -> int:
        """No DOU to step: settle each live column independently.

        With every DOU demoted or inert, no word can cross a domain
        boundary for the rest of the window, so columns cannot
        interact and each advances over its private edge schedule in
        one pass: edges the column runner has pre-executed burn in
        O(1), compiled compute runs batch through the runner, and a
        column that blocks on a comm buffer is charged all remaining
        stall edges in closed form (nothing can ever unblock it).
        Returns the tick at which the reference loop would observe
        all-halted, or ``limit``.
        """
        chip = self.chip
        columns = chip.columns
        gates = chip.clock_gate_until
        clock = chip.clock
        dividers = clock.dividers
        credits = self._credits
        runners = self._runners
        profile = self._profile
        live = 0
        last_halt = -1
        for cindex, column in enumerate(columns):
            if column.halted:
                continue
            live += 1
            divider = dividers[cindex]
            base = max(start, gates[cindex])
            tick = base + (-base) % divider
            runner = runners[cindex]
            while tick < limit:
                remaining = (limit - tick + divider - 1) // divider
                credit = credits[cindex]
                if credit:
                    if credit > remaining:
                        credit = remaining
                    credits[cindex] -= credit
                    tick += credit * divider
                    continue
                if runner is not None:
                    consumed = runner.run_edges(remaining)
                    if consumed:
                        tick += consumed * divider
                        continue
                outcome = column.step_tile_clock()
                profile["sparse_steps"] += 1
                if column.halted:
                    live -= 1
                    if tick > last_halt:
                        last_halt = tick
                    break
                if outcome == STALLED:
                    # A comm stall with no live DOU repeats forever:
                    # charge every remaining edge of the window.
                    owed = clock.edges_in(cindex, tick + 1, limit)
                    if owed:
                        column.tile_cycles += owed
                        column.comm_stalls += owed
                        profile["parked_edges"] += owed
                    break
                tick += divider
        if live == 0:
            return last_halt + 1 if last_halt >= 0 else start
        return limit

    def _dense_until(
        self, start: int, limit: int, lockstep: bool,
    ) -> int:
        """Some DOU moves data: walk the compiled hyperperiod trace.

        The loop runs in segments.  A gated or unaligned prefix pays
        per-tick gate checks; the steady-state segment walks the
        prebound edge-object table with an incrementing offset (no
        modulo, no gate test, no halted-edge re-entry after the
        filtered check), batches no-progress gaps, and pre-executes
        compute runs.  Two batching mechanisms remove the per-tick
        loop in steady state:

        * **Orbit batching** - when every stepped DOU sits in a
          closed no-progress orbit (starved, fully backpressured, or
          idle; :meth:`~repro.arch.dou.Dou.stall_orbit`), no buffer
          can change until a progressing column edge executes, so the
          whole span through the next such edge settles
          arithmetically - including the edges of columns parked on a
          blocked SEND or RECV, which are charged as comm stalls.
        * **Run crediting** - at a live column's edge, the column
          runner pre-executes as many upcoming compute edges as the
          program allows; the column is then credited those edges,
          which burn in O(1) as their ticks pass (or inside an orbit
          jump).

        Segment boundaries double as quiescence-demotion checkpoints;
        when the last stepped DOU demotes, the window degrades to the
        sparse per-column loop.

        On top of both, when ``lockstep`` is set (run-to-completion
        windows only), the loop hunts for a recurring **lockstep
        round**: the same anchor signature (column pcs, pending/loop
        structure, credits, DOU states, hyperperiod phase) seen at two
        batch-event safepoints a whole number of hyperperiods apart.
        Detection is two-phase so the steady state pays nothing: a
        signature that has recurred :data:`LOCKSTEP_ARM_RECURRENCES`
        times in this window, with room left for
        :data:`LOCKSTEP_ROOM_ROUNDS` rounds at its recurrence
        interval, *arms* a :class:`_LockRecorder` (the cost gate: a
        round that cannot recur enough never repays its recording and
        ``compile()``) that captures exactly one round richly
        (occupancy snapshots, per-DOU stat deltas, comm predicate
        inputs); the next recurrence compiles the capture into a
        :class:`_RoundPlan`
        whose replays (:meth:`_lock_replay`) settle whole
        producer/consumer exchange rounds per iteration - entry-
        validated by credit/counter equality and per-buffer occupancy
        windows, with only the genuinely irregular primitives executed
        and self-validated live.  Any divergence aborts back here with
        the machine state real and consistent.
        """
        chip = self.chip
        columns = chip.columns
        gates = chip.clock_gate_until
        clock = chip.clock
        dividers = clock.dividers
        plan = self._plan()
        period = plan.period
        edges = plan.edges
        edge_objs = plan.edge_objs
        max_gate = max(gates)
        check_ticks = max(period, self.DEMOTION_CHECK_TICKS)
        all_dous = self._all_dous
        credits = self._credits
        runners = self._runners
        profile = self._profile
        lock_plans = self._lock_plans
        # lockstep signature -> (recurrences since last armed, tick
        # last seen)
        sigs: dict = {}
        armed = None     # _LockRecorder while capturing one round
        live = sum(not column.halted for column in columns)
        tick = start
        while live and tick < limit:
            if not self._stepped:
                return self._sparse_until(tick, limit)
            dous = [all_dous[index] for index in self._stepped]
            segment_end = (
                min(limit, tick + check_ticks) if self._demotable
                else limit
            )
            if tick < max_gate:
                # Relock-gated prefix: tick-accurate gate checks, with
                # the same orbit batching as the steady state.  Once
                # every stepped DOU parks in a no-progress orbit, no
                # buffer can change before the next *executable* column
                # edge - and a relock gate pushes each column's next
                # executable edge out to its gate expiry - so the whole
                # gated stretch settles arithmetically instead of
                # paying per-tick gate checks.
                gate_end = min(segment_end, max_gate)
                gate_moved = 0
                while live and tick < gate_end:
                    if gate_moved == 0:
                        gate_batch = []
                        for dou in dous:
                            effects = dou.stall_orbit()
                            if effects is None:
                                gate_batch = None
                                break
                            gate_batch.append(effects)
                    else:
                        gate_batch = None
                    if gate_batch is not None:
                        jump = gate_end
                        for cindex, column in enumerate(columns):
                            if column.halted:
                                continue
                            divider = dividers[cindex]
                            base = tick
                            if gates[cindex] > base:
                                base = gates[cindex]
                            due = base + (-base) % divider
                            if due < jump:
                                jump = due
                        if jump > tick:
                            span = jump - tick
                            for position, dou in enumerate(dous):
                                dou.fast_stall_orbit(
                                    gate_batch[position], span,
                                )
                            profile["batch_events"] += 1
                            profile["batched_ticks"] += span
                            tick = jump
                            continue
                    gate_moved = 0
                    for dou in dous:
                        gate_moved += dou.step()
                    for index in edges[tick % period]:
                        column = columns[index]
                        if column.halted or tick < gates[index]:
                            continue
                        column.step_tile_clock()
                        if column.halted:
                            live -= 1
                    tick += 1
                continue
            offset = tick % period
            stepped_ticks = 0
            moved = 0
            while live and tick < segment_end:
                # Attempt an orbit batch only after a tick in which no
                # word moved (a no-progress orbit implies one), so the
                # classification never taxes the busy steady state.
                if moved == 0:
                    batch = []
                    for dou in dous:
                        effects = dou.stall_orbit()
                        if effects is None:
                            batch = None
                            break
                        batch.append(effects)
                else:
                    batch = None
                if lockstep and (batch is not None or offset == 0):
                    # Lockstep safepoint: replay a cached round for
                    # this anchor, compile one from an armed capture,
                    # or arm a capture on a recurring signature.
                    # Attempted at every no-progress orbit batch AND at
                    # every hyperperiod phase boundary: a periodic
                    # *busy* regime (words moving every tick, so no
                    # no-progress anchor ever appears) still recurs at
                    # phase 0, and its recorded round replays as lap
                    # applications and validated real steps with all
                    # the per-tick classification machinery skipped.
                    sig = self._lock_signature(tick, period)
                    lplan = lock_plans.get(sig)
                    if lplan is None and _SHARED_LOCK_PLANS:
                        lplan = self._lock_probe(sig)
                        lock_plans[sig] = (
                            _PROBE_MISS if lplan is None else lplan
                        )
                    elif lplan is _PROBE_MISS:
                        lplan = None
                    if (lplan is not None
                            and tick + lplan.period <= limit):
                        new_tick, rounds = self._lock_replay(
                            lplan, tick, limit, credits, profile,
                        )
                        if rounds:
                            lplan.failures = 0
                        else:
                            lplan.failures += 1
                            if lplan.failures > LOCKSTEP_FAILURES:
                                del lock_plans[sig]
                                if lplan.gkey is not None:
                                    _SHARED_LOCK_PLANS.pop(
                                        lplan.gkey, None,
                                    )
                        if new_tick != tick:
                            tick = new_tick
                            offset = tick % period
                            moved = 0
                            live = sum(
                                not column.halted
                                for column in columns
                            )
                            sigs.clear()
                            armed = None
                            continue
                    elif lplan is None:
                        count, seen = sigs.get(sig, (0, tick))
                        if seen < tick:
                            count += 1
                        if armed is not None:
                            if sig == armed.sig and tick > armed.start:
                                built = _build_lock_plan(
                                    armed, tick - armed.start,
                                    dous, columns, runners, dividers,
                                )
                                armed = None
                                if built is not None:
                                    built, binds = built
                                    profile["lockstep_built"] += 1
                                    if (len(lock_plans)
                                            > LOCKSTEP_PLAN_CAP):
                                        lock_plans.clear()
                                    lock_plans[sig] = built
                                    self._lock_share(sig, built, binds)
                        elif seen < tick:
                            # Cost gate: recording and compiling a
                            # round pays only if the signature keeps
                            # recurring and the window still holds
                            # enough rounds to replay.
                            if (count >= LOCKSTEP_ARM_RECURRENCES
                                    and limit - tick
                                    >= LOCKSTEP_ROOM_ROUNDS
                                    * (tick - seen)):
                                armed = _LockRecorder(
                                    sig, tick, self._lock_buffers(),
                                    dous, credits,
                                )
                                profile["lockstep_armed"] += 1
                                count = 0
                            else:
                                profile["lockstep_declined"] += 1
                        sigs[sig] = (count, tick)
                if batch is not None:
                    if armed is not None:
                        g_occ = armed.occ()
                        g_states = tuple(
                            dou.state_index for dou in dous
                        )
                        g_comm = armed.comm_state(columns, credits)
                    jump = segment_end
                    parked = 0  # bitmask of comm-parked columns
                    for cindex, column in enumerate(columns):
                        if column.halted:
                            continue
                        credit = credits[cindex]
                        if credit == 0 and column.parked_on_comm():
                            parked |= 1 << cindex
                            continue
                        divider = dividers[cindex]
                        due = (
                            tick + (-tick) % divider
                            + credit * divider
                        )
                        if due < jump:
                            jump = due
                    # The freeze proof holds through the DOU steps AT
                    # ``jump`` as well: no buffer changed in
                    # [tick, jump), so the bus cycle at ``jump`` is one
                    # more orbit stall, and the due edges then execute
                    # inside this event (reference order: buses first,
                    # then due columns).  Only when the jump hits the
                    # segment boundary does the event stop short of an
                    # edge.  Parked columns owe one comm-stall edge per
                    # skipped edge, credited columns burn their
                    # pre-executed edges, and no other column has an
                    # edge before the jump.
                    run_edge = jump < segment_end
                    end = jump + 1 if run_edge else jump
                    span = end - tick
                    recording = armed is not None
                    for position, dou in enumerate(dous):
                        dou.fast_stall_orbit(batch[position], span)
                    charges_rec = [] if recording else None
                    burns_rec = [] if recording else None
                    for cindex, column in enumerate(columns):
                        if column.halted:
                            continue
                        if credits[cindex]:
                            burn = clock.edges_in(cindex, tick, jump)
                            if burn:
                                credits[cindex] -= burn
                                if recording:
                                    burns_rec.append((cindex, burn))
                        elif parked >> cindex & 1:
                            owed = clock.edges_in(cindex, tick, end)
                            if owed:
                                column.tile_cycles += owed
                                column.comm_stalls += owed
                                profile["parked_edges"] += owed
                                if recording:
                                    charges_rec.append((cindex, owed))
                    acts = None
                    if run_edge:
                        acts = [] if recording else None
                        for column in edge_objs[jump % period]:
                            if column.halted:
                                continue
                            cindex = column.index
                            if parked >> cindex & 1:
                                continue  # stall already settled
                            credit = credits[cindex]
                            if credit:
                                credits[cindex] = credit - 1
                                if recording:
                                    acts.append((0, cindex))
                                continue
                            runner = runners[cindex]
                            if runner is not None:
                                divider = dividers[cindex]
                                pre_pc = column.controller.pc
                                consumed = runner.run_edges(
                                    (limit - jump + divider - 1)
                                    // divider
                                )
                                if consumed:
                                    credits[cindex] = consumed - 1
                                    if recording:
                                        ctrl = column.controller
                                        acts.append((
                                            1, cindex, pre_pc,
                                            consumed, ctrl.pc,
                                            runner.comm_head(pre_pc),
                                            len(ctrl._loop_stack),
                                        ))
                                    continue
                            column.step_tile_clock()
                            if recording:
                                ctrl = column.controller
                                acts.append((
                                    3, cindex, ctrl.pc,
                                    column.halted,
                                    ctrl._pending is not None,
                                    len(ctrl._loop_stack),
                                ))
                            if column.halted:
                                live -= 1
                    if recording:
                        armed.items.append((
                            "g", span, g_occ, g_states, batch,
                            g_comm, parked, tuple(charges_rec),
                            tuple(burns_rec),
                            tuple(acts) if acts is not None
                            else None,
                        ))
                        if len(armed.items) > LOCKSTEP_REC_CAP:
                            armed = None
                    profile["batch_events"] += 1
                    profile["batched_ticks"] += span
                    tick = end
                    offset = tick % period
                    moved = 0
                    continue
                if armed is None:
                    moved = 0
                    for dou in dous:
                        moved += dou.step()
                    for column in edge_objs[offset]:
                        if column.halted:
                            continue
                        cindex = column.index
                        credit = credits[cindex]
                        if credit:
                            credits[cindex] = credit - 1
                            continue
                        runner = runners[cindex]
                        if runner is not None:
                            # tick is this column's edge
                            # (tick % d == 0), so the edges left in
                            # the window are a pure ceiling division.
                            divider = dividers[cindex]
                            consumed = runner.run_edges(
                                (limit - tick + divider - 1)
                                // divider
                            )
                            if consumed:
                                credits[cindex] = consumed - 1
                                continue
                        column.step_tile_clock()
                        if column.halted:
                            live -= 1
                    stepped_ticks += 1
                    tick += 1
                    offset += 1
                    if offset == period:
                        offset = 0
                    continue
                # Armed: the same tick, instrumented with the
                # occupancy snapshots and per-DOU stat deltas the
                # round compiler needs.  One round per signature pays
                # this; the steady state never does.
                occ_cur = armed.occ()
                per_dou = []
                moved = 0
                for dou in dous:
                    state_pre = dou.state_index
                    blocked_pre = dou.blocked_cycles
                    retired_pre = dou.words_retired
                    bus = dou.bus
                    bus_words_pre = bus.words_moved
                    bus_traffic_pre = bus.cycles_with_traffic
                    counters_pre = tuple(dou.counters)
                    words = dou.step()
                    moved += words
                    occ_next = armed.occ()
                    per_dou.append((
                        state_pre, words, occ_next != occ_cur,
                        dou.blocked_cycles - blocked_pre,
                        bus.words_moved - bus_words_pre,
                        bus.cycles_with_traffic - bus_traffic_pre,
                        dou.words_retired - retired_pre,
                        dou.state_index,
                        tuple(
                            (i, v)
                            for i, v in enumerate(dou.counters)
                            if v != counters_pre[i]
                        ),
                        occ_cur,
                    ))
                    occ_cur = occ_next
                acts = []
                for column in edge_objs[offset]:
                    if column.halted:
                        continue
                    cindex = column.index
                    credit = credits[cindex]
                    if credit:
                        credits[cindex] = credit - 1
                        acts.append((0, cindex))
                        continue
                    runner = runners[cindex]
                    if runner is not None:
                        divider = dividers[cindex]
                        pre_pc = column.controller.pc
                        consumed = runner.run_edges(
                            (limit - tick + divider - 1) // divider
                        )
                        if consumed:
                            credits[cindex] = consumed - 1
                            ctrl = column.controller
                            acts.append((
                                1, cindex, pre_pc, consumed,
                                ctrl.pc, runner.comm_head(pre_pc),
                                len(ctrl._loop_stack),
                            ))
                            continue
                    column.step_tile_clock()
                    ctrl = column.controller
                    acts.append((
                        3, cindex, ctrl.pc, column.halted,
                        ctrl._pending is not None,
                        len(ctrl._loop_stack),
                    ))
                    if column.halted:
                        live -= 1
                armed.items.append((
                    "t", occ_cur, tuple(per_dou), tuple(acts),
                ))
                if len(armed.items) > LOCKSTEP_REC_CAP:
                    armed = None
                stepped_ticks += 1
                tick += 1
                offset += 1
                if offset == period:
                    offset = 0
            profile["dense_ticks"] += stepped_ticks
            if self._demotable and tick < limit:
                before = len(self._stepped)
                self._demote_quiescent()
                if len(self._stepped) != before:
                    # The stepped set changed: recorded items are no
                    # longer aligned with it; restart the hunt.
                    sigs.clear()
                    armed = None
        return tick

    # ------------------------------------------------------------------
    # lockstep round replay
    # ------------------------------------------------------------------
    def _lock_buffers(self):
        """The communication-buffer universe, built once per engine.

        ``(deques, capacities, id(deque) -> index)`` over every buffer
        a recorded round's behaviour can depend on: tile read/write
        buffers (real capacities, registered first) plus every deque
        reachable from a DOU port or compiled state plan.  Occupancy
        snapshots, drift windows, and post-tick checks all index this
        one universe.
        """
        universe = self._lock_universe
        if universe is not None:
            return universe
        deques: list = []
        caps: list = []
        index_of: dict = {}

        def add(words, cap):
            j = index_of.get(id(words))
            if j is None:
                index_of[id(words)] = len(deques)
                deques.append(words)
                caps.append(cap)
            elif cap < caps[j]:
                caps[j] = cap

        for column in self.chip.columns:
            for tile in column.tiles:
                add(tile.read_buffer._words, tile.read_buffer.capacity)
                add(tile.write_buffer._words,
                    tile.write_buffer.capacity)
        for dou in self._all_dous:
            for buffer in dou.write_ports.values():
                add(buffer._words, buffer.capacity)
            for buffer in dou.read_ports.values():
                add(buffer._words, buffer.capacity)
            for plan in dou._plans:
                if plan is None:
                    continue
                for src_words, destinations in plan.blocks:
                    add(src_words, _OCC_UNBOUNDED)
                    for dest_words, capacity in destinations:
                        add(dest_words, capacity)
        universe = (tuple(deques), tuple(caps), index_of)
        self._lock_universe = universe
        return universe

    def _lock_fingerprint(self) -> int:
        """Interned structural identity for the shared plan cache.

        Pins everything a round's unvalidated integer deltas were
        derived from: the full column programs, each DOU's program
        (states, transfers, counters), and the buffer universe's
        capacity layout.  Two chips with equal fingerprints are
        behaviourally interchangeable at equal signatures.
        """
        fp = self._lock_fp
        if fp is None:
            deques, caps, index_of = self._lock_buffers()
            key = (
                tuple(
                    (len(column.tiles),
                     _program_text(column.controller.program))
                    for column in self.chip.columns
                ),
                tuple(
                    _program_text(dou.program) for dou in self._all_dous
                ),
                caps,
            )
            fp = _FP_INTERN.get(key)
            if fp is None:
                if len(_FP_INTERN) >= _SHARED_LOCK_CAP:
                    _clear_shared_plans()
                fp = next(_FP_IDS)
                _FP_INTERN[key] = fp
            self._lock_fp = fp
        return fp

    def _lock_paths(self) -> dict:
        """``id(obj) -> structural path`` over every bindable object."""
        path_of = self._lock_path_of
        if path_of is None:
            path_of = {}
            for i, column in enumerate(self.chip.columns):
                path_of[id(column)] = ("c", i)
                path_of[id(column.controller)] = ("t", i)
            for i, runner in enumerate(self._runners):
                if runner is not None:
                    path_of[id(runner)] = ("r", i)
            for i, dou in enumerate(self._all_dous):
                path_of[id(dou)] = ("d", i)
                if dou.bus is not None:
                    path_of[id(dou.bus)] = ("b", i)
                for s, plan in enumerate(dou._plans):
                    if plan is not None:
                        path_of[id(plan)] = ("p", i, s)
                for s, lap in enumerate(dou._lap_plans):
                    if lap is not None:
                        path_of[id(lap)] = ("l", i, s)
            deques, _caps, _index_of = self._lock_buffers()
            for j, words in enumerate(deques):
                path_of[id(words)] = ("q", j)
            self._lock_path_of = path_of
        return path_of

    def _lock_resolve(self, path):
        """Structural path -> this engine's machine object."""
        kind = path[0]
        if kind == "q":
            return self._lock_buffers()[0][path[1]]
        if kind == "d":
            return self._all_dous[path[1]]
        if kind == "p":
            return self._all_dous[path[1]]._plans[path[2]]
        if kind == "l":
            return self._all_dous[path[1]]._lap_plans[path[2]]
        if kind == "b":
            return self._all_dous[path[1]].bus
        if kind == "c":
            return self.chip.columns[path[1]]
        if kind == "t":
            return self.chip.columns[path[1]].controller
        return self._runners[path[1]]

    def _lock_share(self, sig, plan, binds) -> None:
        """Publish a freshly built plan to the shared cache."""
        path_of = self._lock_paths()
        paths = []
        for obj in binds:
            path = path_of.get(id(obj))
            if path is None:
                return  # an unmapped bind: keep the plan engine-local
            paths.append(path)
        if len(_SHARED_LOCK_PLANS) >= _SHARED_LOCK_CAP:
            _clear_shared_plans()
        key = (self._lock_fingerprint(), sig)
        _SHARED_LOCK_PLANS[key] = (
            plan.source, tuple(paths), plan.adds, plan.period,
        )
        plan.gkey = key

    def _lock_probe(self, sig):
        """Rebind a shared plan for ``sig``, or None on a miss."""
        key = (self._lock_fingerprint(), sig)
        entry = _SHARED_LOCK_PLANS.get(key)
        if entry is None:
            return None
        source, paths, adds, period = entry
        try:
            binds = [self._lock_resolve(path) for path in paths]
        except (IndexError, TypeError):
            del _SHARED_LOCK_PLANS[key]
            return None
        plan = _RoundPlan(
            period, _round_maker(source)(binds), adds, source,
        )
        plan.gkey = key
        return plan

    def _lock_signature(self, tick: int, period: int):
        """Safepoint fingerprint for lockstep round detection.

        Occupancies, loop counters, and DOU word counters are
        deliberately excluded — they drift monotonically across rounds
        whose *behaviour* repeats.  Everything excluded here is instead
        revalidated live, per operation, during replay.
        """
        dous = self._all_dous
        stepped = self._stepped
        return (
            tick % period, self.chip.clock.dividers,
            tuple(stepped), tuple(self._credits),
            tuple([dous[i].state_index for i in stepped]),
            tuple([
                (
                    ctrl.halted, ctrl.pc, ctrl.mask,
                    ctrl._pending is not None, ctrl._stall_pending,
                    tuple([frame[0] for frame in ctrl._loop_stack]),
                )
                for ctrl in self._controllers
            ]),
        )

    def _lock_replay(self, plan, tick, limit, credits, profile):
        """Replay as many whole recorded rounds as fit before *limit*.

        Returns ``(tick, rounds)``.  A round that aborts midway has
        still executed real primitives up to the abort point, so the
        partially advanced tick is always kept.
        """
        rounds = 0
        period = plan.period
        fn = plan.fn
        while tick + period <= limit:
            ok, tick = fn(tick, limit, credits)
            if not ok:
                break
            rounds += 1
        if rounds:
            profile["lockstep_batches"] += rounds
            adds = plan.adds
            profile["batch_events"] += adds[0] * rounds
            profile["batched_ticks"] += adds[1] * rounds
            profile["dense_ticks"] += adds[2] * rounds
            profile["parked_edges"] += adds[3] * rounds
            profile["orbit_laps"] += adds[4] * rounds
            profile["fused_runner_calls"] += adds[5] * rounds
        if BUS.active:
            if rounds:
                BUS.instant(
                    "lockstep_replay", tick=tick, track="engine",
                    args={
                        "rounds": rounds,
                        "round_ticks": period,
                        "orbit_laps": plan.adds[4] * rounds,
                    },
                )
            else:
                BUS.instant(
                    "lockstep_abort", tick=tick, track="engine",
                    args={"round_ticks": period},
                )
        return tick, rounds

    # ------------------------------------------------------------------
    # post-window settlement
    # ------------------------------------------------------------------
    def _settle_window(
        self, start: int, end: int, initial_cycles: list,
        dou_cycles: list,
    ) -> None:
        """Reconstruct everything the striding skipped in [start, end).

        On every skipped clock edge of a halted column the reference
        engine would have recorded exactly one bubble tile cycle (the
        controller refuses to fetch past HALT); edges suppressed by a
        PLL-relock gate are skipped by both engines and owe nothing.
        Every DOU's cycle counter must advance by exactly the window
        span (the reference loop steps every machine every tick), so
        any shortfall - a machine inert from the start, or demoted to
        quiescence partway through the window - is settled in closed
        form through :meth:`~repro.arch.dou.Dou.fast_forward`.  The
        clock tree is constant within a window (retunes commit only
        between windows), so ``edges_in`` is exact.
        """
        chip = self.chip
        clock = chip.clock
        span = end - start
        if span <= 0:
            return
        for index, column in enumerate(chip.columns):
            gate = chip.clock_gate_until[index]
            low = min(end, max(start, gate))
            owed = (
                clock.edges_in(index, low, end)
                - (column.tile_cycles - initial_cycles[index])
            )
            if owed:
                column.tile_cycles += owed
                column.controller.bubbles += owed
        for index, dou in enumerate(self._all_dous):
            owed = span - (dou.cycles - dou_cycles[index])
            if owed:
                dou.fast_forward(owed)

    def _drain(self, ticks: int) -> None:
        """Drain the buses for ``ticks`` after every column halted.

        A live DOU may still hold in-flight words at halt time, so the
        dense drain steps those faithfully - but a machine that has
        already parked in a quiescent orbit (a ``repeat=k`` schedule
        whose repeats are done) is demoted first and never stepped;
        its drain cycles, the owed bubble edges, and every other
        non-stepped DOU settle arithmetically.
        """
        profiling = self.profile_enabled
        mark = perf_counter() if profiling else 0.0
        chip = self.chip
        start = chip.reference_ticks
        initial_cycles = [
            column.tile_cycles for column in chip.columns
        ]
        dou_cycles = [dou.cycles for dou in self._all_dous]
        self._demote_quiescent()
        if self._stepped:
            dous = [self._all_dous[index] for index in self._stepped]
            for _ in range(ticks):
                for dou in dous:
                    dou.step()
        self._settle_window(
            start, start + ticks, initial_cycles, dou_cycles
        )
        chip.reference_ticks = start + ticks
        if profiling:
            self._profile["drain_s"] += perf_counter() - mark
        if BUS.active:
            BUS.span("drain", start, start + ticks, track="engine")


#: Engine registry by name - the lookup behind :func:`create_engine`
#: and the pattern :data:`repro.control.governor.GOVERNOR_KINDS`
#: mirrors for governors.
ENGINES = {
    ReferenceEngine.name: ReferenceEngine,
    CompiledEngine.name: CompiledEngine,
}

#: Name that resolves to the fastest engine safe for the run shape.
AUTO_ENGINE = "auto"

#: Profiling hook for callers that never see the engine object.  The
#: kernel and scenario runners build their simulators internally, so
#: a benchmark driver that wants ``profile_snapshot()`` after a run
#: sets this to a list before invoking the workload:  every
#: :class:`CompiledEngine` built through :func:`create_engine` while
#: it is set has ``profile_enabled`` switched on and is appended, and
#: the driver reads the snapshots off the registered engines when the
#: workload returns.  Owned by ``repro.eval.engines``; not
#: thread-safe; ``None`` (the default) costs the hot path nothing.
#:
#: .. deprecated::
#:     Kept as a compatibility shim for existing benchmark drivers.
#:     New consumers should read the typed
#:     :attr:`CompiledEngine.metrics` registry on an engine they
#:     hold, or subscribe a sink to :data:`repro.obs.events.BUS` when
#:     they never see the engine object - see
#:     ``docs/observability.md``.
PROFILE_REGISTRY: list | None = None


def create_engine(
    name: str, chip: Chip, observers: tuple = ()
) -> Engine:
    """Instantiate an engine by registry name.

    ``"auto"`` picks the compiled fast path when no observers are
    attached (tick-accurate visibility is not needed, and an ``until``
    predicate at run time still falls back to the shared tick loop);
    with observers it picks the reference engine outright.

    Raises
    ------
    ConfigurationError
        For names outside the registry - a configuration mistake, not
        a simulation failure, so it is distinguishable from runtime
        errors like deadlocked schedules.
    """
    if name == AUTO_ENGINE:
        name = ReferenceEngine.name if observers else CompiledEngine.name
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None
    engine = factory(chip, observers)
    if PROFILE_REGISTRY is not None and isinstance(engine, CompiledEngine):
        engine.profile_enabled = True
        PROFILE_REGISTRY.append(engine)
    return engine
