"""Differential property test: ``Dou.step`` against an interpreter twin.

Both engines share ``Dou.step``, so engine bit-identity cannot see a
compiled DOU path that disagrees with the generic interpreter.  Here
a twin ``Dou`` with every plan forced to ``None`` runs the same
random states - broadcasts, multi-drive cycles, two captures into one
buffer, counter loops, random capacities and occupancies - in strict
and permissive mode, and every observable is compared after each
step.  The run must reach every dispatch branch: full transfer, pure
stall, backpressure walk and interpreter.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.arch.buffers import CommBuffer
from repro.arch.bus import SegmentedBus
from repro.arch.dou import Dou, DouProgram, DouState

N_POSITIONS = 4
N_SPLITS = 2


def _segments(closed, split):
    """Position runs of one split under a switch set."""
    runs = [[0]]
    for position in range(1, N_POSITIONS):
        if (split, position - 1) in closed:
            runs[-1].append(position)
        else:
            runs.append([position])
    return runs


@st.composite
def _state(draw, n_states, n_counters):
    closed = draw(st.frozensets(st.tuples(
        st.integers(0, N_SPLITS - 1), st.integers(0, N_POSITIONS - 2),
    )))
    drives = []
    captures = []
    for split in range(N_SPLITS):
        for run in _segments(closed, split):
            if not draw(st.booleans()):
                continue
            drives.append((draw(st.sampled_from(run)), split))
            targets = draw(st.lists(
                st.sampled_from(run), min_size=1, max_size=len(run),
                unique=True,
            ))
            captures.extend((position, split) for position in targets)
    # Rarely: a repeated or a random (maybe undriven) extra capture,
    # shapes only the interpreter may run.
    extra = draw(st.integers(0, 7))
    if captures and extra == 0:
        captures.append(draw(st.sampled_from(captures)))
    elif captures and extra == 1:
        captures.append((
            draw(st.integers(0, N_POSITIONS - 1)),
            draw(st.integers(0, N_SPLITS - 1)),
        ))
    order = draw(st.permutations(range(len(captures))))
    counter = None
    if n_counters and draw(st.booleans()):
        counter = draw(st.integers(0, n_counters - 1))
    return DouState(
        closed=closed,
        drives=tuple(drives),
        captures=tuple(captures[i] for i in order),
        counter=counter,
        next_if_zero=draw(st.integers(0, n_states - 1)),
        next_otherwise=draw(st.integers(0, n_states - 1)),
    )


@st.composite
def _case(draw):
    n_states = draw(st.integers(1, 3))
    counters = tuple(draw(st.lists(
        st.integers(0, 3), max_size=2,
    )))
    states = tuple(
        draw(_state(n_states, len(counters))) for _ in range(n_states)
    )
    program = DouProgram(states=states, counter_initial=counters)
    capacities = draw(st.lists(
        st.integers(1, 3), min_size=2 * N_POSITIONS,
        max_size=2 * N_POSITIONS,
    ))
    occupancy = [draw(st.integers(0, c)) for c in capacities]
    # Per step: (write positions to feed, read positions to drain).
    positions = st.lists(st.integers(0, N_POSITIONS - 1), max_size=4)
    steps = draw(st.lists(
        st.tuples(positions, positions), min_size=8, max_size=24,
    ))
    strict = draw(st.booleans())
    return program, capacities, occupancy, steps, strict


def _rig(program, capacities, occupancy, strict):
    bus = SegmentedBus("bus", n_positions=N_POSITIONS, n_splits=N_SPLITS)
    buffers = [
        CommBuffer(f"b{i}", capacity=capacity)
        for i, capacity in enumerate(capacities)
    ]
    for i, (buffer, count) in enumerate(zip(buffers, occupancy)):
        for word in range(count):
            buffer.push(100 * i + word)
    writes = dict(enumerate(buffers[:N_POSITIONS]))
    reads = dict(enumerate(buffers[N_POSITIONS:]))
    return Dou(program, bus, writes, reads, strict=strict), buffers


def _observe(dou, buffers):
    return (
        tuple(tuple(b._words) for b in buffers),
        tuple(b.total_pushed for b in buffers),
        tuple(b.total_popped for b in buffers),
        dou.cycles, dou.blocked_cycles, dou.words_moved,
        dou.words_retired, dou.span_words,
        dou.bus.words_moved, dou.bus.cycles_with_traffic,
        dou.state_index, tuple(dou.counters),
    )


def _branch(dou, before):
    """Which ``Dou.step`` path the last step took."""
    calls = dou.branch_calls
    if calls["interpreter"] > before["interpreter"]:
        return "interpreter"
    if calls["backpressure"] > before["backpressure"]:
        return "backpressure"
    return None  # an inline plan path


def _instrument(dou):
    dou.branch_calls = Counter()
    for name, attr in (
        ("interpreter", "_step_generic"),
        ("backpressure", "_step_backpressure"),
    ):
        method = getattr(dou, attr)

        def counted(*args, _method=method, _name=name):
            dou.branch_calls[_name] += 1
            return _method(*args)

        setattr(dou, attr, counted)


def _step(dou):
    try:
        return dou.step(), None
    except SimulationError as error:
        return None, (type(error), str(error))


def test_step_matches_interpreter_twin():
    reached = Counter()

    @given(_case())
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    def run(case):
        program, capacities, occupancy, steps, strict = case
        fast, fast_buffers = _rig(program, capacities, occupancy, strict)
        slow, slow_buffers = _rig(program, capacities, occupancy, strict)
        slow._plans = (None,) * len(program.states)
        _instrument(fast)
        for index, (feeds, drains) in enumerate(steps):
            for rig in (fast_buffers, slow_buffers):
                for position in feeds:
                    if not rig[position].is_full:
                        rig[position].push(1000 + 10 * index + position)
                for position in drains:
                    if not rig[N_POSITIONS + position].is_empty:
                        rig[N_POSITIONS + position].pop()
            before = Counter(fast.branch_calls)
            blocked = fast.blocked_cycles
            fast_result = _step(fast)
            slow_result = _step(slow)
            assert fast_result == slow_result
            assert _observe(fast, fast_buffers) == \
                _observe(slow, slow_buffers)
            branch = _branch(fast, before)
            if branch == "backpressure" and fast_result[0]:
                branch = "backpressure_partial"
            elif branch is None:
                if fast.blocked_cycles > blocked:
                    branch = "stall"
                elif fast_result[0]:
                    branch = "full"
                else:
                    branch = "idle"
            reached[branch] += 1
            if fast_result[1] is not None:
                break

    run()
    assert set(reached) >= {
        "full", "stall", "backpressure", "backpressure_partial",
        "interpreter",
    }, reached
