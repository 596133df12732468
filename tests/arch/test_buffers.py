"""Communication buffer semantics."""

import pytest

from repro.errors import SimulationError
from repro.arch.buffers import CommBuffer


def test_fifo_order():
    buffer = CommBuffer("b", capacity=4)
    for value in (1, 2, 3):
        buffer.push(value)
    assert [buffer.pop() for _ in range(3)] == [1, 2, 3]


def test_overflow_raises():
    buffer = CommBuffer("b", capacity=2)
    buffer.push(1)
    buffer.push(2)
    assert buffer.is_full
    with pytest.raises(SimulationError):
        buffer.push(3)


def test_underflow_raises():
    buffer = CommBuffer("b")
    with pytest.raises(SimulationError):
        buffer.pop()
    with pytest.raises(SimulationError):
        buffer.peek()


def test_peek_does_not_consume():
    buffer = CommBuffer("b")
    buffer.push(7)
    assert buffer.peek() == 7
    assert len(buffer) == 1


def test_words_wrap_to_32_bits():
    buffer = CommBuffer("b")
    buffer.push(-1)
    assert buffer.pop() == 0xFFFFFFFF


def test_counters():
    buffer = CommBuffer("b")
    buffer.push(1)
    buffer.push(2)
    buffer.pop()
    assert buffer.total_pushed == 2
    assert buffer.total_popped == 1


def test_clear():
    buffer = CommBuffer("b")
    buffer.push(1)
    buffer.clear()
    assert buffer.is_empty


def test_capacity_validation():
    with pytest.raises(ValueError):
        CommBuffer("b", capacity=0)


def test_push_all_matches_per_word_pushes():
    bulk, single = CommBuffer("a", capacity=4), CommBuffer("b", capacity=4)
    bulk.push_all([1, -1, 3])
    for value in (1, -1, 3):
        single.push(value)
    assert list(bulk._words) == list(single._words) == [1, 0xFFFFFFFF, 3]
    assert bulk.total_pushed == single.total_pushed == 3


def test_push_all_overflow_enqueues_nothing():
    buffer = CommBuffer("b", capacity=2)
    buffer.push(1)
    with pytest.raises(SimulationError, match="overflow"):
        buffer.push_all([2, 3])
    assert len(buffer) == 1
    assert buffer.total_pushed == 1
