"""Tile read/write communication buffers (paper Section 2.3).

Each tile owns a read and a write buffer with a dual purpose: adapting
the tile's voltage to the bus voltage (columns may run at different
supplies) and aligning a word onto the desired split of the global
data bus.  We model them as bounded FIFOs; overflow/underflow under a
strict static schedule is a scheduling bug and raises.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError


class CommBuffer:
    """A bounded FIFO of 32-bit words."""

    def __init__(self, name: str, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        # The backing deque is bound by compiled DOU transfer plans
        # (repro.arch.dou_exec); it must never be reassigned.
        self._words: deque = deque()
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return len(self._words)

    @property
    def is_empty(self) -> bool:
        """True when no word is queued."""
        return not self._words

    @property
    def is_full(self) -> bool:
        """True when another push would overflow."""
        return len(self._words) >= self.capacity

    def push(self, value: int) -> None:
        """Enqueue one word; raises on overflow."""
        if self.is_full:
            raise SimulationError(
                f"{self.name}: buffer overflow (capacity {self.capacity})"
            )
        self._words.append(value & 0xFFFFFFFF)
        self.total_pushed += 1

    def push_all(self, values) -> None:
        """Enqueue every word of ``values`` in order at once.

        Equivalent to calling :meth:`push` per word, except that an
        overflow raises before any word is enqueued - the bulk
        counterpart of :meth:`drain` for feeding whole frames.
        """
        if len(self._words) + len(values) > self.capacity:
            raise SimulationError(
                f"{self.name}: buffer overflow (capacity {self.capacity})"
            )
        self._words.extend(value & 0xFFFFFFFF for value in values)
        self.total_pushed += len(values)

    def pop(self) -> int:
        """Dequeue one word; raises on underflow."""
        if self.is_empty:
            raise SimulationError(f"{self.name}: buffer underflow")
        self.total_popped += 1
        return self._words.popleft()

    def peek(self) -> int:
        """The word a pop would return, without removing it."""
        if self.is_empty:
            raise SimulationError(f"{self.name}: peek on empty buffer")
        return self._words[0]

    def drain(self) -> int:
        """Dequeue every queued word at once; returns the count.

        Equivalent to calling :meth:`pop` until empty (the popped
        values are discarded) - harnesses that only count produced
        words use this instead of a per-word loop.
        """
        count = len(self._words)
        if count:
            self._words.clear()
            self.total_popped += count
        return count

    def clear(self) -> None:
        """Drop all queued words (startup/reset)."""
        self._words.clear()
