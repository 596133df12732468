"""Host-speed probe: a fixed pure-Python loop timed between ops.

The benchmark's host does not run at one speed.  On the 2-CPU
container the benchmark was built on, the same op ran in phases
about 1.45x apart, each lasting from seconds to minutes, with no
change in CPU time versus wall time (the host, not the scheduler,
slowed down).  A 20-second run cannot average such phases out.

So every op is bracketed by this probe, which uses no simulator
code, and its latency is scaled by ``REFERENCE_S`` over the mean of
its two probe times: host time as if the host ran at the probe's
reference speed.  Set-up is bracketed by ``SETUP_PROBES`` probes on
each side and scaled by their median.  Raw figures are kept beside
the scaled ones in every result.
"""

from __future__ import annotations

from time import perf_counter

#: The probe's time between ops on the reference container in its
#: fast phase (0.50-0.57 ms across workloads).
REFERENCE_S = 0.00055

#: Probes timed before and again after set-up, for its scale.
SETUP_PROBES = 25


class _Pair:
    __slots__ = ("a", "b")


def _loop() -> float:
    pair = _Pair()
    pair.a, pair.b = 0, 1
    table: dict = {}
    start = perf_counter()
    for i in range(3000):
        table[i & 63] = pair.a
        pair.a = (pair.a + pair.b + table.get((i * 7) & 63, 1)) % 1009
    return perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe loop takes now.

    The loop runs twice and the second run is timed, so the caches
    the previous op left behind do not leak into the host's speed.
    """
    _loop()
    return _loop()
