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
executed by one streaming worker column (``recv / work / send`` per
word) behind the column's input port - the voltage-adapting
inter-domain buffer whose fill level the occupancy governor watches.
Every column is its own clock domain, so a single governed column is
a one-stage :class:`~repro.workloads.coordinated.PipelineScenario`:
:func:`run_scenario` is :func:`~repro.workloads.coordinated.run_pipeline`,
which feeds frames at their arrival ticks, counts deadline misses
against per-frame completion, and charges an
:class:`~repro.power.measured.EnergyLedger` epoch by epoch at the
time-varying operating point (transition energy included,
conservation exact).  The governors are ``static`` (worst-case
provisioning), ``occupancy_pi`` and ``slack``.
"""

from __future__ import annotations

import numpy as np

# Re-exported with run_scenario: perfbench's layer profiler patches
# both names on this module.
from repro.control.epochs import run_governed
from repro.workloads.coordinated import (
    PipelineScenario,
    PipelineStage,
    _mcs_loads,
    run_pipeline as run_scenario,
)

__all__ = [
    "mpeg4_scene_scenario",
    "run_governed",
    "run_scenario",
    "wlan_mcs_scenario",
]


def _worker_scenario(name: str, key: str, loads: tuple) -> PipelineScenario:
    """One streaming worker column (six work cycles per word)."""
    return PipelineScenario(
        name=name,
        key=key,
        frame_loads=loads,
        stages=(PipelineStage("worker", 6),),
        provision_guard=1.15,
    )


def wlan_mcs_scenario(
    frames: int = 24, seed: int = 7
) -> PipelineScenario:
    """802.11a receive with runtime modulation changes."""
    return _worker_scenario(
        "WLAN variable MCS", "wlan_mcs", _mcs_loads(frames, seed)
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
) -> PipelineScenario:
    """MPEG-4 encode with scene-dependent motion load."""
    return _worker_scenario(
        "MPEG-4 scene changes", "mpeg4_scene", _scene_loads(frames, seed)
    )
