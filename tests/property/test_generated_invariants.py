"""Property-based invariant fuzzing over generated scenarios.

Each case regenerates one ``(seed, index)`` sample and drives it
through the standing invariant suite
(:func:`repro.workloads.generate.check_invariants`): engine
bit-identity, run determinism, zero deadline misses, energy
conservation, and balanced ledger books.  Shrinking is by
construction - a failing parameterization *is* its two-integer repro
(replay verbosely with ``python tools/repro_fuzz_case.py SEED INDEX``).

``FUZZ_SEED`` / ``FUZZ_COUNT`` select the sweep: tier-1 and CI's fuzz
matrix (seeds 11 / 23 / 47) run the small default shard, which covers
every app, every topology, and non-1:1 rate ratios.  The 200-case
sweep per seed runs once, through ``runner --fuzz``: ``check_case``
enforces every per-case assertion below and
``tools/check_fuzz_artifact.py`` the coverage.
"""

import os

import pytest

from repro.workloads.generate import (
    APPS,
    TOPOLOGIES,
    check_case,
    generate_scenario,
)

SEED = int(os.environ.get("FUZZ_SEED", "11"))
COUNT = int(os.environ.get("FUZZ_COUNT", "24"))


@pytest.mark.parametrize("index", range(COUNT))
def test_generated_case_holds_every_invariant(index):
    row = check_case((SEED, index))
    assert row["seed"] == SEED
    assert row["index"] == index
    assert row["deadline_misses"] == 0
    assert row["conservation_error"] <= 1e-9
    assert row["total_exit_words"] > 0


def test_sweep_covers_the_full_matrix():
    # The stratification makes this structural, not statistical: any
    # sweep of >= 15 cases covers every (app, topology) class, so
    # non-1:1 ratios and fork/join graphs are exercised every run.
    assert COUNT >= 15, "fuzz sweeps below 15 cases lose coverage"
    classes = {
        (generated.app, generated.topology)
        for generated in (
            generate_scenario(SEED, index) for index in range(COUNT)
        )
    }
    assert classes == {
        (app, topology) for app in APPS for topology in TOPOLOGIES
    }
