"""Assert the compiled engine's striding tiers engaged in a bench run.

The speedup floors catch a perf regression only on full-size runs;
what they cannot see is a *guard* regression - a change that makes
lockstep rounds, fused comm-headed runner calls, or orbit laps
silently stop engaging while the dense fallback still produces
correct (bit-identical) statistics at a fraction of the speed.  On
smoke-sized CI runs the wall clocks are noise but the event counters
are exact, so this tool reads a profiled ``BENCH_engine.json`` and
fails when any watched counter is zero on a workload that is known
to drive it.

``ddc_pipeline`` is the canonical probe: live DOUs on every bus keep
the orbit batcher, the lockstep compiler, and the comm-headed run
fusion all active even at smoke sizes.

A second table names counters that must be exactly zero on
``governed_burst``: a DOU cycle that fell back to the generic
interpreter (whose backpressure cycles the compiled plans cover)
means a plan stopped covering that traffic, and any lockstep
recording, build, decline, or replay means a governed epoch window
took a lockstep safepoint (rounds are confined to run-to-completion
windows).  A counter missing from the profile fails in both tables
rather than reading as zero.

Usage::

    python tools/check_lockstep_counters.py BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# workload -> profile counters that must be strictly positive there.
REQUIRED_COUNTERS = {
    "ddc_pipeline": (
        "lockstep_batches",
        "orbit_laps",
        "fused_runner_calls",
    ),
}

# workload -> profile counters that must be exactly zero there.
REQUIRED_ZERO_COUNTERS = {
    "governed_burst": (
        "dou_interpreted_cycles",
        "lockstep_armed",
        "lockstep_built",
        "lockstep_declined",
        "lockstep_batches",
    ),
}


def _profile(workloads: dict, key: str, failures: list):
    entry = workloads.get(key)
    if entry is None:
        failures.append(f"workload {key!r} missing from artifact")
        return None
    profile = entry.get("profile")
    if not isinstance(profile, dict):
        failures.append(
            f"{key}: no profile attached - run the bench with "
            f"--profile"
        )
        return None
    return profile


# (table, passes(value), status label, failure reason) per table.
_EXPECTATIONS = (
    (REQUIRED_COUNTERS, lambda value: value > 0, "NOT ENGAGED",
     "the tier never engaged"),
    (REQUIRED_ZERO_COUNTERS, lambda value: value == 0, "NOT ZERO",
     "it must be 0"),
)


def check(payload: dict) -> list:
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    workloads = payload.get("workloads", {})
    for table, passes, label, reason in _EXPECTATIONS:
        for key, counters in table.items():
            profile = _profile(workloads, key, failures)
            if profile is None:
                continue
            for counter in counters:
                if counter not in profile:
                    print(f"{key:<16} {counter:<24} {'-':>8}  MISSING")
                    failures.append(
                        f"{key}: {counter} missing from the profile"
                    )
                    continue
                value = profile[counter]
                ok = passes(value)
                status = "ok" if ok else label
                print(f"{key:<16} {counter:<24} {value:>8}  {status}")
                if not ok:
                    failures.append(
                        f"{key}: {counter} is {value} - {reason}"
                    )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a compiled-engine striding tier did "
                    "not engage, or a must-be-zero counter is not "
                    "zero, in a profiled benchmark artifact."
    )
    parser.add_argument(
        "artifact", metavar="BENCH_ENGINE_JSON",
        help="a BENCH_engine.json produced with --profile",
    )
    args = parser.parse_args(argv)
    payload = json.loads(Path(args.artifact).read_text())
    if payload.get("artifact") != "BENCH_engine":
        print(
            f"FAIL: not a BENCH_engine artifact: "
            f"{payload.get('artifact')!r}",
            file=sys.stderr,
        )
        return 1
    failures = check(payload)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all watched striding counters engaged; zero counters zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
