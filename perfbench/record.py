#!/usr/bin/env python3
"""Record expected outputs from the reference engine.

    python3 perfbench/record.py apps_warm kernels_warm
    python3 perfbench/record.py fuzz_cold --corpus-seeds 24 25

Run from the repository root.  Records are added, never replaced: a
key that is already recorded is recomputed and must match, or the
command fails - so a record can never be regenerated to make a run
pass.  ``fuzz_cold`` records ``FUZZ_RECORDED_CASES`` cases for each
corpus seed given (default: the benchmark's corpus and the two
held-out corpora, 23 and 47).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    EXPECTED,
    FUZZ_CORPUS_SEED,
    FUZZ_RECORDED_CASES,
    pipeline_summary,
    stats_summary,
)

SOURCES = {
    "fuzz_cold": "generate_scenario(seed, index) under its sampled "
                 "governor, engine='reference'",
    "apps_warm": "repro.eval.coordinated.SCENARIOS x GOVERNORS, "
                 "engine='reference'",
    "kernels_warm": "repro.eval.engines.WORKLOADS, engine='reference'",
}


def fuzz_records(corpus_seeds):
    from repro.workloads.coordinated import run_pipeline
    from repro.workloads.generate import generate_scenario

    for seed in corpus_seeds:
        for index in range(FUZZ_RECORDED_CASES):
            case = generate_scenario(seed, index)
            result = run_pipeline(case.scenario, case.governor,
                                  engine="reference")
            yield case.scenario.key, pipeline_summary(result)


def apps_records():
    from repro.eval.coordinated import GOVERNORS, SCENARIOS
    from repro.workloads.coordinated import run_pipeline

    for key, factory in SCENARIOS.items():
        scenario = factory()
        for governor in GOVERNORS:
            result = run_pipeline(scenario, governor, engine="reference")
            yield f"{key}/{governor}", pipeline_summary(result)


def kernels_records():
    from repro.eval.engines import WORKLOADS

    for key, (_, runner) in WORKLOADS.items():
        yield key, stats_summary(runner("reference"))


def record(workload: str, items) -> int:
    path = EXPECTED / f"{workload}.json"
    records = json.loads(path.read_text())["records"] \
        if path.exists() else {}
    added = 0
    for key, summary in items:
        if key in records:
            if records[key] != summary:
                raise SystemExit(
                    f"{workload} {key}: reference output {summary} "
                    f"differs from the record {records[key]}; records "
                    f"are never replaced"
                )
            continue
        records[key] = summary
        added += 1
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"source": SOURCES[workload], "records": records}, indent=1
    ) + "\n")
    return added


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(SOURCES))
    parser.add_argument("--corpus-seeds", type=int, nargs="*",
                        default=[FUZZ_CORPUS_SEED, 23, 47])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        items = {
            "fuzz_cold": lambda: fuzz_records(args.corpus_seeds),
            "apps_warm": apps_records,
            "kernels_warm": kernels_records,
        }[workload]()
        print(f"{workload}: {record(workload, items)} records added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
