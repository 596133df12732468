"""Pinned single-column DVFS numbers at the smoke trace length.

Each bursty scenario under each governor must reproduce the recorded
run exactly: energy to the last bit, conservation error, statistics,
transition and epoch counts, the produced-word samples, the frequency
residency, and the static provisioning divider.  The records were
generated by the dedicated single-column harness this code replaced,
so any drift in the shared pipeline harness shows up here.

Regenerate (only for a deliberate, explained change) with::

    PYTHONPATH=src python tests/eval/test_dvfs_records.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.eval.dvfs import (
    GOVERNORS,
    SCENARIOS,
    _SMOKE_FRAMES,
    bench_payload,
    evaluate_scenario,
)

RECORDS = Path(__file__).with_name("dvfs_records.json")


def _jsonable(value):
    return json.loads(json.dumps(value))


def _record(result, static_divider: int) -> dict:
    return _jsonable({
        "energy_nj": result.energy_nj.hex(),
        "conservation_error": result.conservation_error,
        "stats": asdict(result.run.stats),
        "transitions": result.transition_count,
        "epochs": len(result.run.timeline),
        "produced_samples": result.produced_samples,
        "residency": sorted(result.frequency_residency(0).items()),
        "static_divider": static_divider,
    })


def _records(key: str) -> dict:
    results = evaluate_scenario(key, frames=_SMOKE_FRAMES)
    payload = bench_payload({key: results})
    divider = payload["scenarios"][key]["static_divider"]
    return {kind: _record(results[kind], divider) for kind in GOVERNORS}


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_scenario_reproduces_its_records(key):
    expected = json.loads(RECORDS.read_text())[key]
    actual = _records(key)
    assert set(actual) == set(expected)
    for kind in GOVERNORS:
        for field, value in expected[kind].items():
            assert actual[kind][field] == value, (key, kind, field)


if __name__ == "__main__":
    RECORDS.write_text(json.dumps(
        {key: _records(key) for key in sorted(SCENARIOS)}, indent=1
    ) + "\n")
