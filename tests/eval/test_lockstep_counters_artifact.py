"""The CI striding-counter validator: tools/check_lockstep_counters."""

import importlib.util
import json
from pathlib import Path

_TOOL = (
    Path(__file__).parents[2] / "tools" / "check_lockstep_counters.py"
)
_spec = importlib.util.spec_from_file_location(
    "check_lockstep_counters", _TOOL
)
check_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_counters)


def _payload():
    workloads = {}
    for key, counters in check_counters.REQUIRED_COUNTERS.items():
        profile = workloads.setdefault(key, {"profile": {}})["profile"]
        profile.update({counter: 3 for counter in counters})
    for key, counters in check_counters.REQUIRED_ZERO_COUNTERS.items():
        profile = workloads.setdefault(key, {"profile": {}})["profile"]
        profile.update({counter: 0 for counter in counters})
    return {"artifact": "BENCH_engine", "workloads": workloads}


def test_zero_table_watches_interpreter_on_governed_burst():
    assert "dou_interpreted_cycles" in \
        check_counters.REQUIRED_ZERO_COUNTERS["governed_burst"]


def test_zero_table_watches_lockstep_on_governed_burst():
    zero = check_counters.REQUIRED_ZERO_COUNTERS["governed_burst"]
    for counter in (
        "lockstep_armed", "lockstep_built", "lockstep_declined",
        "lockstep_batches",
    ):
        assert counter in zero
    # The run-to-completion probe keeps its positive row.
    assert "lockstep_batches" in \
        check_counters.REQUIRED_COUNTERS["ddc_pipeline"]


def test_governed_lockstep_engagement_fails():
    # A governed burst whose epochs take lockstep safepoints reads
    # about 152 batches and 7 declines at smoke size: both must fail,
    # each reported on its own.
    payload = _payload()
    profile = payload["workloads"]["governed_burst"]["profile"]
    profile["lockstep_batches"] = 152
    profile["lockstep_declined"] = 7
    failures = check_counters.check(payload)
    assert len(failures) == 2
    assert any("lockstep_batches is 152" in f for f in failures)
    assert any("lockstep_declined is 7" in f for f in failures)


def test_clean_artifact_passes():
    assert check_counters.check(_payload()) == []


def test_unengaged_tier_fails():
    payload = _payload()
    payload["workloads"]["ddc_pipeline"]["profile"]["orbit_laps"] = 0
    failures = check_counters.check(payload)
    assert len(failures) == 1 and "orbit_laps" in failures[0]


def test_nonzero_must_be_zero_counter_fails():
    payload = _payload()
    profile = payload["workloads"]["governed_burst"]["profile"]
    profile["dou_interpreted_cycles"] = 12
    failures = check_counters.check(payload)
    assert len(failures) == 1
    assert "dou_interpreted_cycles is 12" in failures[0]


def test_missing_counter_fails_in_both_tables():
    payload = _payload()
    del payload["workloads"]["governed_burst"]["profile"][
        "dou_interpreted_cycles"
    ]
    del payload["workloads"]["ddc_pipeline"]["profile"]["orbit_laps"]
    failures = check_counters.check(payload)
    assert len(failures) == 2
    assert all("missing" in failure for failure in failures)


def test_missing_workload_or_profile_fails():
    payload = _payload()
    del payload["workloads"]["governed_burst"]
    payload["workloads"]["ddc_pipeline"] = {}
    failures = check_counters.check(payload)
    assert len(failures) == 2
    assert any("'governed_burst' missing" in f for f in failures)
    assert any("no profile" in f for f in failures)


def test_main_exit_codes(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps(_payload()))
    assert check_counters.main([str(path)]) == 0
    payload = _payload()
    payload["workloads"]["governed_burst"]["profile"][
        "dou_interpreted_cycles"
    ] = 1
    path.write_text(json.dumps(payload))
    assert check_counters.main([str(path)]) == 1
