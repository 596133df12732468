"""The baseline-compare tool: regression gates on BENCH_engine.json."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).parents[2] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _artifact(speedups, smoke=True):
    return {
        "artifact": "BENCH_engine",
        "smoke": smoke,
        "workloads": {
            key: {"speedup": speedup}
            for key, speedup in speedups.items()
        },
    }


def test_within_tolerance_passes(capsys):
    baseline = _artifact({"fir": 3.0, "ddc": 2.0})
    fresh = _artifact({"fir": 2.5, "ddc": 2.4})  # -17% and +20%
    assert bench_compare.compare(fresh, baseline, 0.2) == []
    out = capsys.readouterr().out
    assert "ok" in out and "REGRESSED" not in out


def test_regression_fails(capsys):
    baseline = _artifact({"fir": 3.0})
    fresh = _artifact({"fir": 2.0})  # -33%
    failures = bench_compare.compare(fresh, baseline, 0.2)
    assert len(failures) == 1 and "fir" in failures[0]
    assert "REGRESSED" in capsys.readouterr().out


def test_missing_workload_fails(capsys):
    failures = bench_compare.compare(
        _artifact({}), _artifact({"fir": 3.0}), 0.2
    )
    assert any("missing" in f for f in failures)


def test_smoke_mismatch_fails(capsys):
    failures = bench_compare.compare(
        _artifact({"fir": 3.0}, smoke=False),
        _artifact({"fir": 3.0}, smoke=True),
        0.2,
    )
    assert any("smoke" in f for f in failures)


def _profile(**overrides):
    block = {
        name: 0 for name in bench_compare.REQUIRED_PROFILE_COUNTERS
    }
    block.update(overrides)
    return block


def test_complete_profile_block_passes():
    fresh = _artifact({"fir": 3.0})
    fresh["workloads"]["fir"]["profile"] = _profile()
    assert bench_compare.compare(fresh, _artifact({"fir": 3.0}), 0.2) == []


def test_profile_with_lockstep_gate_counters_passes():
    # The compiled engine's cost-gate counters are extra profile keys;
    # the schema check and the comparison must accept them.
    fresh = _artifact({"fir": 3.0})
    fresh["workloads"]["fir"]["profile"] = _profile(
        lockstep_armed=3, lockstep_built=2, lockstep_declined=41,
    )
    assert bench_compare.compare(fresh, _artifact({"fir": 3.0}), 0.2) == []


def test_profile_missing_counters_fails_with_named_diff(capsys):
    fresh = _artifact({"fir": 3.0})
    profile = _profile()
    del profile["lockstep_batches"]
    del profile["orbit_laps"]
    fresh["workloads"]["fir"]["profile"] = profile
    failures = bench_compare.compare(fresh, _artifact({"fir": 3.0}), 0.2)
    assert len(failures) == 1
    assert "lockstep_batches" in failures[0]
    assert "orbit_laps" in failures[0]
    assert "fir" in failures[0]


def test_profile_schema_checked_on_extra_workloads():
    # A workload absent from the baseline skips the speedup gate but
    # still has its profile schema enforced.
    fresh = _artifact({"fir": 3.0, "new_workload": 1.0})
    fresh["workloads"]["new_workload"]["profile"] = {"dense_ticks": 1}
    failures = bench_compare.compare(fresh, _artifact({"fir": 3.0}), 0.2)
    assert len(failures) == 1 and "new_workload" in failures[0]


def test_profile_block_is_optional():
    # Runs without --profile carry no block; nothing to validate.
    assert bench_compare.validate_profile_schema(
        "fir", {"speedup": 3.0}
    ) == []


def test_improvements_and_extras_never_fail(capsys):
    baseline = _artifact({"fir": 3.0})
    fresh = _artifact({"fir": 30.0, "new_workload": 1.0})
    assert bench_compare.compare(fresh, baseline, 0.2) == []
    assert "unchecked: new_workload" in capsys.readouterr().out


def test_committed_baseline_is_valid():
    """The checked-in baseline parses and covers every workload."""
    from repro.eval.engines import WORKLOADS

    baseline = json.loads(
        Path(bench_compare.DEFAULT_BASELINE).read_text()
    )
    assert baseline["artifact"] == "BENCH_engine"
    assert baseline["smoke"] is True  # CI compares smoke runs
    assert set(baseline["workloads"]) == set(WORKLOADS)
    for entry in baseline["workloads"].values():
        assert entry["speedup"] > 0


def test_cli_exit_codes(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(_artifact({"fir": 3.0})))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_artifact({"fir": 3.1})))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_artifact({"fir": 1.0})))
    assert bench_compare.main(
        [str(good), "--baseline", str(baseline_path)]
    ) == 0
    assert bench_compare.main(
        [str(bad), "--baseline", str(baseline_path)]
    ) == 1


def _outcomes(**overrides):
    block = {name: 0 for name in bench_compare.OUTCOME_KEYS}
    block.update(overrides)
    return block


def test_clean_outcomes_block_passes(capsys):
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(ok=12)
    baseline = _artifact({"fir": 3.0})
    baseline["outcomes"] = _outcomes(ok=12)
    assert bench_compare.compare(fresh, baseline, 0.2) == []
    out = capsys.readouterr().out
    assert "outcome" in out and "NOT-CLEAN" not in out


def test_fresh_retries_fail_the_gate(capsys):
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(ok=11, retries=2, timed_out=2)
    failures = bench_compare.compare(
        fresh, _artifact({"fir": 3.0}), 0.2
    )
    assert len(failures) == 1 and "retries" in failures[0]
    assert "NOT-CLEAN" in capsys.readouterr().out


def test_fresh_degraded_jobs_fail_the_gate():
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(ok=12, degraded=1)
    failures = bench_compare.compare(
        fresh, _artifact({"fir": 3.0}), 0.2
    )
    assert len(failures) == 1 and "degraded" in failures[0]


def test_baseline_outcomes_never_fail_the_fresh_run(capsys):
    # Only the fresh run's cleanliness gates; a baseline recorded
    # before the counters existed (or with old faults) still compares.
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(ok=12)
    baseline = _artifact({"fir": 3.0})
    baseline["outcomes"] = _outcomes(ok=12, retries=3, degraded=1)
    assert bench_compare.compare(fresh, baseline, 0.2) == []


def test_missing_outcomes_blocks_are_forward_compatible(capsys):
    # Neither artifact has a block: no table, no failures.
    assert bench_compare.compare(
        _artifact({"fir": 3.0}), _artifact({"fir": 3.0}), 0.2
    ) == []
    assert "outcome" not in capsys.readouterr().out
    # Baseline predates the block: fresh still gated.
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(ok=12, retries=1)
    failures = bench_compare.compare(
        fresh, _artifact({"fir": 3.0}), 0.2
    )
    assert len(failures) == 1 and "retries" in failures[0]


def test_unknown_outcome_keys_and_junk_counts_are_ignored():
    fresh = _artifact({"fir": 3.0})
    fresh["outcomes"] = _outcomes(
        ok=12, future_counter=7, retries="not-a-number"
    )
    assert bench_compare.compare(
        fresh, _artifact({"fir": 3.0}), 0.2
    ) == []
