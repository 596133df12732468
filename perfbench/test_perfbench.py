"""The benchmark's own tests: metric arithmetic, span self time,
output checks, and agreement with ``BENCHMARK.json``.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.spans import Patches, SpanRecorder, aggregate, self_times
from perfbench.workloads import WORKLOADS, OpLog, load_expected

ROOT = Path(__file__).resolve().parent.parent


def _beyond(n: int, percentile: int) -> int:
    return n - math.ceil(percentile * n / 100)


@pytest.mark.parametrize("n, percentile", [
    (11, 9), (30, 66), (60, 83), (75, 86), (600, 98), (2000, 99),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    samples = [float(i) for i in range(n)]
    got, value = metrics.tail(samples)
    assert got == percentile
    assert _beyond(n, got) >= metrics.TAIL_BEYOND
    if got < 99:
        assert _beyond(n, got + 1) < metrics.TAIL_BEYOND
    assert value == sorted(samples)[math.ceil(got * n / 100) - 1]


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_end_to_end_scales_host_time_to_the_reference_speed():
    measure = {
        "latencies": [0.001 * (i + 1) for i in range(60)],
        "probes": [0.002] * 30 + [0.001] * 30,
        "window_s": 2.0, "ops": 60, "sim_ticks": 4_000_000,
        "peak_rss_kb": 2048,
    }
    setups = [
        {"setup_s": 3.0, "probe_s": 0.002,
         "warm_latencies": [], "warm_probes": []},
        {"setup_s": 1.0, "probe_s": 0.001,
         "warm_latencies": [], "warm_probes": []},
        {"setup_s": 2.0, "probe_s": 0.002,
         "warm_latencies": [1.0], "warm_probes": [0.0005]},
    ]
    values, raw, tail = metrics.end_to_end(setups, measure,
                                           reference_s=0.001)
    names = [name for name, _ in metrics.END_TO_END]
    assert list(values) == names and list(raw) == names
    assert tail == {"tail_percentile": 83, "tail_samples": 60}
    # Scaled samples: 3.0 / 2 = 1.5; 1.0; (2.0 - 1.0) / 2 + 1.0 * 2.
    assert raw["setup_s"] == 2.0 and values["setup_s"] == 1.5
    assert raw["ops_per_s"] == 30.0
    assert raw["op_p50_ms"] == pytest.approx(30.5)
    assert raw["op_tail_ms"] == pytest.approx(50.0)
    assert raw["sim_mticks_per_s"] == 2.0
    assert values["peak_rss_mb"] == raw["peak_rss_mb"] == 2.0
    # The first 30 ops ran on a host at half the reference speed.
    speed = (sum(range(1, 31)) / 2 + sum(range(31, 61))) / sum(range(1, 61))
    assert values["ops_per_s"] == pytest.approx(30.0 / speed)
    assert values["sim_mticks_per_s"] == pytest.approx(2.0 / speed)
    assert values["op_p50_ms"] == pytest.approx((15.0 + 31.0) / 2)
    assert values["op_tail_ms"] == pytest.approx(50.0)


def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = aggregate(spans + [["a", 11.0, 12.0, -1, 1]])
    assert table["a"] == {"count": 2, "total_s": 4.0, "self_s": 3.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["x", 0.0, 10.0, -1, 0],
        ["y", 1.0, 5.0, 0, 0],
        ["z", 3.0, 7.0, 0, 0],
        ["w", 9.0, 12.0, 0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_spans_and_tallies_results():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: (1, 2, 3), "inner", tally=len)
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    recorder.op = 7
    assert outer() == (1, 2, 3, 1, 2, 3)
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert recorder.tallies == {"inner": 6}
    assert recorder.stack == []
    assert self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_patches_undo_restores_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    patches = Patches()
    patches.set(Child, "f", lambda self: "patched")
    assert Child().f() == "patched"
    patches.undo()
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def test_traced_case_attributes_every_second_once():
    import repro.workloads.generate as generate
    from perfbench.spans import install

    recorder = SpanRecorder()
    patches = Patches()
    install(recorder, patches)
    try:
        recorder.wrap(generate.check_case, "op")((11, 1))
    finally:
        patches.undo()
    table = aggregate(recorder.spans)
    assert {
        "generate.scenario", "invariants.check", "pipeline.compiled_cold",
        "pipeline.compiled_warm", "pipeline.reference", "arch.build_chip",
        "control.run_governed", "harness.before_epoch",
        "harness.telemetry_extras", "control.decide", "ledger.pipeline",
        "ledger.charge", "engine.construct.compiled",
        "engine.construct.reference", "engine.compiled",
        "engine.reference",
    } <= set(table)
    assert table["pipeline.compiled_cold"]["count"] == 1
    root = recorder.spans[0]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        root[2] - root[1])


def test_install_wraps_and_undo_restores_every_layer():
    import builtins

    import repro.control.epochs as epochs
    from perfbench.spans import install
    from repro.sim.engine import ReferenceEngine

    before = (epochs.create_engine, builtins.compile,
              vars(ReferenceEngine).get("advance"))
    patches = Patches()
    install(SpanRecorder(), patches)
    assert epochs.create_engine is not before[0]
    assert "advance" in vars(ReferenceEngine)
    patches.undo()
    assert (epochs.create_engine, builtins.compile,
            vars(ReferenceEngine).get("advance")) == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_check_catches_a_perturbed_expected_value(workload):
    expected = load_expected(workload)
    key, record = next(iter(expected.items()))
    log = OpLog()
    log.run(log.capture, key, dict(record))
    log.check(expected)
    assert log.failures == {}
    for field, value in record.items():
        perturbed = dict(expected)
        perturbed[key] = {**record, field: value + 1}
        log = OpLog()
        log.run(log.capture, key, dict(record))
        log.check(perturbed)
        assert list(log.failures) == [0], field


def test_a_raising_op_fails_and_the_window_goes_on():
    log = OpLog()
    log.run(lambda: 1 / 0)
    log.run(log.capture, "k", {"reference_ticks": 5})
    log.check({"k": {"reference_ticks": 5}})
    assert list(log.failures) == [0]
    assert "ZeroDivisionError" in log.failures[0]
    assert len(log.latencies) == 2 and log.sim_ticks == 5


def test_layerdiff_names_the_layer_that_moved():
    from perfbench.layerdiff import diff

    def result(compile_s, charges):
        values = {name: 0.0 for name, unit in metrics.PER_LAYER}
        values.update({"engine.lazy_compile_s": compile_s,
                       "engine.compiled_s": 1.0,
                       "ledger.charges": charges})
        units = dict(metrics.PER_LAYER)
        return {"metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in values.items()}}

    rows = diff(result(1.0, 10), result(3.0, 12))
    name, unit, before, after, delta, share_before, share_after = rows[0]
    assert (name, unit, before, after, delta) == (
        "engine.lazy_compile_s", "s/pass", 1.0, 3.0, 2.0)
    assert (share_before, share_after) == (0.5, 0.75)
    counts = [row for row in rows if row[0] == "ledger.charges"]
    assert counts == [("ledger.charges", "count", 10, 12, 2, None, None)]


def test_per_layer_reports_every_declared_metric():
    window = {"ops": 4, "window_s": 2.0, "layers": {
        "engine.compiled": {"count": 8, "total_s": 1.0, "self_s": 0.5},
    }}
    counts = {
        "ops": 2, "tallies": {"control.transitions_plan": 3},
        "layers": {"engine.compiled": {"count": 4}},
        "engine_counters": {"batched_ticks": 3, "dense_ticks": 1},
        "bus": {"lockstep_replay": 5, "lockstep_abort": 0},
    }
    values = metrics.per_layer(window, counts, {**window, "window_s": 1.0},
                               pass_ops=2)
    assert list(values) == [name for name, _ in metrics.PER_LAYER]
    assert values["engine.compiled_s"] == 0.25
    assert values["transitions.commits"] == 3
    assert values["engine.strided_fraction"] == 0.75
    assert values["trace.overhead"] == 0.5


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    assert declared == set(metrics.END_TO_END)
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert declared == set(metrics.PER_LAYER)
    assert len(metrics.PER_LAYER) == len(set(metrics.PER_LAYER))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
