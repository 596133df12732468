"""Metric arithmetic: the tail rule and the metric tables.

Every timing is host time (``perf_counter``) unless its name says
``sim``: ``sim_mticks_per_s`` counts *simulated* reference ticks per
*host* second.  End-to-end host times are scaled to the probe's
reference host speed (``probe.py``); the raw table is kept beside.
"""

from __future__ import annotations

import math
import statistics

from perfbench.probe import REFERENCE_S

#: End-to-end metrics, ``(name, unit)``, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_mticks_per_s", "Mtick/s"),
    ("peak_rss_mb", "MiB"),
)

#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail(samples: list, beyond: int = TAIL_BEYOND) -> tuple:
    """``(percentile, value)``: the highest whole percentile with at
    least ``beyond`` samples strictly after its nearest-rank position.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"{n} samples leave none with {beyond} beyond it"
        )
    ordered = sorted(samples)
    for percentile in range(99, 0, -1):
        rank = math.ceil(percentile * n / 100)
        if n - rank >= beyond:
            return percentile, ordered[rank - 1]
    return 0, ordered[0]


def setup_time(setup: dict, reference_s: float = REFERENCE_S) -> float:
    """One set-up sample scaled to the probe's reference speed.

    The warm-up pass is scaled op by op like timed ops; the rest of
    set-up (imports, construction) by the median of the probes that
    bracket it.
    """
    warm = setup["warm_latencies"]
    scaled = sum(latency * reference_s / probe
                 for latency, probe in zip(warm, setup["warm_probes"]))
    rest = setup["setup_s"] - sum(warm)
    return rest * reference_s / setup["probe_s"] + scaled


def end_to_end(setups: list, measure: dict,
               reference_s: float = REFERENCE_S) -> tuple:
    """``(values, raw, tail)`` for one untraced run.

    ``setups`` holds one set-up sample per process; ``measure`` is the
    timed window, with one probe time per op.  ``values`` scales every
    host time to the probe's reference speed (see ``probe.py``);
    ``raw`` is the same table unscaled; ``tail`` names the tail
    percentile and its sample count.
    """
    latencies = measure["latencies"]
    scaled = [latency * reference_s / probe
              for latency, probe in zip(latencies, measure["probes"])]
    # The window's own scale: latency-weighted, so mean-based rates
    # scale exactly like the latencies they are made of.
    speed = sum(scaled) / sum(latencies)
    percentile, _ = tail(latencies)
    tables = []
    for lats, window, setup in (
        (scaled, measure["window_s"] * speed,
         [setup_time(s, reference_s) for s in setups]),
        (latencies, measure["window_s"], [s["setup_s"] for s in setups]),
    ):
        tables.append({
            "setup_s": statistics.median(setup),
            "ops_per_s": measure["ops"] / window,
            "op_p50_ms": statistics.median(lats) * 1e3,
            "op_tail_ms": tail(lats)[1] * 1e3,
            "sim_mticks_per_s": measure["sim_ticks"] / window / 1e6,
            "peak_rss_mb": measure["peak_rss_kb"] / 1024,
        })
    return tables[0], tables[1], {
        "tail_percentile": percentile, "tail_samples": len(latencies),
    }


#: Unit of per-layer times: self seconds per pass (see ``per_layer``).
PER_PASS = "s/pass"

#: Per-layer metrics: name -> (unit, span names, field).  ``count``
#: fields come from the counts pass and are exact.
SPAN_METRICS = {
    "generate.s": (PER_PASS, ("generate.scenario",), "self_s"),
    "invariants.self_s": (PER_PASS, ("invariants.check",), "self_s"),
    "batch.self_s": (PER_PASS, ("batch.parallel_map",), "self_s"),
    "pipeline.compiled_cold_s": (PER_PASS, ("pipeline.compiled_cold",),
                                 "total_s"),
    "pipeline.compiled_warm_s": (PER_PASS, ("pipeline.compiled_warm",),
                                 "total_s"),
    "pipeline.reference_s": (PER_PASS, ("pipeline.reference",), "total_s"),
    "pipeline.self_s": (PER_PASS, ("pipeline.compiled_cold",
                              "pipeline.compiled_warm",
                              "pipeline.reference", "pipeline.run"),
                        "self_s"),
    "harness.s": (PER_PASS, ("harness.before_epoch",
                        "harness.telemetry_extras"), "self_s"),
    "harness.calls": ("count", ("harness.before_epoch",
                                "harness.telemetry_extras"), "count"),
    "ledger.pipeline_s": (PER_PASS, ("ledger.pipeline",), "self_s"),
    "dvfs.run_scenario_s": (PER_PASS, ("dvfs.run_scenario",), "self_s"),
    "build_chip.s": (PER_PASS, ("arch.build_chip",), "self_s"),
    "build_chip.calls": ("count", ("arch.build_chip",), "count"),
    "run_governed.self_s": (PER_PASS, ("control.run_governed",), "self_s"),
    "governor.decide_s": (PER_PASS, ("control.decide",), "self_s"),
    "governor.decisions": ("count", ("control.decide",), "count"),
    "transitions.plan_s": (PER_PASS, ("control.transitions_plan",), "self_s"),
    "ledger.charges": ("count", ("ledger.charge",), "count"),
    "ledger.charge_s": (PER_PASS, ("ledger.charge",), "self_s"),
    "ledger.verify_s": (PER_PASS, ("ledger.verify",), "self_s"),
    "engine.construct_s": (PER_PASS, ("engine.construct.compiled",
                                 "engine.construct.reference"), "self_s"),
    "engine.constructs": ("count", ("engine.construct.compiled",
                                    "engine.construct.reference"),
                          "count"),
    "engine.compiled_construct_s": (PER_PASS, ("engine.construct.compiled",),
                                    "self_s"),
    "engine.compiled_constructs": ("count",
                                   ("engine.construct.compiled",),
                                   "count"),
    "engine.reference_construct_s": (PER_PASS,
                                     ("engine.construct.reference",),
                                     "self_s"),
    "engine.reference_constructs": ("count",
                                    ("engine.construct.reference",),
                                    "count"),
    "engine.compiled_s": (PER_PASS, ("engine.compiled",), "self_s"),
    "engine.reference_s": (PER_PASS, ("engine.reference",), "self_s"),
    "engine.lazy_compile_s": (PER_PASS, ("engine.lazy_compile",), "self_s"),
    "engine.lazy_compile_calls": ("count", ("engine.lazy_compile",),
                                  "count"),
    "engine.construct_compile_s": (PER_PASS, ("engine.construct_compile",),
                                   "self_s"),
    "engine.construct_compile_calls": ("count",
                                       ("engine.construct_compile",),
                                       "count"),
    "unattributed.self_s": (PER_PASS, ("op", "compile.other"), "self_s"),
}

#: Exact engine counters (summed ``profile_snapshot()``), by metric.
ENGINE_COUNTERS = {
    "engine.dense_ticks": "dense_ticks",
    "engine.batched_ticks": "batched_ticks",
    "engine.sparse_steps": "sparse_steps",
    "engine.parked_edges": "parked_edges",
    "engine.lockstep_batches": "lockstep_batches",
    "engine.orbit_laps": "orbit_laps",
    "engine.runner_calls": "runner_calls",
    "engine.fused_runner_calls": "fused_runner_calls",
    "engine.vector_batches": "vector_batches",
    "engine.vector_iterations": "vector_iterations",
}

#: Every per-layer metric, ``(name, unit)``, in print order.
PER_LAYER = (
    tuple((name, spec[0]) for name, spec in SPAN_METRICS.items())
    + (
        ("pipeline.cold_over_reference", "ratio"),
        ("transitions.commits", "count"),
    )
    + tuple((name, "count") for name in ENGINE_COUNTERS)
    + (
        ("engine.strided_fraction", "ratio"),
        ("engine.lockstep_replays", "count"),
        ("engine.lockstep_aborts", "count"),
        ("trace.overhead", "ratio"),
    )
)


def per_layer(traced: dict, counts: dict, untraced: dict,
              pass_ops: int) -> dict:
    """Per-layer values: self time per pass, exact counts per pass.

    ``traced`` and ``untraced`` are timed windows, ``counts`` one
    counted pass of ``pass_ops`` ops.
    """
    scale = pass_ops / traced["ops"]
    values = {}
    for name, (_, spans, field) in SPAN_METRICS.items():
        source = counts if field == "count" else traced
        total = sum(source["layers"].get(span, {}).get(field, 0)
                    for span in spans)
        values[name] = total if field == "count" else total * scale
    reference = values["pipeline.reference_s"]
    values["pipeline.cold_over_reference"] = (
        values["pipeline.compiled_cold_s"] / reference if reference else 0.0
    )
    values["transitions.commits"] = counts["tallies"].get(
        "control.transitions_plan", 0
    )
    engine = counts["engine_counters"]
    for name, key in ENGINE_COUNTERS.items():
        values[name] = engine.get(key, 0)
    strided = engine.get("batched_ticks", 0)
    dense = engine.get("dense_ticks", 0)
    values["engine.strided_fraction"] = (
        strided / (strided + dense) if strided + dense else 0.0
    )
    values["engine.lockstep_replays"] = counts["bus"]["lockstep_replay"]
    values["engine.lockstep_aborts"] = counts["bus"]["lockstep_abort"]
    values["trace.overhead"] = (
        (traced["ops"] / traced["window_s"])
        / (untraced["ops"] / untraced["window_s"])
    )
    return values
