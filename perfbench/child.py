"""One benchmark process: set a workload up, then run one pass kind.

``run.py`` starts this module in a fresh interpreter for every
sample, so process-global caches always start empty.  Modes:

* ``setup`` - set up and report the set-up time only;
* ``measure`` - set up, run the timed window untraced;
* ``traced`` - the same window with span wrappers installed;
* ``counts`` - one counted pass (the whole slice for ``fuzz_cold``)
  with span wrappers, the event bus and every compiled engine's
  ``profile_snapshot()`` read - counts only, its clock is not used.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from time import perf_counter

from perfbench.probe import SETUP_PROBES, probe

MODES = ("setup", "measure", "traced", "counts")

#: Bus instants counted in the counts pass.
BUS_INSTANTS = ("lockstep_replay", "lockstep_abort")


def _collect_engines(patches, engines: list) -> None:
    """Keep every engine built during the pass, at every call site."""
    import repro.control.epochs as epochs
    import repro.sim.batch as batch
    import repro.sim.simulator as simulator

    for module in (epochs, simulator, batch):
        create = module.create_engine

        def collected(*args, _create=create, **kwargs):
            engine = _create(*args, **kwargs)
            engines.append(engine)
            return engine

        patches.set(module, "create_engine", collected)


def _engine_counters(engines: list) -> dict:
    """Summed exact counters of every compiled engine."""
    from repro.sim.engine import CompiledEngine

    totals: dict = {"engines": 0}
    for engine in engines:
        if not isinstance(engine, CompiledEngine):
            continue
        totals["engines"] += 1
        for key, value in engine.profile_snapshot().items():
            if not key.endswith("_s"):
                totals[key] = totals.get(key, 0) + value
    return totals


def run(workload_name: str, seed: int, seconds: int, mode: str,
        corpus_seed: int, spans_path: str | None = None) -> dict:
    from perfbench.spans import Patches, SpanRecorder, aggregate, install
    from perfbench.workloads import WORKLOADS, OpLog, load_expected

    workload = WORKLOADS[workload_name](seed, seconds, corpus_seed)
    # The simulator is first imported inside setup(); probes bracket it.
    probes = [probe() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    workload.setup()
    setup_s = perf_counter() - start
    probes += [probe() for _ in range(SETUP_PROBES)]
    warm = getattr(workload, "warm_log", None) or OpLog()
    result = {
        "mode": mode,
        "setup": {
            "setup_s": setup_s - warm.probe_s,
            "probe_s": statistics.median(probes),
            "warm_latencies": warm.latencies,
            "warm_probes": warm.probes,
        },
    }
    if mode == "setup":
        return result

    recorder = SpanRecorder() if mode in ("traced", "counts") else None
    log = OpLog(recorder, probe if mode == "measure" else None)
    patches = Patches()
    engines: list = []
    bus_counts = {name: 0 for name in BUS_INSTANTS}
    workload.attach(log, patches)
    if recorder is not None:
        install(recorder, patches)
    try:
        if mode == "counts":
            from repro.obs.events import BUS

            def count(event):
                if event.kind == "instant" and event.name in bus_counts:
                    bus_counts[event.name] += 1

            _collect_engines(patches, engines)
            BUS.subscribe(count)
            try:
                workload.counts_pass(log, seconds)
            finally:
                BUS.unsubscribe(count)
            window_s = 0.0
        else:
            start = perf_counter()
            workload.window(log, seconds)
            window_s = perf_counter() - start - log.probe_s
    finally:
        patches.undo()

    log.check(load_expected(workload.name))
    import numpy

    result.update({
        "ops": len(log.latencies),
        "window_s": window_s,
        "latencies": log.latencies,
        "probes": log.probes,
        "failures": {str(op): msg for op, msg in log.failures.items()},
        "sim_ticks": log.sim_ticks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    if recorder is not None:
        result["layers"] = aggregate(recorder.spans)
        result["tallies"] = recorder.tallies
        result["spans"] = len(recorder.spans)
        if spans_path:
            with open(spans_path, "w") as handle:
                json.dump(recorder.spans, handle)
    if mode == "counts":
        result["engine_counters"] = _engine_counters(engines)
        result["bus"] = bus_counts
    return result


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode,
                 args.corpus_seed, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
