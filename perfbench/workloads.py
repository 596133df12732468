"""The benchmark's three workloads and the checks on their outputs.

Each workload turns the benchmark seed into inputs, sets itself up
(imports, construction, any warm-up pass), and runs a timed window of
*ops* through an :class:`OpLog`, which times every op and captures
a small summary of every simulated result.  The summaries are
compared exactly against the expected records in ``expected/`` after
the window, outside the timed region.

* ``fuzz_cold`` - a ``(seed, index)`` slice of the generated corpus
  through :func:`repro.eval.fuzz.evaluate`, serial, in a fresh
  interpreter with no warm-up: every case is a new structure, so
  first-sighting cost (engine construction, lazy lockstep recording
  and ``compile()``, column codegen) dominates.
* ``apps_warm`` - the five paper apps x the three governors, one
  ``run_pipeline(..., engine="compiled")`` per op, after one untimed
  pass: long governed runs where plan caches hit, so striding tiers,
  governors, harness and ledger do the work.
* ``kernels_warm`` - the five engine microbenchmark chips on the
  compiled engine, all five per op, after one untimed pass: the only
  programs that reach the LD/ST/MAC codegen, numpy loop batching and
  sparse striding of ``arch/column_exec.py``.
"""

from __future__ import annotations

import json
import random
import traceback
from pathlib import Path
from time import perf_counter

from perfbench.probe import probe
from perfbench.spans import OP

EXPECTED = Path(__file__).resolve().parent / "expected"

#: The fuzz slice covers whole stratification blocks: any
#: ``FUZZ_BLOCK`` consecutive indices hold every (app, topology) class.
FUZZ_BLOCK = 15

#: Generated cases per second of requested run length (about 0.65 s
#: of host time per case on the seed tree, 2-CPU container).
FUZZ_CASES_PER_SECOND = 1.5

#: The corpus the benchmark slices: seed 11 is the fuzz CI lane's
#: first seed.  Every run covers the same cases, in an order the
#: benchmark seed shuffles - distinct corpora differ in cost by far
#: more than the benchmark's bounds (see README.md), so a held-out
#: corpus is a separate, explicit check (``run.py --corpus-seed``).
FUZZ_CORPUS_SEED = 11

#: Expected records hold this many cases per recorded corpus seed.
FUZZ_RECORDED_CASES = 60


def fuzz_count(seconds: int) -> int:
    """Cases in the fuzz slice for a run of ``seconds``."""
    blocks = max(1, round(seconds * FUZZ_CASES_PER_SECOND / FUZZ_BLOCK))
    return min(blocks * FUZZ_BLOCK, FUZZ_RECORDED_CASES)


def pipeline_summary(result) -> dict:
    """What a governed pipeline run must reproduce exactly."""
    return {
        "reference_ticks": result.run.stats.reference_ticks,
        "energy_nj": result.energy_nj,
        "transitions": result.transition_count,
        "deadline_misses": result.deadline_misses,
        "exit_words": result.produced_samples[-1][1],
    }


def stats_summary(stats) -> dict:
    """What an ungoverned kernel run must reproduce exactly."""
    return {
        "reference_ticks": stats.reference_ticks,
        "issued": sum(column.issued for column in stats.columns),
        "tile_cycles": sum(column.tile_cycles for column in stats.columns),
        "bus_words": stats.total_bus_words,
        "horizontal_words": stats.horizontal_words,
    }


def load_expected(workload: str) -> dict:
    """``{key: summary}`` recorded from the reference engine."""
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text())["records"]


class OpLog:
    """Latency, captured outputs and failures of one timed window."""

    def __init__(self, recorder=None, probe=None) -> None:
        self.recorder = recorder
        #: ``probe() -> seconds``, timed around every op when given:
        #: ``probes`` holds the mean of each op's two probes and
        #: ``probe_s`` their summed time.
        self.probe = probe
        self.probes: list = []
        self.probe_s = 0.0
        self.latencies: list = []
        #: (op index, record key, summary) per simulated result.
        self.captures: list = []
        #: op index -> failure message.
        self.failures: dict = {}

    def run(self, fn, *args):
        """Time one op; a raising op is recorded as failed."""
        before = self.probe() if self.probe is not None else 0.0
        op = len(self.latencies)
        recorder = self.recorder
        if recorder is not None:
            recorder.op = op
            span = recorder.enter(OP)
        result = None
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failures[op] = traceback.format_exc(limit=4)
        finally:
            elapsed = perf_counter() - start
            if recorder is not None:
                recorder.exit(span)
                recorder.op = -1
        self.latencies.append(elapsed)
        if self.probe is not None:
            after = self.probe()
            self.probes.append((before + after) / 2)
            self.probe_s += before + after
        return result

    def capture(self, key: str, summary: dict) -> None:
        """Record one simulated result of the op now running."""
        self.captures.append((len(self.latencies), key, summary))

    @property
    def sim_ticks(self) -> int:
        """Simulated reference ticks summed over every engine run."""
        return sum(s["reference_ticks"] for _, _, s in self.captures)

    def check(self, expected: dict) -> None:
        """Fail every op whose outputs differ from ``expected``."""
        for op, key, summary in self.captures:
            want = expected.get(key)
            if want != summary and op not in self.failures:
                self.failures[op] = (
                    f"{key}: output {summary} differs from the "
                    f"expected record {want}"
                )


class FuzzCold:
    """A slice of the generated corpus, cold, through ``evaluate``."""

    name = "fuzz_cold"

    def __init__(self, seed: int, seconds: int,
                 corpus_seed: int = FUZZ_CORPUS_SEED) -> None:
        self.corpus_seed = corpus_seed
        self.count = fuzz_count(seconds)
        self.order = list(range(self.count))
        random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        import repro.eval.fuzz  # noqa: F401
        import repro.workloads.generate  # noqa: F401

    def attach(self, log: OpLog, patches) -> None:
        """Route every case and pipeline run through ``log``."""
        import repro.eval.fuzz as fuzz
        import repro.workloads.generate as generate

        check_case = fuzz.check_case
        run_pipeline = generate.run_pipeline

        def case(pair):
            seed, index = pair
            return log.run(check_case, (seed, self.order[index]))

        def pipeline(scenario, *args, **kwargs):
            result = run_pipeline(scenario, *args, **kwargs)
            log.capture(scenario.key, pipeline_summary(result))
            return result

        patches.set(fuzz, "check_case", case)
        patches.set(generate, "run_pipeline", pipeline)

    def window(self, log: OpLog, seconds: float) -> None:
        import repro.eval.fuzz as fuzz

        fuzz.evaluate(self.corpus_seed, self.count, processes=1)

    counts_pass = window


class _Warm:
    """Whole passes over a fixed op set after one untimed pass."""

    name = ""

    def __init__(self, seed: int, seconds: int, corpus_seed=None) -> None:
        self.seed = seed
        self.warm_log = None

    def warm_up(self) -> None:
        """The untimed pass; its outputs are checked too.

        Its ops are probed like timed ops, so the set-up time can be
        scaled op by op (``metrics.setup_time``).
        """
        log = self.warm_log = OpLog(probe=probe)
        self.run_pass(log)
        log.check(load_expected(self.name))
        if log.failures:
            raise RuntimeError(
                f"{self.name} warm-up failed: "
                f"{next(iter(log.failures.values()))}"
            )

    def attach(self, log: OpLog, patches) -> None:
        pass

    def run_pass(self, log: OpLog) -> None:
        raise NotImplementedError

    def window(self, log: OpLog, seconds: float) -> None:
        """Whole passes until ``seconds`` have elapsed."""
        deadline = perf_counter() + seconds
        while True:
            self.run_pass(log)
            if perf_counter() >= deadline:
                break

    def counts_pass(self, log: OpLog, seconds: float) -> None:
        """Exactly one pass, so counters repeat exactly."""
        self.run_pass(log)


class AppsWarm(_Warm):
    """The five paper apps x three governors, compiled, warm."""

    name = "apps_warm"

    def setup(self) -> None:
        from repro.eval.coordinated import GOVERNORS, SCENARIOS
        from repro.workloads import coordinated

        # Looked up per op, so a traced run sees its wrapper.
        self.coordinated = coordinated
        self.ops = [
            (f"{key}/{governor}", factory(), governor)
            for key, factory in SCENARIOS.items()
            for governor in GOVERNORS
        ]
        random.Random(self.seed).shuffle(self.ops)
        self.warm_up()

    def _op(self, log: OpLog, key: str, scenario, governor: str) -> None:
        result = self.coordinated.run_pipeline(
            scenario, governor, engine="compiled"
        )
        log.capture(key, pipeline_summary(result))

    def run_pass(self, log: OpLog) -> None:
        for key, scenario, governor in self.ops:
            log.run(self._op, log, key, scenario, governor)


class KernelsWarm(_Warm):
    """The five engine microbenchmark chips, compiled, warm."""

    name = "kernels_warm"

    def setup(self) -> None:
        from repro.eval.engines import WORKLOADS

        self.kernels = [
            (key, runner) for key, (_, runner) in WORKLOADS.items()
        ]
        random.Random(self.seed).shuffle(self.kernels)
        self.warm_up()

    def _op(self, log: OpLog) -> None:
        for key, runner in self.kernels:
            log.capture(key, stats_summary(runner("compiled")))

    def run_pass(self, log: OpLog) -> None:
        log.run(self._op, log)


WORKLOADS = {
    cls.name: cls for cls in (FuzzCold, AppsWarm, KernelsWarm)
}
