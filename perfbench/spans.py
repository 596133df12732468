"""Outside-in span recording: wrappers around the simulator's layers.

The benchmark never edits the simulator.  A traced run instead
installs wrappers, from this file, around the public functions each
layer exposes, patching every name *where its caller looks it up*
(``repro.control.epochs.create_engine``, not only
``repro.sim.engine.create_engine``), and records one span per call:
``[name, start, end, parent, op]``.  Spans stay in memory and are
written out when the run ends.

A span's *self time* is its duration minus the part of its interval
its child spans cover; summing self time by layer attributes every
traced second exactly once.
"""

from __future__ import annotations

import builtins
import functools
from time import perf_counter

#: Span name of the benchmark's own operation (the root of each tree).
OP = "op"

#: Span names whose ``builtins.compile`` children are lazy compiles
#: (made while the engine is running) rather than construction-time
#: codegen.
_RUNNING = ("engine.compiled", "engine.reference")
_CONSTRUCTING = ("engine.construct.compiled", "engine.construct.reference")


class SpanRecorder:
    """Collects nested spans from a single thread.

    ``spans`` holds ``[name, start, end, parent, op]`` lists, where
    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``op`` the benchmark operation the span belongs to (-1 outside
    any operation).
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        #: span name -> summed ``tally(result)`` of its calls.
        self.tallies: dict = {}

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def inside(self, names: tuple) -> bool:
        """Whether any open span carries one of ``names``."""
        spans = self.spans
        return any(spans[i][0] in names for i in self.stack)

    def wrap(self, fn, name, tally=None):
        """``fn`` recording one span per call.

        ``name`` is a string or ``callable(args, kwargs) -> str`` for
        spans whose name depends on the call; ``tally(result)``, when
        given, is summed per span name into :attr:`tallies`.
        """
        enter, leave, tallies = self.enter, self.exit, self.tallies

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if tally is not None:
                tallies[label] = tallies.get(label, 0) + tally(result)
            return result

        return traced


def self_times(spans: list) -> list:
    """Per-span self time: duration minus covered child time.

    Children of one span may overlap only in synthetic input (one
    thread cannot run two calls at once), so covered time is the
    length of the union of the children's intervals, clipped to the
    parent's.
    """
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        edge = start
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][1]):
            lo = max(spans[child][1], edge)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans: list) -> dict:
    """``{name: {"count", "total_s", "self_s"}}`` over all spans."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _engine_kind(args, kwargs) -> str:
    name = kwargs.get("name", args[0] if args else "auto")
    observers = kwargs.get("observers", args[2] if len(args) > 2 else ())
    if name == "auto":
        name = "reference" if observers else "compiled"
    return f"engine.construct.{name}"


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every traced layer boundary; undo with ``patches.undo()``."""
    import repro.control.epochs as epochs
    import repro.eval.fuzz as fuzz
    import repro.eval.measured as eval_measured
    import repro.power.measured as measured
    import repro.sim.batch as batch
    import repro.sim.simulator as simulator
    import repro.workloads.coordinated as coordinated
    import repro.workloads.dvfs as dvfs
    import repro.workloads.generate as generate
    from repro.control.transitions import TransitionModel
    from repro.sim.engine import CompiledEngine, Engine, ReferenceEngine

    wrap = recorder.wrap

    # sim.batch: the fuzz sweep's map (its check_case children are the
    # benchmark's op spans).
    patches.set(fuzz, "parallel_map", wrap(fuzz.parallel_map,
                                           "batch.parallel_map"))

    # workloads.generate: scenario sampling and the invariant checks;
    # the three run_pipeline calls of a case are named by their order.
    patches.set(generate, "generate_scenario",
                wrap(generate.generate_scenario, "generate.scenario"))
    patches.set(generate, "check_invariants",
                wrap(generate.check_invariants, "invariants.check"))
    case_calls = {"op": None, "n": 0}

    def case_pipeline(args, kwargs):
        if case_calls["op"] != recorder.op:
            case_calls["op"], case_calls["n"] = recorder.op, 0
        order = case_calls["n"]
        case_calls["n"] += 1
        return ("pipeline.compiled_cold", "pipeline.compiled_warm",
                "pipeline.reference")[min(order, 2)]

    patches.set(generate, "run_pipeline",
                wrap(generate.run_pipeline, case_pipeline))

    # workloads.coordinated / workloads.dvfs: the governed harnesses.
    patches.set(coordinated, "charge_pipeline_ledger",
                wrap(coordinated.charge_pipeline_ledger, "ledger.pipeline"))
    patches.set(coordinated, "run_pipeline",
                wrap(coordinated.run_pipeline, "pipeline.run"))
    patches.set(dvfs, "run_scenario",
                wrap(dvfs.run_scenario, "dvfs.run_scenario"))
    patches.set(coordinated.PipelineScenario, "build_chip",
                wrap(coordinated.PipelineScenario.build_chip,
                     "arch.build_chip"))

    def governed(run_governed):
        def run(chip, governor, *args, **kwargs):
            for key in ("before_epoch", "telemetry_extras"):
                if kwargs.get(key) is not None:
                    kwargs[key] = wrap(kwargs[key], f"harness.{key}")
            governor.decide = wrap(governor.decide, "control.decide")
            try:
                return run_governed(chip, governor, *args, **kwargs)
            finally:
                del governor.decide
        return wrap(run, "control.run_governed")

    patches.set(coordinated, "run_governed",
                governed(coordinated.run_governed))
    patches.set(dvfs, "run_governed", governed(dvfs.run_governed))

    # control: transition planning (looked up on the model instance).
    patches.set(TransitionModel, "plan",
                wrap(TransitionModel.plan, "control.transitions_plan",
                     tally=len))

    # power: every ledger charge, and conservation checks.
    for method in ("charge", "charge_gated", "charge_transition"):
        patches.set(measured.EnergyLedger, method,
                    wrap(getattr(measured.EnergyLedger, method),
                         "ledger.charge"))
    patches.set(eval_measured, "verify_conservation",
                wrap(eval_measured.verify_conservation, "ledger.verify"))

    # sim.engine: construction by kind at every call site, then the
    # engines' own advance/run by kind.
    for module in (epochs, simulator, batch):
        patches.set(module, "create_engine",
                    wrap(module.create_engine, _engine_kind))
    patches.set(CompiledEngine, "advance",
                wrap(CompiledEngine.advance, "engine.compiled"))
    patches.set(CompiledEngine, "run",
                wrap(CompiledEngine.run, "engine.compiled"))
    patches.set(ReferenceEngine, "advance",
                wrap(Engine.advance, "engine.reference"))
    patches.set(ReferenceEngine, "run",
                wrap(ReferenceEngine.run, "engine.reference"))

    # builtins.compile: lockstep rounds and column codegen, split by
    # whether the engine was running or being constructed.
    def compile_kind(args, kwargs):
        if recorder.inside(_RUNNING):
            return "engine.lazy_compile"
        if recorder.inside(_CONSTRUCTING):
            return "engine.construct_compile"
        return "compile.other"

    patches.set(builtins, "compile", wrap(builtins.compile, compile_kind))
