#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuzz_cold --seed 3 --seconds 40 --trace 0

Run from the repository root.  Every sample runs in a fresh
interpreter (``perfbench/child.py``), one after another:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` set-up-only processes, then
  one process that sets up and runs the timed window.  Prints the
  end-to-end metrics; ``setup_s`` is the median set-up time.
* ``--trace 1``: an untraced window, a traced window (span wrappers
  installed) and a counts pass.  Prints the per-layer metrics, with
  the tracing overhead as ``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result (latencies aside) is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.workloads import FUZZ_CORPUS_SEED, WORKLOADS  # noqa: E402

OUT = BENCH / "out"

#: Set-up samples per untraced run (the median is reported).
SETUP_SAMPLES = 3

#: Every child must end within this many seconds of the start.
BUDGET_S = 170.0

#: String hashing is pinned: the simulator's host time depends on the
#: hash seed (set and dict order), and a run must reproduce from its
#: arguments alone.
HASH_SEED = "0"


def _child(args, mode: str, deadline: float, spans: Path | None = None):
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--corpus-seed", str(args.corpus_seed),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env.pop("BENCH_SMOKE", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - monotonic()), check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _failures(*results) -> dict:
    merged = {}
    for result in results:
        for op, message in result.get("failures", {}).items():
            merged[f"{result['mode']}:{op}"] = message
    return merged


def _environment(args, sample: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sample["python"],
        "numpy": sample["numpy"],
        "hash_seed": HASH_SEED,
    }


def run_untraced(args, deadline: float) -> dict:
    samples = [_child(args, "setup", deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    measure = _child(args, "measure", deadline)
    samples.append(measure)
    setups = [s["setup"] for s in samples]
    values, raw, tail = metrics.end_to_end(setups, measure)
    failures = _failures(measure)
    attempted = measure["ops"]
    failed = len(failures)
    units = dict(metrics.END_TO_END)
    print(f"{args.workload} seed {args.seed}: end to end, host times "
          f"scaled to the probe's reference speed (raw beside); tail = "
          f"p{tail['tail_percentile']} of {tail['tail_samples']} ops")
    for name, unit in metrics.END_TO_END:
        print(f"  {name:<18} {values[name]:>14.6g} {unit:<8} "
              f"raw {raw[name]:.6g}")
    print(f"  {'failed_op_ratio':<18} {failed / attempted:>14.6g} ratio")
    return {
        "environment": _environment(args, measure),
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n, _ in metrics.END_TO_END},
        "raw": raw,
        "tail": tail,
        "setup_samples": [metrics.setup_time(s) for s in setups],
        "failed_op_ratio": failed / attempted,
        "attempted": attempted,
        "failures": failures,
    }


def run_traced(args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    untraced = _child(args, "measure", deadline)
    traced = _child(args, "traced", deadline, spans)
    counts = _child(args, "counts", deadline)
    values = metrics.per_layer(traced, counts, untraced, counts["ops"])
    units = dict(metrics.PER_LAYER)
    failures = _failures(untraced, traced, counts)
    attempted = untraced["ops"] + traced["ops"] + counts["ops"]
    print(f"{args.workload} seed {args.seed}: per layer, self seconds "
          f"per pass of {counts['ops']} ops (raw host time); tracing "
          f"overhead {values['trace.overhead']:.3f}")
    for name, unit in metrics.PER_LAYER:
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    return {
        "environment": _environment(args, traced),
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n, _ in metrics.PER_LAYER},
        "pass_ops": counts["ops"],
        "layers": traced["layers"],
        "spans_file": str(spans.relative_to(ROOT)),
        "attempted": attempted,
        "failures": failures,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus-seed", type=int, default=FUZZ_CORPUS_SEED,
        help="fuzz_cold only: the generated corpus to slice, for "
             "held-out checks (must have expected records)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = monotonic() + BUDGET_S
    # The only build step: byte-compile the sources once, so the
    # first set-up sample does not pay for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        result = (run_traced if args.trace else run_untraced)(
            args, deadline
        )
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    target = OUT / (f"{args.workload}-seed{args.seed}-"
                    f"trace{args.trace}.json")
    target.write_text(json.dumps(result, indent=2) + "\n")
    for key, message in result["failures"].items():
        print(f"FAILED {key}: {message}", file=sys.stderr)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
