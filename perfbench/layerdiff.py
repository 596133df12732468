#!/usr/bin/env python3
"""Diff two traced results layer by layer.

    python3 perfbench/layerdiff.py BEFORE.json AFTER.json [...]

Each argument is a result file written by ``run.py --trace 1``
(``perfbench/out/<workload>-seed<n>-trace1.json``); files pair up by
workload, the first half before and the second half after.  For each
workload it prints every per-layer metric before and after with its
delta, and each time metric's share of the layer total, so a
regression names its layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import PER_PASS, SPAN_METRICS  # noqa: E402

#: Self-time metrics that partition a pass's traced time; their sum is
#: the denominator of every share.
SHARE_METRICS = tuple(
    name for name, (unit, _, field) in SPAN_METRICS.items()
    if unit == PER_PASS and field == "self_s"
    and name not in ("engine.compiled_construct_s",
                     "engine.reference_construct_s")
)


def shares(metrics: dict) -> dict:
    """Each self-time metric as a share of their sum."""
    total = sum(metrics[name]["value"] for name in SHARE_METRICS
                if name in metrics)
    return {
        name: metrics[name]["value"] / total if total else 0.0
        for name in SHARE_METRICS if name in metrics
    }


def diff(before: dict, after: dict) -> list:
    """Rows ``(metric, unit, before, after, delta, share_before,
    share_after)``, largest absolute time delta first, counts last."""
    old, new = before["metrics"], after["metrics"]
    old_share, new_share = shares(old), shares(new)
    rows = []
    for name in old.keys() | new.keys():
        a = old.get(name, {}).get("value", 0.0)
        b = new.get(name, {}).get("value", 0.0)
        unit = (new.get(name) or old.get(name))["unit"]
        rows.append((name, unit, a, b, b - a,
                     old_share.get(name), new_share.get(name)))
    rows.sort(key=lambda row: (row[1] != PER_PASS, -abs(row[4]), row[0]))
    return rows


def render(workload: str, rows: list) -> str:
    lines = [
        f"== {workload}",
        f"{'metric':<34} {'unit':>6} {'before':>12} {'after':>12} "
        f"{'delta':>12} {'share':>15}",
    ]
    for name, unit, a, b, delta, sa, sb in rows:
        share = "" if sa is None else f"{sa:6.1%} -> {sb:6.1%}"
        lines.append(f"{name:<34} {unit:>6} {a:>12.6g} {b:>12.6g} "
                     f"{delta:>+12.4g} {share:>15}")
    return "\n".join(lines)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.results) % 2:
        parser.error("give as many AFTER files as BEFORE files")
    loaded = [json.loads(path.read_text()) for path in args.results]
    half = len(loaded) // 2
    befores = {r["environment"]["workload"]: r for r in loaded[:half]}
    for after in loaded[half:]:
        workload = after["environment"]["workload"]
        if workload not in befores:
            parser.error(f"no BEFORE result for {workload}")
        print(render(workload, diff(befores[workload], after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
