"""Every simulation path runs with SciPy unimportable.

SciPy serves the application golden models and the tests only.  A
fresh interpreter that poisons ``sys.modules["scipy"]`` before any
other import runs one generated fuzz case, one compiled governed
pipeline per coordinated-eval app and the five engine kernels: an
``import scipy...`` anywhere on those paths raises, so a path cannot
quietly start paying SciPy's import time and memory again.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys
sys.modules["scipy"] = None

import repro.eval.coordinated as coordinated
import repro.eval.engines as engines
import repro.eval.fuzz as fuzz

row = fuzz.check_case((11, 0))
assert row["index"] == 0, row
for key, factory in coordinated.SCENARIOS.items():
    result = coordinated.run_pipeline(
        factory(), "coordinated", engine="compiled"
    )
    assert result.deadline_misses == 0, key
for key, (_, runner) in engines.WORKLOADS.items():
    assert runner("compiled").reference_ticks > 0, key
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
assert not loaded, loaded
print("ok")
"""


def test_simulation_paths_never_import_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    env["BENCH_SMOKE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
