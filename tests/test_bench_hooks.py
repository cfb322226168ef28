"""The benchmark's tracing hooks still find what they wrap.

``bench/layers.instrument`` wraps functions and methods by name and reads
attributes of their results (``sol.ham.matrix`` for the solver's node
count).  A rename in the package breaks it only when the benchmark runs,
so this test runs a fresh interpreter that instruments ``src/``, runs one
small op of each workload traced, and checks every per-layer metric.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, math, random, sys
sys.path[:0] = [{bench!r}, {src!r}]
import layers, workloads
from tracer import Tracer
from heliumdot import cli


def small(op):
    # one point per sweep, at --vmin, so each call is quick
    calls = [list(argv) for argv in op.calls]
    for argv in calls:
        if "--n" in argv:
            argv[argv.index("--n") + 1] = "1"
            argv[argv.index("--vmax") + 1] = argv[argv.index("--vmin") + 1]
    return calls


rng = random.Random(0)
[levels] = workloads.levels_block(rng, 0, 0.5)
pair = next(op for op in workloads.clusters_block(rng, 0, 0.5) if "2" in op.calls[0])
readme = next(op for op in workloads.readout_block(rng, 0, 0.5) if "401" in op.calls[0])
workloads.write_dome_maps("maps.json")
tracer = Tracer()
layers.instrument(tracer)
tracer.enabled = True
for argv in small(levels) + small(pair) + small(readme):
    assert cli.main(argv) == 0, argv
tracer.enabled = False
print(json.dumps({{name: value for name, (value, unit) in
                  layers.layer_metrics(tracer, 3).items()}}))
"""


def test_traced_workload_calls_give_finite_layer_metrics(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    script = _SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []
    # the hooks fired: a wrapper that no call reaches reads zero
    for name in ("potential.eval_calls", "potential.compose_s", "cluster.hessian_s",
                 "qsolver.nodes", "fitters.lsq_calls", "io.bytes_read"):
        assert metrics[name] > 0, name
