"""heliumdot benchmark: one closed-loop client calling ``heliumdot.cli.main``.

Usage, from the repository root:

    python3 bench/run.py --workload readout|levels|clusters --seed N \
        --seconds S --trace 0|1

The run imports heliumdot from ``src/`` of the checkout, runs one untimed
warm-up op, then runs ops one at a time for ``--seconds`` of op time
(finishing the current block of ops) and checks every op's output against
its oracle.  Between ops, spread evenly over the run, it measures the set-up
cost in fresh interpreters.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every op twice, untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The line before the last is a
report with the environment, the op counts, the tail percentile and the
determinism check; the last line is the result.

See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pinned before numpy loads: one BLAS thread, one client, on a 2-core box.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Fresh-interpreter imports per untraced run, spread evenly over the run.
SETUP_RUNS = 5
# The effective speed of the shared 2-vCPU machine wanders by +-25% over
# minutes.  Untraced runs time a fixed reference kernel every REF_INTERVAL_S
# of op time and report times scaled to a machine on which the kernel takes
# REF_NOMINAL_S (see bench/README.md, "Calibrated times").
REF_INTERVAL_S = 0.25
REF_NOMINAL_S = 0.02
REF_BRACKET = 3
FINGERPRINT_OPS = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("readout", "levels", "clusters"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wrong-oracle", action="store_true",
                   help="compare against deliberately wrong truth (smoke test of the checks)")
    return p.parse_args(argv)


def reference_seconds():
    """Wall time of a fixed CPU kernel, about 20 ms here: a Python loop and
    small numpy operations, the mix the program runs.  It allocates nothing
    that outlives it, so the program's state does not change its time."""
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    a = np.arange(10_000.0)
    for _ in range(120):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def import_sample():
    """(wall, calibrated) seconds of one fresh interpreter importing
    heliumdot.cli.  One import is one moment of the machine, so it is
    calibrated by reference-kernel samples taken just before and after it,
    not by the run's median.  Call it after the in-process import, which
    has already compiled the bytecode and warmed the file cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    before = [reference_seconds() for _ in range(REF_BRACKET)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import heliumdot.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    dt = time.perf_counter() - t0
    after = [reference_seconds() for _ in range(REF_BRACKET)]
    return dt, dt * REF_NOMINAL_S / statistics.median(before + after)


class Sampler:
    """Timings of a fixed task, due every ``interval`` seconds of op time,
    at most ``limit`` of them.  Samples due during a long op are all taken
    after it."""

    def __init__(self, task, interval, limit=None):
        self.task, self.interval, self.limit = task, interval, limit
        self.samples = []
        self.due = 0.0

    def poll(self, op_clock):
        while op_clock >= self.due and (self.limit is None or len(self.samples) < self.limit):
            self.samples.append(self.task())
            self.due += self.interval


def tail(values):
    """Highest percentile with at least ten samples beyond it, never below
    the median: (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    if n - 10 <= n / 2:
        return statistics.median(s), 50.0, n // 2
    return s[n - 11], 100.0 * (n - 10) / n, 10


def median_op(records):
    """Median op time.  A failed op misses any latency target, so it ranks
    as the slowest op of the run; otherwise the early aborts of one cluster
    size would move the median between size classes from run to run."""
    slowest = max(r["dt"] for r in records)
    return statistics.median(slowest if r["error"] else r["dt"] for r in records)


def p90(values):
    """90th percentile; the worst of a few hundred noisy fits does not repeat
    from run to run, so the worst case goes to the report instead."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def run_op(cli, op, workload):
    """Run one op's CLI calls; time them, then check the outputs untimed."""
    error = None
    err_buf = _io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err_buf):
            for argv in op.calls:
                code = cli.main(argv)
                if code != 0:
                    error = f"exit {code}: {err_buf.getvalue().strip()[:200]}"
                    break
    except (Exception, SystemExit) as exc:  # a crashed op is a failed op
        error = f"{type(exc).__name__}: {exc}"[:200]
    dt = time.perf_counter() - t0
    rec = {"i": op.index, "dt": dt, "error": error, "ok": False, "oracle_err": None,
           "digest": None}
    if error is None:
        rec["digest"] = workloads.digest(op.outputs)
        rec["ok"], rec["oracle_err"] = workload.check(op)
    return rec


def environment(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "heliumdot" / "cli.py").is_file():
        sys.stderr.write(f"bench: no heliumdot sources under {SRC}\n")
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))

    import layers
    from heliumdot import cli

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        layers.instrument(tracer)

    def execute(op, traced):
        before = {k: tracer.counters[k] for k in layers.EXACT_COUNTERS}
        tracer.enabled = traced
        tracer.op = op.index
        try:
            rec = run_op(cli, op, workload)
        finally:
            tracer.enabled = False
        if traced:
            rec["counters"] = {k: tracer.counters[k] - v for k, v in before.items()}
        return rec

    records, untraced = [], []
    setup = Sampler(import_sample, args.seconds / SETUP_RUNS, SETUP_RUNS)
    reference = Sampler(reference_seconds, REF_INTERVAL_S)
    samplers = [] if args.trace else [setup, reference]
    mismatches = []
    cwd = os.getcwd()
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        os.chdir(work)
        if workload.needs_maps:
            workloads.write_dome_maps("maps.json")
        stream = workloads.blocks(workload, random.Random(args.seed), args.wrong_oracle)
        first = next(stream)
        warm = execute(first[0], bool(args.trace))
        tracer.reset()

        # the run lasts --seconds of op time (ops and their checks), which
        # leaves out the samplers' time
        op_clock = 0.0
        block = first
        while True:
            for op in block:
                for sampler in samplers:
                    sampler.poll(op_clock)
                t0 = time.perf_counter()
                if args.trace:
                    plain = execute(op, False)
                    untraced.append(plain)
                    rec = execute(op, True)
                    if plain["digest"] != rec["digest"]:
                        mismatches.append(f"op {op.index}: traced rerun wrote other bytes")
                else:
                    rec = execute(op, False)
                op_clock += time.perf_counter() - t0
                records.append(rec)
            if op_clock >= args.seconds:
                break
            block = next(stream)
        while samplers and len(setup.samples) < SETUP_RUNS:  # runs shorter than planned
            setup.poll(float("inf"))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    op0 = records[0]
    if warm["digest"] != op0["digest"]:
        mismatches.append("op 0: warm-up and timed run wrote other bytes")
    if args.trace and warm["error"] is None and warm.get("counters") != op0.get("counters"):
        mismatches.append(f"op 0: counters {warm.get('counters')} then {op0.get('counters')}")

    attempted = len(records)
    completed = [r for r in records if r["error"] is None]
    failed = attempted - len(completed)
    passed = sum(r["ok"] for r in completed)
    ok_frac = passed / len(completed) if completed else 0.0
    correct = bool(completed) and not mismatches and ok_frac >= workload.pass_share

    times = [r["dt"] for r in records]
    p50 = median_op(records)
    tail_s, tail_pct, tail_beyond = tail(times)
    oracle = [r["oracle_err"] for r in completed if r["oracle_err"] is not None]
    errors = Counter(r["error"] for r in records if r["error"])

    report = {
        "env": environment(args),
        "attempted": attempted,
        "completed": len(completed),
        "failed_frac": failed / attempted,
        "passed": passed,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "oracle_err_worst": max(oracle) if oracle else None,
        "oracle_ops": len(oracle),
        "oracle_ops_passed": sum(r["ok"] for r in completed if r["oracle_err"] is not None),
        "setup_runs_s": [dt for dt, _ in setup.samples],
        "errors": errors,
        "determinism": {
            "ok": not mismatches,
            "mismatches": mismatches[:10],
            "ops": [[r["i"], r["digest"], r.get("counters")] for r in records[:FINGERPRINT_OPS]],
        },
    }

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in layers.layer_metrics(tracer, attempted).items()}
        plain_p50 = median_op(untraced)
        metrics["trace.overhead_s"] = {"value": p50 - plain_p50, "unit": "s"}
        report["op_p50_traced_s"] = p50
        report["op_p50_untraced_s"] = plain_p50
        spans_dir = BENCH_DIR / "out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        ref_s = statistics.median(reference.samples)
        raw = {"setup_s": statistics.median(dt for dt, _ in setup.samples), "op_p50_s": p50,
               "op_tail_s": tail_s, "ops_per_s": len(completed) / sum(times)}
        report["reference_s"] = ref_s
        report["reference_samples"] = len(reference.samples)
        report["uncalibrated"] = raw
        scale = REF_NOMINAL_S / ref_s
        metrics = {
            "setup_s": {"value": statistics.median(cal for _, cal in setup.samples),
                        "unit": "s"},
            "op_p50_s": {"value": raw["op_p50_s"] * scale, "unit": "s"},
            "op_tail_s": {"value": raw["op_tail_s"] * scale, "unit": "s"},
            "ops_per_s": {"value": raw["ops_per_s"] / scale, "unit": "1/s"},
            "oracle_err": {"value": p90(oracle), "unit": "1"},
            "ok_frac": {"value": ok_frac, "unit": "fraction"},
            "completed_frac": {"value": len(completed) / attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
