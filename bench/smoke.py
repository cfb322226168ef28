"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs one short block of ops and
checks that:

- the untraced run is correct and prints exactly the end-to-end metrics,
  each with its declared unit;
- two traced runs with the same seed print exactly the per-layer metrics,
  pass the in-run determinism check, and agree on the output digests and
  exact counters of every op both ran;
- a deliberately wrong oracle fails every op that has an oracle and makes
  the run incorrect, so the checks are live.  Every ``readout`` and
  ``levels`` op has an oracle, so there ``ok_frac`` drops to 0; on
  ``clusters`` only the one-electron ops have one.

It also checks that the benchmark exits non-zero without a result when the
program's sources are missing.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def check_metrics(result, declared, where):
    got = result["metrics"]
    names = {m["name"] for m in declared}
    assert set(got) == names, f"{where}: printed {sorted(set(got) ^ names)} against BENCHMARK.json"
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}"
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), \
            f"{where}: {m['name']} value {entry['value']!r}"


def check_workload(spec, name):
    seed = 7
    result, _ = run(name, seed, 0)
    assert result["correct"], f"{name}: untraced run not correct: {result}"
    assert result["attempted"] >= 1
    check_metrics(result, spec["end_to_end"], f"{name} trace 0")

    first, rep1 = run(name, seed, 1)
    second, rep2 = run(name, seed, 1)
    for res, rep in ((first, rep1), (second, rep2)):
        check_metrics(res, spec["per_layer"], f"{name} trace 1")
        assert rep["determinism"]["ok"], f"{name}: {rep['determinism']['mismatches']}"
    ops1 = rep1["determinism"]["ops"]
    ops2 = rep2["determinism"]["ops"]
    shared = min(len(ops1), len(ops2))
    assert shared >= 1
    assert ops1[:shared] == ops2[:shared], f"{name}: same-seed runs differ: {ops1} vs {ops2}"

    wrong, wrong_rep = run(name, seed, 0, "--wrong-oracle")
    assert wrong_rep["oracle_ops"] >= 1, f"{name}: no op with an oracle ran"
    assert wrong_rep["oracle_ops_passed"] == 0, f"{name}: wrong oracle still passes"
    if wrong_rep["oracle_ops"] == wrong_rep["completed"]:
        assert wrong["metrics"]["ok_frac"]["value"] == 0.0, f"{name}: ok_frac not 0"
    assert not wrong["correct"], f"{name}: wrong oracle still correct"
    print(f"ok {name}: {result['attempted']} ops, exact counters repeat over {shared} ops")


def check_without_sources():
    """Only BENCHMARK.json and bench/: must fail fast and print no result."""
    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=BENCH_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns(".smoke-*", ".work-*", "out", "__pycache__"))
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "readout",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and out.stdout.strip() == "", "ran without sources"
    print("ok without sources: exit", out.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_without_sources()
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
