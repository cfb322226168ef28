"""Which heliumdot functions the traced run wraps, and the per-layer metrics.

Each public function is wrapped at the attribute its callers look up:
``cli`` calls ``io.*``, ``cavity.*``, ``fitters.*``, ``potential.*``,
``qsolver.*`` and ``cluster.*`` through the module, ``fitters`` calls its
own ``least_squares``, ``cluster`` its own ``minimize``, ``compose`` (imported
from ``potential``), ``total_energy`` and ``total_hessian``, and every field
evaluation goes through ``PotentialField.evaluate``.  ``analytic`` and
``core`` do no measurable work in any workload and are not wrapped.

Times and counts are reported per traced op, so runs of different length
compare; fractions and maxima are over the whole run.
"""

from __future__ import annotations

import os

import numpy as np

# Counters that must repeat exactly for the same op inputs.
EXACT_COUNTERS = (
    "fitters.lm_steps",
    "cluster.descent_iters",
    "cluster.energy_evals",
    "potential.eval_points",
    "qsolver.nodes",
)


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _bytes(counter, arg_index, sidecar=False):
    """Count hook adding the size of the file a call names at ``arg_index``
    (or ``path=``), plus its ``.json`` sidecar if it has one."""

    def count(tracer, result, args, kwargs):
        path = args[arg_index] if len(args) > arg_index else kwargs["path"]
        tracer.counters[counter] += _size(path) + (_size(path + ".json") if sidecar else 0)

    return count


def _count_lsq(tracer, fit, args, kwargs):
    tracer.counters["fitters.lsq_calls"] += 1
    tracer.counters["fitters.lm_steps"] += fit.iterations
    clean = fit.converged and not (fit.flags.get("stalled") or fit.flags.get("max_iter"))
    tracer.counters["fitters.lsq_clean"] += int(bool(clean))


def _count_eval(tracer, result, args, kwargs):
    tracer.counters["potential.eval_calls"] += 1
    tracer.counters["potential.eval_points"] += int(np.size(result))


def _count_eig(tracer, sol, args, kwargs):
    tracer.counters["qsolver.solves"] += 1
    tracer.counters["qsolver.nodes"] += int(sol.ham.matrix.shape[0])
    tracer.note_max("qsolver.max_residual", float(np.max(sol.residuals)))


def _count_minimize(tracer, config, args, kwargs):
    tracer.counters["cluster.points"] += 1
    tracer.counters["cluster.descent_iters"] += config.iterations


def _count_energy(tracer, result, args, kwargs):
    tracer.counters["cluster.energy_evals"] += 1


def _count_modes(tracer, modes, args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.counters["cluster.ok_points"] += int(config.converged and not modes.is_saddle)


def instrument(tracer):
    """Wrap the public functions of the heliumdot modules."""
    from heliumdot import cavity, cli, cluster, fitters, io, potential, qsolver

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "build_parser", "cli.build_parser")

    tracer.wrap(io, "read_trace", "io.read_trace",
                count=_bytes("io.bytes_read", 0, sidecar=True))
    tracer.wrap(io, "write_trace", "io.write_trace",
                count=_bytes("io.bytes_written", 1, sidecar=True))
    tracer.wrap(io, "write_fit_json", "io.write_fit_json", count=_bytes("io.bytes_written", 1))
    tracer.wrap(io, "write_compensation_json", "io.write_compensation_json",
                count=_bytes("io.bytes_written", 2))
    tracer.wrap(io, "write_shift_sweep_csv", "io.write_shift_sweep_csv",
                count=_bytes("io.bytes_written", 1))
    tracer.wrap(io, "write_freq_sweep_csv", "io.write_freq_sweep_csv",
                count=_bytes("io.bytes_written", 1))

    tracer.wrap(cavity, "synthesize_trace", "cavity.synthesize_trace")
    tracer.wrap(cavity, "compensate_background", "cavity.compensate_background")

    tracer.wrap(fitters, "fit_bare_resonator", "fitters.fit_bare_resonator")
    tracer.wrap(fitters, "fit_rabi", "fitters.fit_rabi")
    tracer.wrap(fitters, "least_squares", "fitters.least_squares", count=_count_lsq)

    tracer.wrap(potential, "load_coupling_maps", "potential.load_coupling_maps")
    tracer.wrap(potential, "compose", "potential.compose")
    tracer.wrap(cluster, "compose", "potential.compose")
    tracer.wrap(potential.PotentialField, "evaluate", "potential.evaluate",
                record=False, count=_count_eval)

    tracer.wrap(qsolver, "auto_window", "qsolver.auto_window")
    tracer.wrap(qsolver, "build_hamiltonian", "qsolver.build_hamiltonian")
    tracer.wrap(qsolver, "eigenstates", "qsolver.eigenstates", count=_count_eig)
    tracer.wrap(qsolver, "frequency_vs_voltage", "qsolver.frequency_vs_voltage")

    tracer.wrap(cluster, "shift_vs_voltage_sweep", "cluster.shift_vs_voltage_sweep")
    tracer.wrap(cluster, "minimize", "cluster.minimize", count=_count_minimize)
    tracer.wrap(cluster, "total_energy", "cluster.total_energy", record=False,
                count=_count_energy)
    tracer.wrap(cluster, "total_hessian", "cluster.total_hessian")
    tracer.wrap(cluster, "normal_modes", "cluster.normal_modes", count=_count_modes)
    tracer.wrap(cluster, "coupled_spectrum", "cluster.coupled_spectrum")


def layer_metrics(tracer, ops):
    """Per-layer metric values from a traced run of ``ops`` ops.

    Returns {name: (value, unit)}.  Names match ``per_layer`` in
    BENCHMARK.json, apart from the tracing overhead that the runner adds.
    """
    n = max(ops, 1)
    c = tracer.counters
    tot = tracer.total_seconds
    own = tracer.self_seconds

    def per_op(seconds):
        return seconds / n

    lsq_calls = c["fitters.lsq_calls"]
    points = c["cluster.points"]
    return {
        "cli.parse_s": (per_op(tot("cli.build_parser")), "s"),
        "cli.self_s": (per_op(own("cli.main")), "s"),
        "io.write_s": (per_op(sum(tot(k) for k in tracer.totals if k.startswith("io.write"))), "s"),
        "io.read_s": (per_op(tot("io.read_trace")), "s"),
        "io.bytes_written": (c["io.bytes_written"] / n, "B"),
        "io.bytes_read": (c["io.bytes_read"] / n, "B"),
        "cavity.synth_s": (per_op(tot("cavity.synthesize_trace")), "s"),
        "cavity.compensate_self_s": (per_op(own("cavity.compensate_background")), "s"),
        "fitters.lsq_s": (per_op(tot("fitters.least_squares")), "s"),
        "fitters.lsq_calls": (lsq_calls / n, "count"),
        "fitters.lm_steps": (c["fitters.lm_steps"] / n, "count"),
        "fitters.converged_frac": (c["fitters.lsq_clean"] / lsq_calls if lsq_calls else 0.0,
                                   "fraction"),
        "potential.eval_s": (per_op(tot("potential.evaluate")), "s"),
        "potential.eval_calls": (c["potential.eval_calls"] / n, "count"),
        "potential.eval_points": (c["potential.eval_points"] / n, "count"),
        "potential.compose_s": (per_op(tot("potential.compose")), "s"),
        "potential.load_maps_s": (per_op(tot("potential.load_coupling_maps")), "s"),
        "qsolver.window_s": (per_op(tot("qsolver.auto_window")), "s"),
        "qsolver.build_s": (per_op(tot("qsolver.build_hamiltonian")), "s"),
        "qsolver.eig_s": (per_op(tot("qsolver.eigenstates")), "s"),
        "qsolver.solves": (c["qsolver.solves"] / n, "count"),
        "qsolver.nodes": (c["qsolver.nodes"] / n, "count"),
        "qsolver.max_residual": (tracer.maxima.get("qsolver.max_residual", 0.0), "1"),
        "cluster.minimize_s": (per_op(tot("cluster.minimize")), "s"),
        "cluster.descent_iters": (c["cluster.descent_iters"] / n, "count"),
        "cluster.energy_evals": (c["cluster.energy_evals"] / n, "count"),
        "cluster.hessian_s": (per_op(tot("cluster.total_hessian")), "s"),
        "cluster.modes_s": (per_op(tot("cluster.normal_modes")), "s"),
        "cluster.spectrum_s": (per_op(tot("cluster.coupled_spectrum")), "s"),
        "cluster.ok_points": (c["cluster.ok_points"] / points if points else 0.0, "fraction"),
    }
