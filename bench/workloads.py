"""Workload inputs, the CLI calls of one op, and each op's correctness check.

Inputs come only from the seed, through ``random.Random(seed)``, so they do
not change with the numpy version.  Ops come in blocks: a run always ends on
a block boundary, and a block holds each input class in a fixed share (the
point counts of ``readout``, the cluster sizes of ``clusters``), so every
run sees the same mix and a median never sits on the edge between classes.
Voltage windows follow a golden-ratio sequence from a seeded start, so a
short run still covers the whole window range evenly.

Oracles use CODATA constants written here, not the program's own.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

E = 1.602176634e-19  # C
M_E = 9.1093837015e-31  # kg
GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz

# Gridded dome shared by ``levels`` and ``clusters``: lever arm
# exp(-(x/A)^2 - (y/B)^2) on an odd grid over +-HALF, so the dome top is a
# grid node, with a Gaussian differential-coupling gradient for the shift.
DOME_A_UM = 1.0
DOME_B_UM = 0.7
DOME_HALF_UM = 1.0
DOME_NODES = 81


@dataclass
class Op:
    """One closed-loop operation: CLI calls run in order, the files they
    write, and the true values its check compares against."""

    index: int
    calls: list
    outputs: tuple
    truth: dict = field(default_factory=dict)


def write_dome_maps(path):
    """Coupling-map JSON of the shared dome, in the format the CLI loads."""
    n = DOME_NODES
    axis = [DOME_HALF_UM * (2.0 * i / (n - 1) - 1.0) for i in range(n)]
    dome = [[math.exp(-(x / DOME_A_UM) ** 2 - (y / DOME_B_UM) ** 2) for x in axis]
            for y in axis]
    grad = [[0.15 * math.exp(-(x * x + y * y) / (2 * 0.5**2)) for x in axis] for y in axis]
    payload = {
        "x_axis_um": axis,
        "y_axis_um": axis,
        "electrodes": {"trap": dome},
        "resonator_diff_grad_per_um": grad,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def digest(paths):
    """SHA-256 over the named output files, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# readout: synth target, synth far-detuned, compensate, fit rabi
# ---------------------------------------------------------------------------

# Device of the README chain: 7.162 GHz, crosstalk t=0.008, zeta=-0.30, SNR 50.
_DEVICE = ["--f-res-ghz", "7.162", "--crosstalk-t", "0.008", "--crosstalk-zeta", "-0.30",
           "--snr", "50", "--span-mhz", "1000"]
_F_EL_MHZ = 7162.0
_GAMMA2_MHZ = 75.0


def readout_block(rng, start, u):
    # Three README-sized traces for each 1601-point one: the median times the
    # 401-point chain, the tail the long traces.
    points = [401, 401, 401, 1601]
    rng.shuffle(points)
    ops = []
    for k, n_points in enumerate(points):
        g_mhz = rng.uniform(80.0, 150.0)
        target_seed = rng.randrange(2**31)
        far_seed = rng.randrange(2**31)
        calls = [
            ["synth", *_DEVICE, "--f-el-ghz", repr(_F_EL_MHZ / 1e3), "--g-mhz", repr(g_mhz),
             "--seed", str(target_seed), "--points", str(n_points), "--out", "trace.csv"],
            ["synth", *_DEVICE, "--seed", str(far_seed), "--points", str(n_points),
             "--out", "far.csv"],
            ["compensate", "--far", "far.csv", "--target", "trace.csv", "--out", "comp.csv"],
            ["fit", "rabi", "--trace", "comp.csv", "--far", "far.csv", "--out", "fit.json"],
        ]
        outputs = ("trace.csv", "trace.csv.json", "far.csv", "far.csv.json", "comp.csv",
                   "comp.csv.json", "comp.csv.comp.json", "fit.json")
        ops.append(Op(start + k, calls, outputs, {"g_mhz": g_mhz}))
    return ops


def readout_check(op):
    """Criterion 1: g, gamma_2 and f_e within 3, 5 and 4 MHz of the truth."""
    with open("fit.json", encoding="utf-8") as fh:
        params = json.load(fh)["params"]
    g_true = op.truth["g_mhz"]
    g = params["g"]["value"] / 1e6
    gamma_2 = params["gamma_2"]["value"] / 1e6
    f_e = params["omega_e"]["value"] / 1e6
    ok = (abs(g - g_true) <= 3.0 and abs(gamma_2 - _GAMMA2_MHZ) <= 5.0
          and abs(f_e - _F_EL_MHZ) <= 4.0)
    return ok, abs(g - g_true) / g_true


# ---------------------------------------------------------------------------
# levels: qsolve of a harmonic trap, then a 3-point freq sweep on the dome
# ---------------------------------------------------------------------------


def levels_block(rng, start, u):
    fx_ghz = rng.uniform(4.0, 9.0)
    fy_ghz = fx_ghz * rng.uniform(1.0, 1.5)
    vmin = 0.2 + 0.1 * u
    calls = [
        ["qsolve", "--a1x", repr(0.5 * M_E * (fx_ghz * GHZ) ** 2),
         "--a1y", repr(0.5 * M_E * (fy_ghz * GHZ) ** 2),
         "--seed", str(rng.randrange(2**31)), "--out", "levels.json"],
        ["sweep", "freq", "--maps", "maps.json", "--electrode", "trap",
         "--vmin", repr(vmin), "--vmax", repr(vmin + 0.1), "--n", "3",
         "--seed", str(rng.randrange(2**31)), "--out", "freq.csv"],
    ]
    return [Op(start, calls, ("levels.json", "freq.csv"), {"f01_ghz": fx_ghz})]


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def levels_check(op):
    """Residuals below 1e-8, no sweep flags, and qsolve f01 within 2e-3 of
    the closed-form harmonic f01 (the lower trap frequency)."""
    with open("levels.json", encoding="utf-8") as fh:
        levels = json.load(fh)
    truth = op.truth["f01_ghz"]
    err = abs(levels["f01_GHz"] - truth) / truth
    rows = _csv_rows("freq.csv")
    ok = (
        err <= 2e-3
        and max(levels["residuals"]) < 1e-8
        and len(rows) == 3
        and all(r["flags"] == "" and float(r["residual"]) < 1e-8 for r in rows)
    )
    return ok, err


# ---------------------------------------------------------------------------
# clusters: one 5-point shift sweep per op, N in {1, 2, 4}
# ---------------------------------------------------------------------------

# Two ops each of N = 2 and N = 4 per block: the median op is then the
# median N = 2 op and the tail op about the median N = 4 op (the tail keeps
# ten ops beyond it), each size two fifths of the run.  Larger clusters are
# left out because their sweeps abort on saddles (see bench/README.md), and
# a benchmark op must not fail.
CLUSTER_SIZES = (1, 2, 2, 4, 4)


def clusters_block(rng, start, u):
    ops = []
    for k, n_el in enumerate(CLUSTER_SIZES):
        # each op of the block walks its own shifted copy of the window sequence
        vmin = 0.2 + 0.1 * ((u + k / len(CLUSTER_SIZES)) % 1.0)
        calls = [["sweep", "shift", "--maps", "maps.json", "--electrode", "trap",
                  "--vmin", repr(vmin), "--vmax", repr(vmin + 0.1), "--n", "5",
                  "--n-electrons", str(n_el), "--seed", str(rng.randrange(2**31)),
                  "--out", "shift.csv"]]
        # only one electron has an oracle: the dome-top modes below
        truth = _dome_modes_per_sqrt_v() if n_el == 1 else {}
        ops.append(Op(0, calls, ("shift.csv",), truth))
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op.index = start + k
    return ops


def _dome_modes_per_sqrt_v():
    """Closed-form modes of one electron on top of the dome, in GHz per
    sqrt(V): the energy -e V exp(-(x/A)^2 - (y/B)^2) has curvatures
    2 e V / A^2 and 2 e V / B^2."""
    low, high = sorted(math.sqrt(2.0 * E / (M_E * (r * 1e-6) ** 2)) / GHZ
                       for r in (DOME_A_UM, DOME_B_UM))
    return {"mode_low_ghz_per_sqrt_v": low, "mode_high_ghz_per_sqrt_v": high}


def clusters_check(op):
    """Every point converged; for one electron, both modes match the dome's
    closed form to 1%."""
    rows = _csv_rows("shift.csv")
    ok = len(rows) == 5 and all(r["converged"] == "true" for r in rows)
    err = None
    if op.truth:
        per_sqrt_v = (op.truth["mode_low_ghz_per_sqrt_v"], op.truth["mode_high_ghz_per_sqrt_v"])
        err = 0.0
        for r in rows:
            modes = [float(f) for f in r["mode_freqs_GHz"].split(";")]
            root_v = math.sqrt(float(r["voltage_V"]))
            err = max(err, max(abs(m - c * root_v) / (c * root_v)
                               for m, c in zip(modes, per_sqrt_v)))
        ok = ok and err <= 1e-2
    return ok, err


@dataclass(frozen=True)
class Workload:
    block: object
    check: object
    # Share of completed ops that must pass for the run to count as correct.
    pass_share: float
    needs_maps: bool


WORKLOADS = {
    # Criterion 1 asks 18 of 20 seeds to recover within tolerance, not all.
    "readout": Workload(readout_block, readout_check, 0.9, False),
    "levels": Workload(levels_block, levels_check, 1.0, True),
    "clusters": Workload(clusters_block, clusters_check, 1.0, True),
}

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def blocks(workload, rng, wrong_oracle=False):
    """Endless blocks of ops for one workload, numbered from 0.

    With ``wrong_oracle`` every true value is scaled by 1.5, far outside
    every check's tolerance, so each op with an oracle must fail its check.
    """
    start = 0
    u = rng.random()
    while True:
        ops = workload.block(rng, start, u)
        if wrong_oracle:
            for op in ops:
                op.truth = {k: 1.5 * v for k, v in op.truth.items()}
        start += len(ops)
        u = (u + GOLDEN) % 1.0
        yield ops
