"""Release gate for the toolkit.

Each test here checks one numbered acceptance criterion end to end and prints
a single PASS/FAIL line with the measured numbers, so a plain pytest run
doubles as a sign-off report. Tolerances are stated inline; the assertions
use exactly the printed comparison, nothing looser.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from heliumdot import analytic, cavity, cluster, fitters, potential, qsolver
from heliumdot.analytic import BiasFilterCircuit, CubicTrap1D
from heliumdot.cavity import CrosstalkParams, TwoLevelElectron
from heliumdot.cli import main as cli_main
from heliumdot.core import (
    CONSTANTS,
    TWO_PI,
    default_resonator,
    derived_resonator_quantities,
)
from heliumdot.potential import QuarticField

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _harmonic(fx_ghz: float, fy_ghz: float):
    wx = fx_ghz * GHZ
    wy = fy_ghz * GHZ
    return QuarticField(
        a1x=0.5 * CONSTANTS.m_e * wx**2, a1y=0.5 * CONSTANTS.m_e * wy**2
    )


def _zp_window(f_ghz: float, n_lengths: float = 6.0):
    half = n_lengths * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * f_ghz * GHZ))
    return (-half, half, -half, half)


def test_criterion_01_end_to_end_recovery(res_7162, probe_half_ghz):
    """Synthetic noisy doublet traces round-trip through compensation and
    fitting: g, gamma_2, omega_e recovered within 3/5/4 MHz for at least 90%
    of 20 seeds, in under 30 s."""
    g = 118.0 * MHZ
    el = TwoLevelElectron(omega_e=res_7162.omega_r, gamma_2=75.0 * MHZ)
    ct = CrosstalkParams(t=0.008, zeta=-0.30)

    t0 = time.time()
    n_pass = 0
    worst = [0.0, 0.0, 0.0]
    for seed in range(20):
        far = cavity.synthesize_trace(
            res_7162, None, 0.0, ct, probe_half_ghz, snr=50.0, seed=1000 + seed
        )
        target = cavity.synthesize_trace(
            res_7162, el, g, ct, probe_half_ghz, snr=50.0, seed=seed
        )
        comp = cavity.compensate_background(far, target)
        res_fit, _ct_fit = fitters.resonator_from_bare_fit(comp.reference_fit)
        fit = fitters.fit_rabi(comp.compensated, res_fit)
        dg = abs(fit.params["g"] - g) / MHZ
        dgam = abs(fit.params["gamma_2"] - el.gamma_2) / MHZ
        dwe = abs(fit.params["omega_e"] - el.omega_e) / MHZ
        worst = [max(a, b) for a, b in zip(worst, (dg, dgam, dwe))]
        n_pass += dg <= 3.0 and dgam <= 5.0 and dwe <= 4.0
    elapsed = time.time() - t0

    ok = n_pass >= 18 and elapsed < 30.0
    _report(
        1,
        ok,
        f"{n_pass}/20 seeds within 3/5/4 MHz "
        f"(worst dg={worst[0]:.2f}, dgamma={worst[1]:.2f}, "
        f"dwe={worst[2]:.2f} MHz) in {elapsed:.1f} s",
    )


def test_criterion_02_cooperativity_window():
    """The headline figure of merit lands between 31 and 34."""
    c = analytic.cooperativity(118.0 * MHZ, 23.0 * MHZ, 75.0 * MHZ)
    ok = 31.0 <= c <= 34.0
    _report(2, ok, f"C = {c:.4f} for g/kappa/gamma_2 = 118/23/75 MHz, window [31, 34]")


def test_criterion_03_circuit_scales_and_coupling_ratio():
    """Default circuit gives Z within 2% of 3.8 kOhm, V_zpf within 5% of
    40 uV, zero-point length within 3% of 36 nm, and the closed-form coupling
    built from the rounded inputs exceeds the 110 MHz reference by a fixed
    factor, reproduced to 1e-6."""
    res = default_resonator()
    _omega, z, v_zpf = derived_resonator_quantities(res)
    l_y = analytic.zero_point_length(7.162 * GHZ)

    g_pred = CONSTANTS.e * 36e-9 * 40e-6 / (CONSTANTS.hbar * 2.2e-6)
    ratio = g_pred / (110.0 * MHZ)

    ok_z = abs(z - 3800.0) <= 0.02 * 3800.0
    ok_v = abs(v_zpf - 40e-6) <= 0.05 * 40e-6
    ok_l = abs(l_y - 36e-9) <= 0.03 * 36e-9
    ok_r = abs(ratio - 1.438803515951356) < 1e-6
    ok = ok_z and ok_v and ok_l and ok_r
    _report(
        3,
        ok,
        f"Z = {z:.1f} Ohm, V_zpf = {v_zpf * 1e6:.3f} uV, "
        f"l_y = {l_y * 1e9:.3f} nm, coupling ratio = {ratio:.9f}",
    )


def test_criterion_04_dispersive_pull_and_inversion(res_7162):
    """Detuned electron pulls the transmission peak by
    g^2 d / (d^2 + gamma_2^2) within 2% (d taken at the observed peak), and
    inverting the pull returns omega_e within 1%."""
    g = 118.0 * MHZ
    gamma_2 = 75.0 * MHZ
    omega_r = res_7162.omega_r
    worst_shift = 0.0
    worst_inv = 0.0
    for d_ghz in (0.5, 1.0, 2.0):
        omega_e = omega_r + d_ghz * GHZ
        el = TwoLevelElectron(omega_e=omega_e, gamma_2=gamma_2)
        probe = np.linspace(omega_r - 0.2 * GHZ, omega_r + 0.2 * GHZ, 2000001)
        mag = np.abs(cavity.s21_resonant(res_7162, el, g, probe))
        peak = probe[int(np.argmax(mag))]
        shift = omega_r - peak
        d_eff = omega_e - peak
        formula = g * g * d_eff / (d_eff * d_eff + gamma_2 * gamma_2)
        worst_shift = max(worst_shift, abs(shift - formula) / formula)
        inv = cavity.dispersive_electron_freq(shift, g, omega_r)
        worst_inv = max(worst_inv, abs(inv - omega_e) / omega_e)
    ok = worst_shift <= 0.02 and worst_inv <= 0.01
    _report(
        4,
        ok,
        f"peak pull vs formula off by {worst_shift * 100:.3f}% (limit 2%), "
        f"inverted omega_e off by {worst_inv * 100:.3f}% (limit 1%) "
        f"at 0.5/1/2 GHz detuning",
    )


def test_criterion_05_resonant_doublet_separation(res_7162):
    """On resonance the two hybridized peaks sit between 0.9 * 2g and 2g
    apart; the linewidths squeeze them slightly inside the bare splitting."""
    g = 118.0 * MHZ
    el = TwoLevelElectron(omega_e=res_7162.omega_r, gamma_2=75.0 * MHZ)
    probe = np.linspace(
        res_7162.omega_r - 0.4 * GHZ, res_7162.omega_r + 0.4 * GHZ, 400001
    )
    mag = np.abs(cavity.s21_resonant(res_7162, el, g, probe))
    n = probe.size // 2
    lo = probe[:n][int(np.argmax(mag[:n]))]
    hi = probe[n:][int(np.argmax(mag[n:]))]
    sep_mhz = (hi - lo) / MHZ
    ok = 0.9 * 236.0 <= sep_mhz <= 236.0
    _report(
        5, ok, f"doublet separation {sep_mhz:.2f} MHz, window [212.4, 236.0] MHz"
    )


def test_criterion_06_relaxation_channels():
    """Mode-mediated decay gives T1 between 0.6 and 0.8 us at 1.1 GHz
    detuning and shortens monotonically toward resonance; the filtered bias
    line keeps T1 above 1 ms across 3-10 GHz."""
    g, kappa = 110.0 * MHZ, 23.0 * MHZ
    t1_det = analytic.purcell_resonator(g, kappa, 1.1 * GHZ).t1
    ladder = [
        analytic.purcell_resonator(g, kappa, d * GHZ).t1
        for d in (2.0, 1.5, 1.0, 0.5, 0.1)
    ]
    monotone = all(a > b for a, b in zip(ladder, ladder[1:]))

    t1_bias_min = math.inf
    for f_ghz in np.linspace(3.0, 10.0, 15):
        omega_e = float(f_ghz) * GHZ
        c_c = analytic.bias_capacitance(0.03e6, omega_e)
        circuit = BiasFilterCircuit(l_f=12e-9, c_f=0.8e-12, c_c=c_c, c_other=c_c)
        t1_bias_min = min(t1_bias_min, analytic.purcell_bias(circuit, omega_e).t1)

    ok = 0.6e-6 <= t1_det <= 0.8e-6 and monotone and t1_bias_min > 1e-3
    _report(
        6,
        ok,
        f"T1(1.1 GHz) = {t1_det * 1e6:.3f} us in [0.6, 0.8], "
        f"monotone toward resonance: {monotone}, "
        f"bias-line T1 >= {t1_bias_min * 1e3:.1f} ms over 3-10 GHz",
    )


def test_criterion_07_eigensolver_benchmarks():
    """2D eigensolver reproduces the isotropic degeneracy ladder and an
    anisotropic 20/31 GHz spectrum to 0.1%, with second-order grid
    convergence."""
    # isotropic well: groups of 1, 2, 3 levels spaced by the trap quantum
    f0 = 5.0
    ham = qsolver.build_hamiltonian(_harmonic(f0, f0), _zp_window(f0), nx=151, ny=151)
    sol = qsolver.eigenstates(ham, k=6, seed=0)
    e = sol.energies / (CONSTANTS.hbar * f0 * GHZ)
    e = e - e[0]
    iso_degen = max(e[2] - e[1], e[5] - e[3])
    iso_spacing = max(
        abs(e[1] - e[0] - 1.0), abs(e[3] - e[1] - 1.0), abs(e[5] - e[2] - 1.0)
    )

    # anisotropic well against the separable sum of 1D ladders
    fx, fy = 20.0, 31.0
    ham_a = qsolver.build_hamiltonian(_harmonic(fx, fy), _zp_window(fx), nx=151, ny=151)
    sol_a = qsolver.eigenstates(ham_a, k=6, seed=0)
    base = [(i + 0.5) * fx + (j + 0.5) * fy for i in range(4) for j in range(4)]
    expect = np.sort(base)[:6] * GHZ * CONSTANTS.hbar
    aniso = float(np.max(np.abs(sol_a.energies - expect) / expect))

    # halving the grid spacing cuts the gap error by roughly four
    errs = []
    for n in (76, 151):
        ham_n = qsolver.build_hamiltonian(_harmonic(f0, f0), _zp_window(f0), nx=n, ny=n)
        sol_n = qsolver.eigenstates(ham_n, k=2, seed=0)
        gap = float(sol_n.energies[1] - sol_n.energies[0]) / CONSTANTS.hbar
        errs.append(abs(gap - f0 * GHZ))
    ratio = errs[0] / errs[1]

    ok = iso_degen < 5e-4 and iso_spacing <= 1e-3 and aniso <= 1e-3 and 3.5 <= ratio <= 4.5
    _report(
        7,
        ok,
        f"iso degeneracy split {iso_degen:.1e}, spacing err {iso_spacing:.1e}, "
        f"aniso err {aniso:.1e} (limits 1e-3), convergence ratio {ratio:.2f} "
        f"in [3.5, 4.5]",
    )


def test_criterion_08_trap_minimum_closed_forms():
    """Closed-form trap minima agree with brute-force scans for 1000 random
    single-well traps to 0.01 nm, and the soft-direction frequency floor
    tracks a restricted stiffness sweep within 5%."""
    rng = np.random.default_rng(42)
    worst_dy = 0.0
    for _ in range(1000):
        a1 = 10 ** rng.uniform(-14, -10)
        a2 = 10 ** rng.uniform(6, 11)
        e_y = 10 ** rng.uniform(1, 4)
        trap = CubicTrap1D(a1=a1, a2=a2, e_y=e_y)
        r = analytic.cardano_minimum(trap)
        assert r.discriminant < 0
        lo, hi = 0.0, 2e-6
        for _zoom in range(4):
            ys = np.linspace(lo, hi, 2001)
            u = trap.energy(ys)
            i = int(np.argmin(u))
            lo, hi = ys[max(i - 1, 0)], ys[min(i + 1, 2000)]
        worst_dy = max(worst_dy, abs(r.y0 - 0.5 * (lo + hi)))

    worst_om = 0.0
    for a2, e_y in [(5e8, 200.0), (2e9, 1000.0), (1e10, 5000.0)]:
        om_f = analytic.omega_min(a2, e_y)
        q = CONSTANTS.e * e_y / (4.0 * a2)
        a1_max = 0.05 * 2.0 * a2 * q ** (2.0 / 3.0)
        sweep = min(
            analytic.effective_frequency(CubicTrap1D(a1=float(a1), a2=a2, e_y=e_y))
            for a1 in np.linspace(-a1_max, a1_max, 401)
        )
        worst_om = max(worst_om, abs(om_f - sweep) / sweep)

    zeros = analytic.omega_min(5e9, 0.0) == 0.0 and analytic.omega_min(0.0, 100.0) == 0.0
    ok = worst_dy < 1e-11 and worst_om <= 0.05 and zeros
    _report(
        8,
        ok,
        f"worst minimum error {worst_dy * 1e9:.2e} nm (limit 0.01), "
        f"frequency floor off by {worst_om * 100:.2f}% (limit 5%), "
        f"exact zeros: {zeros}",
    )


def test_criterion_09_cluster_modes_and_shift(res_7162):
    """Classical clusters coupled to the mode: resonant splitting 2g to 0.5%,
    dispersive pull g^2/Delta to 5% at ten linewidths, and a gridded-map
    voltage sweep for N = 0..4 keeps every mode above 20 GHz with pulls below
    2 MHz."""
    f_r = res_7162.omega_r / GHZ

    # one electron tuned onto the mode splits it by 2g
    field = _harmonic(f_r, f_r)
    config = cluster.minimize(field, 1, seed=0)
    modes = cluster.normal_modes(field, config)
    gmap = potential.uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.0856e6)
    out = cluster.coupled_spectrum(modes, config, res_7162, gmap)
    g_split = float(np.abs(out.mode_couplings).max())
    top2 = np.argsort(out.participations)[-2:]
    split = abs(out.frequencies[top2[0]] - out.frequencies[top2[1]])
    split_err = abs(split - 2.0 * g_split) / (2.0 * g_split)

    # ten linewidths above, the pull collapses to g^2 / Delta
    g_target = 30.0 * MHZ
    delta = 10.0 * g_target
    f_el = (res_7162.omega_r + delta) / GHZ
    field_d = _harmonic(f_el, f_el)
    config_d = cluster.minimize(field_d, 1, seed=0)
    modes_d = cluster.normal_modes(field_d, config_d)
    grad = g_target / analytic.coupling_g(res_7162, 1.0).g
    gmap_d = potential.uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), grad)
    out_d = cluster.coupled_spectrum(modes_d, config_d, res_7162, gmap_d)
    g_d = float(np.abs(out_d.mode_couplings).max())
    disp_err = abs(abs(out_d.shift) - g_d**2 / delta) / (g_d**2 / delta)

    # voltage sweep over a gridded dome for growing cluster sizes
    x = np.linspace(-1e-6, 1e-6, 81)
    xg, yg = np.meshgrid(x, x, indexing="xy")
    dome = np.exp(-((xg / 1.0e-6) ** 2) - (yg / 0.7e-6) ** 2)
    maps = potential.CouplingMapSet(x_axis=x, y_axis=x, grids={"trap": dome})
    grad_grid = 0.15e6 * np.exp(-(xg**2 + yg**2) / (2 * (0.5e-6) ** 2))
    gmap_s = potential.CouplingGradientMap(x_axis=x, y_axis=x, grid=grad_grid)
    min_mode = math.inf
    max_shift = 0.0
    zero_shift = True
    all_conv = True
    for n in range(5):
        rows = cluster.shift_vs_voltage_sweep(
            maps, {}, "trap", np.linspace(0.25, 0.35, 5), n, res_7162,
            gradient_map=gmap_s, seed=7,
        )
        for r in rows:
            all_conv = all_conv and r.converged
            if n == 0:
                zero_shift = zero_shift and r.shift == 0.0
            else:
                min_mode = min(min_mode, float(np.min(r.mode_frequencies)) / GHZ)
                max_shift = max(max_shift, abs(r.shift))

    ok = (
        split_err <= 5e-3
        and disp_err <= 0.05
        and all_conv
        and zero_shift
        and min_mode > 20.0
        and max_shift <= 2.0 * MHZ
    )
    _report(
        9,
        ok,
        f"splitting off 2g by {split_err * 100:.4f}% (limit 0.5%), "
        f"dispersive pull off by {disp_err * 100:.2f}% (limit 5%), "
        f"sweep N=0..4: min mode {min_mode:.2f} GHz (> 20), "
        f"max pull {max_shift / MHZ * 1e3:.0f} kHz (<= 2 MHz), "
        f"empty-trap pull exactly zero: {zero_shift}",
    )


def test_criterion_10_two_tone_recovery():
    """Noisy saturation dip at 8.66 GHz with 102 MHz half-width fits back to
    both parameters within 2 MHz."""
    omega_e = 8.66 * GHZ
    hwhm = 102.0 * MHZ
    el = TwoLevelElectron(omega_e=omega_e, gamma_2=hwhm)
    drive = np.linspace(omega_e - 1.2 * GHZ, omega_e + 1.2 * GHZ, 481)
    clean = cavity.two_tone_dip(el, drive, depth=0.3, offset=1.0)
    rng = np.random.default_rng(5)
    noisy = clean + 0.01 * rng.standard_normal(drive.size)
    fit = fitters.fit_lorentzian_dip(drive, noisy)
    d_omega = abs(fit.params["omega_e"] - omega_e) / MHZ
    d_gamma = abs(fit.params["gamma"] - hwhm) / MHZ
    ok = fit.converged and d_omega <= 2.0 and d_gamma <= 2.0
    _report(
        10,
        ok,
        f"center off by {d_omega:.2f} MHz, half-width off by {d_gamma:.2f} MHz "
        f"(limits 2 MHz, 1% amplitude noise)",
    )


def test_criterion_11_spin_coupling_targets():
    """Magnetic-gradient spin interface: charge-spin rate within 2% of
    50 MHz and direct spin rate within 5% of 3 MHz."""
    out = analytic.spin_couplings(
        g_c=120.0 * MHZ, dbz_dx=1e5, a_x=50e-9, delta_cs=2.0 * GHZ
    )
    g_cs = out.g_cs / MHZ
    g_s = out.g_s / MHZ
    ok = abs(g_cs - 50.0) <= 0.02 * 50.0 and abs(g_s - 3.0) <= 0.05 * 3.0
    _report(11, ok, f"g_cs = {g_cs:.3f} MHz (50 +- 2%), g_s = {g_s:.3f} MHz (3 +- 5%)")


def test_criterion_12_cli_reruns_byte_identical(tmp_path):
    """The same CLI invocation writes byte-identical outputs on rerun, for
    the trace, its sidecar, and the SVG rendering."""

    def synth(out, fmt=None):
        argv = [
            "synth", "--f-res-ghz", "7.162", "--f-el-ghz", "7.162",
            "--g-mhz", "118", "--crosstalk-t", "0.008",
            "--crosstalk-zeta", "-0.30", "--snr", "50", "--seed", "4",
            "--points", "401", "--span-mhz", "1000", "--out", out,
        ]
        if fmt:
            argv += ["--format", fmt]
        assert cli_main(argv) == 0

    out = str(tmp_path / "trace.csv")
    synth(out)
    first_csv = (tmp_path / "trace.csv").read_bytes()
    first_json = (tmp_path / "trace.csv.json").read_bytes()
    synth(out)
    same_csv = (tmp_path / "trace.csv").read_bytes() == first_csv
    same_json = (tmp_path / "trace.csv.json").read_bytes() == first_json
    svg = str(tmp_path / "trace.svg")
    synth(svg, fmt="svg")
    first_svg = (tmp_path / "trace.svg").read_bytes()
    synth(svg, fmt="svg")
    same_svg = (tmp_path / "trace.svg").read_bytes() == first_svg
    ok = same_csv and same_json and same_svg
    _report(
        12,
        ok,
        f"rerun identical: trace {same_csv}, sidecar {same_json}, svg {same_svg}",
    )
