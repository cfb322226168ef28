from __future__ import annotations

import math

import numpy as np
import pytest

from heliumdot.cluster import (
    coupled_spectrum,
    electron_couplings,
    minimize,
    normal_modes,
    shift_vs_voltage_sweep,
    total_energy,
    total_gradient,
    total_hessian,
)
from heliumdot.core import CONSTANTS, DomainError, TWO_PI, default_resonator
from heliumdot.potential import (
    CouplingMapSet,
    QuarticField,
    compose,
    uniform_gradient_map,
)

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


def _harmonic(fx_ghz: float, fy_ghz: float):
    """Analytic harmonic trap with the given cyclic mode frequencies."""
    wx = fx_ghz * GHZ
    wy = fy_ghz * GHZ
    return QuarticField(
        a1x=0.5 * CONSTANTS.m_e * wx**2, a1y=0.5 * CONSTANTS.m_e * wy**2
    )


# ---------------------------------------------------------------------------
# energy and derivatives
# ---------------------------------------------------------------------------


def test_total_energy_hand_sum():
    field = _harmonic(5.0, 8.0)
    d = 100e-9
    pos = np.array([[-d / 2, 0.0], [d / 2, 0.0]])
    expect = 2 * float(field.energy(d / 2, 0.0)) + CONSTANTS.coulomb * CONSTANTS.e**2 / d
    assert total_energy(field, pos) == pytest.approx(expect, rel=1e-12)


def test_gradient_matches_finite_difference():
    field = _harmonic(5.0, 8.0)
    rng = np.random.default_rng(0)
    pos = rng.normal(0.0, 50e-9, size=(3, 2))
    grad = total_gradient(field, pos)
    h = 1e-12
    for i in range(3):
        for j in range(2):
            up = pos.copy()
            dn = pos.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd = (total_energy(field, up) - total_energy(field, dn)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-30)


def test_hessian_matches_finite_difference():
    field = _harmonic(5.0, 8.0)
    pos = np.array([[-60e-9, 10e-9], [55e-9, -5e-9]])
    hess = total_hessian(field, pos)
    assert hess.shape == (4, 4)
    assert np.allclose(hess, hess.T)
    h = 1e-12
    flat = pos.ravel()
    for a in range(4):
        up = flat.copy()
        dn = flat.copy()
        up[a] += h
        dn[a] -= h
        fd = (
            total_gradient(field, up.reshape(2, 2)).ravel()
            - total_gradient(field, dn.reshape(2, 2)).ravel()
        ) / (2 * h)
        assert np.allclose(hess[a], fd, rtol=1e-4, atol=1e-12)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_single_electron_center():
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 1, seed=0)
    assert config.converged
    assert np.allclose(config.positions, 0.0, atol=1e-10)
    assert config.gradient_norm < 1e-18


def test_minimize_zero_electrons():
    config = minimize(_harmonic(5.0, 8.0), 0)
    assert config.positions.shape == (0, 2)
    assert config.energy == 0.0
    assert config.converged


def test_minimize_two_electron_separation_oracle():
    """Closed form: d^3 = 2 k e^2 / (m omega_x^2) along the soft axis."""
    wx = 5.0 * GHZ
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 2, seed=0)
    assert config.converged
    d_expect = (2 * CONSTANTS.coulomb * CONSTANTS.e**2 / (CONSTANTS.m_e * wx**2)) ** (1 / 3)
    d = float(np.linalg.norm(config.positions[0] - config.positions[1]))
    assert d == pytest.approx(d_expect, rel=1e-9)
    # aligned along x, centered
    assert abs(config.positions[:, 1]).max() < 1e-12 * d_expect
    assert abs(config.positions[:, 0].sum()) < 1e-9 * d_expect


def test_minimize_energy_history_monotone():
    config = minimize(_harmonic(5.0, 8.0), 3, seed=1)
    hist = np.asarray(config.energy_history)
    assert np.all(np.diff(hist) <= 1e-30)


def test_minimize_deterministic():
    a = minimize(_harmonic(5.0, 8.0), 3, seed=4)
    b = minimize(_harmonic(5.0, 8.0), 3, seed=4)
    assert np.array_equal(a.positions, b.positions)


def test_minimize_validation():
    with pytest.raises(DomainError):
        minimize(_harmonic(5.0, 8.0), -1)


# ---------------------------------------------------------------------------
# normal modes
# ---------------------------------------------------------------------------


def test_two_electron_mode_frequencies_closed_form():
    """COM modes at the trap frequencies, stretch at sqrt(3) omega_x, and the
    rocking mode softened by the Coulomb term to sqrt(omega_y^2 - omega_x^2)."""
    fx, fy = 5.0, 8.0
    field = _harmonic(fx, fy)
    config = minimize(field, 2, seed=0)
    modes = normal_modes(field, config)
    assert not modes.is_saddle
    wx, wy = fx * GHZ, fy * GHZ
    expect = np.sort(
        [wx, wy, math.sqrt(3.0) * wx, math.sqrt(wy**2 - wx**2)]
    )
    assert np.allclose(modes.frequencies, expect, rtol=1e-6)


def test_normal_modes_orthonormal_eigenvectors():
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 3, seed=0)
    modes = normal_modes(field, config)
    v = modes.eigenvectors
    assert np.allclose(v.T @ v, np.eye(v.shape[0]), atol=1e-10)


def test_saddle_configuration_detected():
    # two electrons forced onto the stiff axis: stationary by symmetry, unstable
    fx, fy = 5.0, 8.0
    field = _harmonic(fx, fy)
    wy = fy * GHZ
    d = (2 * CONSTANTS.coulomb * CONSTANTS.e**2 / (CONSTANTS.m_e * wy**2)) ** (1 / 3)
    init = np.array([[0.0, -d / 2], [0.0, d / 2]])
    config = minimize(field, 2, seed=0, restarts=1, init=init)
    modes = normal_modes(field, config)
    assert modes.is_saddle
    assert len(modes.metadata["unstable_frequencies"]) >= 1
    with pytest.raises(DomainError):
        coupled_spectrum(modes, config, default_resonator(),
                         uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.1e6))


# ---------------------------------------------------------------------------
# resonator coupling
# ---------------------------------------------------------------------------


def test_electron_couplings_uniform_gradient():
    from heliumdot.analytic import coupling_g

    res = default_resonator()
    field = _harmonic(res.omega_r / GHZ, res.omega_r / GHZ)
    config = minimize(field, 1, seed=0)
    grad = 0.46e6
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), grad)
    g_i = electron_couplings(config, res, gmap)
    assert g_i.shape == (1,)
    assert g_i[0] == pytest.approx(coupling_g(res, 1.0 / grad).g, rel=1e-12)


def test_coupled_spectrum_zero_coupling_is_bare():
    res = default_resonator()
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 2, seed=0)
    modes = normal_modes(field, config)
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.0)
    out = coupled_spectrum(modes, config, res, gmap)
    bare = np.sort(np.concatenate([[res.omega_r], modes.frequencies]))
    assert np.allclose(out.frequencies, bare, rtol=1e-12)
    assert out.shift == pytest.approx(0.0, abs=1e-3)
    assert out.participations.sum() == pytest.approx(1.0, rel=1e-12)


def test_coupled_spectrum_resonant_splitting():
    """One electron tuned to the resonator splits the doublet by 2g."""
    res = default_resonator()
    f_r = res.omega_r / GHZ
    field = _harmonic(f_r, f_r)
    config = minimize(field, 1, seed=0)
    modes = normal_modes(field, config)
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.0856e6)
    out = coupled_spectrum(modes, config, res, gmap)
    g = abs(out.mode_couplings).max()
    # the x mode is dark and sits at omega_r; take the two dressed branches
    top2 = np.argsort(out.participations)[-2:]
    split = abs(out.frequencies[top2[0]] - out.frequencies[top2[1]])
    assert split == pytest.approx(2.0 * g, rel=1e-2)


def test_coupled_spectrum_dispersive_shift():
    res = default_resonator()
    g_target = 30.0 * MHZ
    delta = 10.0 * g_target
    f_el = (res.omega_r + delta) / GHZ
    field = _harmonic(f_el, f_el)
    config = minimize(field, 1, seed=0)
    modes = normal_modes(field, config)
    # invert the coupling formula so g lands near the target
    from heliumdot.analytic import coupling_g

    grad = g_target / coupling_g(res, 1.0).g
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), grad)
    out = coupled_spectrum(modes, config, res, gmap)
    g = float(np.abs(out.mode_couplings).max())
    assert g == pytest.approx(g_target, rel=0.05)
    # electron above pushes the resonator-like mode down by g^2/delta
    assert out.shift < 0
    assert abs(out.shift) == pytest.approx(g**2 / delta, rel=0.05)


# ---------------------------------------------------------------------------
# voltage sweep
# ---------------------------------------------------------------------------


def _sweep_maps(n=41, half=1e-6):
    x = np.linspace(-half, half, n)
    y = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(x, y)
    dome = np.exp(-(xx / 0.5e-6) ** 2 - (yy / 0.4e-6) ** 2)
    guard = np.full_like(dome, 0.3)
    return CouplingMapSet(x_axis=x, y_axis=y, grids={"trap": dome, "guard": guard})


def test_shift_sweep_runs_and_converges():
    maps = _sweep_maps()
    res = default_resonator()
    gmap = uniform_gradient_map(maps.domain, 0.01e6)
    rows = shift_vs_voltage_sweep(
        maps, {"guard": 0.0}, "trap", [0.25, 0.30, 0.35], 2, res,
        gradient_map=gmap, seed=3, restarts=4,
    )
    assert len(rows) == 3
    assert all(r.converged for r in rows)
    assert all(r.electrode == "trap" for r in rows)
    assert [r.voltage for r in rows] == [0.25, 0.30, 0.35]
    for r in rows:
        assert len(r.mode_frequencies) == 4
        assert min(r.mode_frequencies) > 0
        assert abs(r.shift) < 1.0 * MHZ


def test_shift_sweep_warm_and_cold_agree():
    maps = _sweep_maps()
    res = default_resonator()
    gmap = uniform_gradient_map(maps.domain, 0.01e6)
    warm = shift_vs_voltage_sweep(
        maps, {}, "trap", [0.28, 0.32], 1, res, gradient_map=gmap, seed=0
    )
    cold = shift_vs_voltage_sweep(
        maps, {}, "trap", [0.28, 0.32], 1, res, gradient_map=gmap, seed=0,
        warm_start=False,
    )
    for a, b in zip(warm, cold):
        assert a.shift == pytest.approx(b.shift, rel=1e-6, abs=1e-3)


def test_shift_sweep_records_saddle_per_point(monkeypatch):
    import dataclasses

    from heliumdot import cluster

    real = cluster.normal_modes
    calls = []

    def saddle_at_second_point(*args, **kwargs):
        modes = real(*args, **kwargs)
        calls.append(1)
        return dataclasses.replace(modes, is_saddle=True) if len(calls) == 2 else modes

    monkeypatch.setattr(cluster, "normal_modes", saddle_at_second_point)
    maps = _sweep_maps()
    rows = shift_vs_voltage_sweep(
        maps, {}, "trap", [0.28, 0.30, 0.32], 1, default_resonator(),
        gradient_map=uniform_gradient_map(maps.domain, 0.01e6), seed=0,
    )
    assert len(rows) == 3
    assert [r.converged for r in rows] == [True, False, True]
    assert math.isnan(rows[1].shift)
    assert math.isfinite(rows[0].shift) and math.isfinite(rows[2].shift)


def test_shift_sweep_unknown_electrode():
    maps = _sweep_maps()
    with pytest.raises(DomainError):
        shift_vs_voltage_sweep(
            maps, {}, "gate7", [0.1], 1, default_resonator(),
            gradient_map=uniform_gradient_map(maps.domain, 0.01e6),
        )
