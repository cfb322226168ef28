from __future__ import annotations

import math
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from heliumdot.core import CONSTANTS, DomainError, TWO_PI
from heliumdot.potential import CouplingMapSet, QuarticField, compose
from heliumdot.qsolver import (
    auto_window,
    build_hamiltonian,
    eigenstates,
    frequency_vs_voltage,
    transitions,
)

GHZ = 1e9 * TWO_PI


def _harmonic(fx_ghz: float, fy_ghz: float):
    wx = fx_ghz * GHZ
    wy = fy_ghz * GHZ
    return QuarticField(
        a1x=0.5 * CONSTANTS.m_e * wx**2, a1y=0.5 * CONSTANTS.m_e * wy**2
    )


def _zp_window(f_ghz: float, n_lengths: float = 6.0):
    """Square window of +- n zero-point lengths sqrt(hbar / 2 m omega)."""
    half = n_lengths * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * f_ghz * GHZ))
    return (-half, half, -half, half)


def test_build_hamiltonian_validation():
    field = _harmonic(5.0, 5.0)
    with pytest.raises(DomainError):
        build_hamiltonian(field, (1e-7, -1e-7, -1e-7, 1e-7))
    with pytest.raises(DomainError):
        build_hamiltonian(field, _zp_window(5.0), nx=2)


def test_edge_minimum_flagged():
    # a tilted potential whose sampled minimum sits on the window boundary
    field = QuarticField(a1x=1e-10, a1y=1e-10, e_y=5000.0)
    ham = build_hamiltonian(field, (-5e-8, 5e-8, -5e-8, 5e-8), nx=31, ny=31)
    assert ham.edge_minimum


def test_isotropic_harmonic_spectrum():
    """Level pattern (1, 2, 3)-fold degenerate, spacings at hbar omega."""
    f0 = 5.0
    field = _harmonic(f0, f0)
    ham = build_hamiltonian(field, _zp_window(f0), nx=151, ny=151)
    sol = eigenstates(ham, k=6, seed=0)
    e = sol.energies / (CONSTANTS.hbar * f0 * GHZ)
    e = e - e[0]
    # degeneracy pattern 1, 2, 3
    assert e[2] - e[1] < 5e-4
    assert e[5] - e[3] < 5e-4
    # spacings between level groups at hbar omega, within 0.1%
    assert (e[1] - e[0]) == pytest.approx(1.0, rel=1e-3)
    assert (e[3] - e[1]) == pytest.approx(1.0, rel=1e-3)
    assert (e[5] - e[2]) == pytest.approx(1.0, rel=1e-3)


def test_anisotropic_harmonic_separable():
    fx, fy = 20.0, 31.0
    field = _harmonic(fx, fy)
    half = 6.0 * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * fx * GHZ))
    ham = build_hamiltonian(field, (-half, half, -half, half), nx=151, ny=151)
    sol = eigenstates(ham, k=6, seed=0)
    base = [
        (nx + 0.5) * fx + (ny + 0.5) * fy for nx in range(4) for ny in range(4)
    ]
    expect = np.sort(base)[:6] * GHZ * CONSTANTS.hbar
    assert np.allclose(sol.energies, expect, rtol=1e-3)


def test_eigenstates_orthonormal_and_converged():
    field = _harmonic(5.0, 5.0)
    ham = build_hamiltonian(field, _zp_window(5.0), nx=101, ny=101)
    sol = eigenstates(ham, k=5, seed=0)
    hx = ham.x[1] - ham.x[0]
    hy = ham.y[1] - ham.y[0]
    for i in range(5):
        for j in range(i, 5):
            overlap = float(np.sum(sol.states[i] * sol.states[j]) * hx * hy)
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)
    assert sol.residuals.max() < 1e-8


def _small_dome_hamiltonian():
    """15 x 13 node Hamiltonian of a gridded Gaussian dome trap."""
    axis = np.linspace(-1e-6, 1e-6, 41)
    xx, yy = np.meshgrid(axis, axis)
    maps = CouplingMapSet(
        x_axis=axis, y_axis=axis,
        grids={"trap": np.exp(-(xx / 1e-6) ** 2 - (yy / 0.7e-6) ** 2)},
    )
    field = compose(maps, {"trap": 0.3})
    return build_hamiltonian(field, (-0.4e-6, 0.4e-6, -0.3e-6, 0.3e-6), nx=15, ny=13)


def test_eigenstates_match_dense_eigh_on_gridded_dome():
    ham = _small_dome_hamiltonian()
    sol = eigenstates(ham, k=6, seed=0)
    dense = scipy.linalg.eigh(ham.matrix.toarray(), eigvals_only=True)
    np.testing.assert_allclose(sol.energies, dense[:6], rtol=1e-12, atol=0.0)
    assert sol.residuals.max() < 1e-10


def test_eigenstates_factors_once(monkeypatch):
    """One sparse LU per solve: eigsh must use the factor it is handed, not
    build its own from the shift."""
    calls = []
    real_splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    # eigsh's own module binds splu at import; count its factorizations too
    monkeypatch.setattr(sys.modules[spla.eigsh.__module__], "splu", counting_splu)
    eigenstates(_small_dome_hamiltonian(), k=4, seed=0)
    assert len(calls) == 1


def test_eigenstates_seeded_deterministic():
    field = _harmonic(5.0, 5.0)
    ham = build_hamiltonian(field, _zp_window(5.0), nx=61, ny=61)
    a = eigenstates(ham, k=3, seed=5)
    b = eigenstates(ham, k=3, seed=5)
    assert np.array_equal(a.energies, b.energies)


def test_second_order_convergence():
    """Doubling the node count per axis cuts the level error by about 4."""
    f0 = 5.0
    field = _harmonic(f0, f0)
    window = _zp_window(f0)
    errs = []
    for n in (76, 151):
        ham = build_hamiltonian(field, window, nx=n, ny=n)
        sol = eigenstates(ham, k=2, seed=0)
        gap = float(sol.energies[1] - sol.energies[0]) / CONSTANTS.hbar
        errs.append(abs(gap - f0 * GHZ))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_transitions_and_anharmonicity_sign():
    fx, fy = 18.0, 5.0
    field = QuarticField(
        a1x=0.5 * CONSTANTS.m_e * (fx * GHZ) ** 2,
        a1y=0.5 * CONSTANTS.m_e * (fy * GHZ) ** 2,
        a2y=2.0e4,
    )
    half = 6.0 * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * fy * GHZ))
    ham = build_hamiltonian(field, (-half, half, -half, half), nx=121, ny=121)
    tset = transitions(eigenstates(ham, k=3, seed=0))
    # hardening quartic pushes 1->2 above 0->1
    assert tset.alpha_hz > 0
    assert tset.omega_01.ghz > fy  # stiffened relative to the bare harmonic
    with pytest.raises(DomainError):
        transitions(eigenstates(ham, k=2, seed=0))


def test_quartic_trap_against_dense_1d_oracle():
    """Soft quartic y trap: the 2D level must match an independently computed
    dense 1D finite-difference value, frozen here, to a few parts in 1e3."""
    a1y, a2y, e_y = 1e-12, 2750.0, 300.0
    fx = 18.0
    field = QuarticField(
        a1x=0.5 * CONSTANTS.m_e * (fx * GHZ) ** 2, a1y=a1y, a2y=a2y, e_y=e_y
    )
    # window centered on the classical minimum of the y potential
    from heliumdot.analytic import CubicTrap1D, cardano_minimum, effective_frequency

    trap = CubicTrap1D(a1=a1y, a2=a2y, e_y=e_y)
    y0 = cardano_minimum(trap).y0
    w_cl = effective_frequency(trap)
    half_y = 8.0 * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * w_cl))
    half_x = 6.0 * math.sqrt(CONSTANTS.hbar / (2 * CONSTANTS.m_e * fx * GHZ))
    window = (-half_x, half_x, y0 - half_y, y0 + half_y)
    ham = build_hamiltonian(field, window, nx=121, ny=301)
    tset = transitions(eigenstates(ham, k=3, seed=0))
    f01_oracle_ghz = 4.540017698583527  # dense 16001-point 1D solve
    assert tset.omega_01.ghz == pytest.approx(f01_oracle_ghz, rel=3e-3)
    # quantum level spacing sits well below the classical curvature frequency
    assert tset.omega_01.ghz < w_cl / GHZ


def test_auto_window_contains_minimum():
    field = QuarticField(a1x=1e-9, a1y=2e-9, e_y=400.0)
    x0, x1, y0, y1 = auto_window(field)
    y_min = CONSTANTS.e * 400.0 / (2 * 2e-9)
    assert x0 < 0.0 < x1
    assert y0 < y_min < y1


def test_frequency_sweep_two_crossings():
    """V-shaped tune-up: the first transition crosses 6 GHz exactly twice."""

    def factory(v: float):
        return QuarticField(
            a1x=0.5 * CONSTANTS.m_e * (18.0 * GHZ) ** 2,
            a1y=2e-9 * (v - 0.5),
            a2y=2750.0,
            e_y=300.0,
        )

    volts = np.linspace(0.0, 1.0, 11)
    rows = frequency_vs_voltage(factory, volts, nx=121, ny=121, k=3, seed=0)
    assert len(rows) == 11
    f01 = np.array([r.f01_hz for r in rows]) / 1e9
    assert np.all(np.isfinite(f01))
    assert all(not r.flags for r in rows)
    crossings = int(np.sum(np.diff(np.sign(f01 - 6.0)) != 0))
    assert crossings == 2
    # V-shape: high at the ends, soft minimum in the middle
    assert f01[0] > 8.0
    assert f01.min() < 5.0
    assert f01.argmin() not in (0, len(f01) - 1)


def test_frequency_sweep_records_failures():
    def factory(v: float):
        if v > 0.5:
            raise DomainError("no trap here")
        return _harmonic(5.0, 5.0)

    rows = frequency_vs_voltage(factory, [0.0, 1.0], nx=41, ny=41, k=3, seed=0)
    assert not rows[0].flags
    assert math.isnan(rows[1].f01_hz)
    assert any(f.startswith("failed:") for f in rows[1].flags)
