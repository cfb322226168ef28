from __future__ import annotations

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from heliumdot import cluster, qsolver
from heliumdot.core import CONSTANTS, DomainError, TWO_PI
from heliumdot.potential import CouplingMapSet, QuarticField, compose
from heliumdot.qsolver import (
    WINDOW_FACTOR,
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
    with pytest.raises(DomainError):
        build_hamiltonian(field, _zp_window(5.0), nx=9, ny=9, kinetic="fd4")


class _Sampled(Exception):
    pass


def test_sinc_node_cap_checked_before_sampling(monkeypatch):
    # 50 x 50 = 2500 nodes is the largest sinc grid
    def sampled(*args, **kwargs):
        raise _Sampled

    monkeypatch.setattr(qsolver, "sample_grid", sampled)
    field, window = _harmonic(5.0, 5.0), _zp_window(5.0)
    with pytest.raises(_Sampled):
        build_hamiltonian(field, window, nx=50, ny=50, kinetic="sinc")
    with pytest.raises(DomainError, match="at most 2500 nodes"):
        build_hamiltonian(field, window, nx=51, ny=50, kinetic="sinc")
    with pytest.raises(DomainError, match="at most 2500 nodes"):
        frequency_vs_voltage(lambda v: field, [0.0], nx=51, ny=51)


def test_edge_minimum_flagged():
    # a tilted potential whose sampled minimum sits on the window boundary
    field = QuarticField(a1x=1e-10, a1y=1e-10, e_y=5000.0)
    ham = build_hamiltonian(field, (-5e-8, 5e-8, -5e-8, 5e-8), nx=31, ny=31)
    assert ham.edge_minimum


def test_edge_minimum_on_every_border_row_and_column():
    # 5 x 4 nodes at x = -1, -0.5, 0, 0.5, 1 and y = -1, -1/3, 1/3, 1 (x 1e-7 m):
    # a harmonic trap centered on a node puts the sampled minimum there, and
    # only a node of the outer rows and columns is flagged
    a = 1e-10
    for ix, iy in np.ndindex(5, 4):
        x, y = -1e-7 + 0.5e-7 * ix, -1e-7 + 2e-7 / 3 * iy
        field = QuarticField(a1x=a, a1y=a, e_x=2 * a * x / CONSTANTS.e,
                             e_y=2 * a * y / CONSTANTS.e)
        ham = build_hamiltonian(field, (-1e-7, 1e-7, -1e-7, 1e-7), nx=5, ny=4)
        assert np.argmin(ham.u) == np.ravel_multi_index((iy, ix), (4, 5))
        assert ham.edge_minimum == (ix in (0, 4) or iy in (0, 3)), (ix, iy)


def test_sinc_kinetic_entries():
    # Colbert and Miller: pi^2/3 on the diagonal, 2 (-1)^(i-j) / (i-j)^2 off it, over h^2
    h = 0.37e-9
    got = qsolver._sinc_kinetic(7, h)
    want = [[(math.pi**2 / 3 if i == j else 2 * (-1) ** (i - j) / (i - j) ** 2) / h**2
             for j in range(7)] for i in range(7)]
    assert np.array_equal(got, want)


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


def _dome_maps():
    axis = np.linspace(-1e-6, 1e-6, 41)
    xx, yy = np.meshgrid(axis, axis)
    return CouplingMapSet(
        x_axis=axis, y_axis=axis,
        grids={"trap": np.exp(-(xx / 1e-6) ** 2 - (yy / 0.7e-6) ** 2)},
    )


def _small_dome_hamiltonian(kinetic="fd2"):
    """15 x 13 node Hamiltonian of a gridded Gaussian dome trap."""
    field = compose(_dome_maps(), {"trap": 0.3})
    return build_hamiltonian(field, (-0.4e-6, 0.4e-6, -0.3e-6, 0.3e-6), nx=15, ny=13,
                             kinetic=kinetic)


@pytest.mark.parametrize("kinetic", ("fd2", "sinc"))
def test_eigenstates_match_dense_eigh_on_gridded_dome(kinetic):
    ham = _small_dome_hamiltonian(kinetic)
    assert sp.issparse(ham.matrix)
    sol = eigenstates(ham, k=6, seed=0)
    dense = scipy.linalg.eigh(ham.matrix.toarray(), eigvals_only=True)
    np.testing.assert_allclose(sol.energies, dense[:6], rtol=1e-12, atol=0.0)
    assert sol.residuals.max() < 1e-10


@pytest.mark.parametrize("kinetic", ("fd2", "sinc"))
def test_matrix_is_the_kronecker_sum(kinetic):
    ham = _small_dome_hamiltonian(kinetic)
    t_x, t_y = ham.kinetic_axes
    ny, nx = ham.u.shape
    want = np.kron(np.eye(ny), t_x) + np.kron(t_y, np.eye(nx)) + np.diag(ham.u.ravel())
    assert np.array_equal(ham.matrix.toarray(), want)


def test_sinc_build_allocates_no_node_square_array():
    """A 50 x 50 sinc build keeps the two 50 x 50 kinetic matrices and U; the
    2500 x 2500 matrix, 50 MB, is left to the fallback that reads it."""
    field = _harmonic(5.0, 5.0)
    build_hamiltonian(field, _zp_window(5.0), nx=50, ny=50, kinetic="sinc")
    tracemalloc.start()
    try:
        build_hamiltonian(field, _zp_window(5.0), nx=50, ny=50, kinetic="sinc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_eigenstates_factors_once(monkeypatch):
    """A solve that Davidson converges factors nothing, on fd2 and on sinc;
    the eigsh fallback factors H - sigma I once with dense LU and reuses it
    for every Lanczos solve."""
    arpack = sys.modules[spla.eigsh.__module__]
    calls = []
    for name in ("splu", "lu_factor"):
        def counting(*args, _name=name, _real=getattr(arpack, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(arpack, name, counting)
    fallback = build_hamiltonian(NEAR_FLOOR_TRAP, auto_window(NEAR_FLOOR_TRAP), nx=23, ny=23,
                                 kinetic="sinc")
    for ham, factors, path in ((_small_dome_hamiltonian("fd2"), [], "davidson"),
                               (_small_dome_hamiltonian("sinc"), [], "davidson"),
                               (fallback, ["lu_factor"], "eigsh")):
        calls.clear()
        assert eigenstates(ham, k=4, seed=0).path == path
        assert calls == factors


def test_separable_trap_converges_on_the_start_states(monkeypatch):
    """A QuarticField is a sum of an x and a y potential, so the products of
    the 1D eigenvectors along the lines through the lowest node are exact:
    Davidson applies H to its k start states, the residual check applies it
    once more, and nothing else runs."""
    applied = []
    kron_apply = qsolver._kron_apply
    monkeypatch.setattr(qsolver, "_kron_apply",
                        lambda ham, u, rows: applied.append(len(rows)) or kron_apply(ham, u, rows))
    field = QuarticField(a1x=1.1e-8, a1y=2e-8, a2y=3e3, e_y=20.0)
    ham = build_hamiltonian(field, auto_window(field), nx=23, ny=23, kinetic="sinc")
    sol = eigenstates(ham, k=6, seed=0)
    assert sol.path == "davidson"
    assert applied == [6, 6]
    assert sol.residuals.max() < 1e-12


# a 5 GHz x mode under a y quartic so stiff that U over the clipped window
# spans about 1e11 times the level span: the matrix-free residual's rounding
# floor lies far above the stop, so Davidson stalls
NEAR_FLOOR_TRAP = QuarticField(a1x=0.5 * CONSTANTS.m_e * (5.0 * GHZ) ** 2, a1y=1e-14, a2y=1e11)


@pytest.mark.parametrize("seed", [0, 7])
def test_stalled_davidson_falls_back_to_seeded_eigsh(monkeypatch, seed):
    starts = []
    eigsh = spla.eigsh
    # the fallback imports scipy.sparse.linalg when it runs, so spy on that module
    monkeypatch.setattr(spla, "eigsh",
                        lambda *args, v0, **kwargs: starts.append(v0) or eigsh(*args, v0=v0,
                                                                               **kwargs))
    ham = build_hamiltonian(NEAR_FLOOR_TRAP, auto_window(NEAR_FLOOR_TRAP), nx=23, ny=23,
                            kinetic="sinc")
    assert ham.window_clipped
    sol = eigenstates(ham, k=4, seed=seed)
    assert sol.path == "eigsh"
    assert len(starts) == 1
    assert np.array_equal(starts[0], np.random.default_rng(seed).standard_normal(23 * 23))
    # dense eigh is good only to about eps ||H||, here 2e-5 of the level span
    dense = scipy.linalg.eigh(ham.matrix.toarray(), eigvals_only=True)
    norm = np.abs(dense).max()
    np.testing.assert_allclose(sol.energies, dense[:4], rtol=0.0,
                               atol=8 * np.finfo(float).eps * norm)
    assert sol.residuals.max() < 1e-12


def _rotated_dome_field(degrees: float, volts: float = 0.3, ratio: float = 0.7):
    """The benchmark dome, with its y axis ``ratio`` times its x axis,
    turned by ``degrees`` about its top, so that its axes no longer lie
    along the grid and U is not separable."""
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    lever = np.exp(-((c * xx + s * yy) / 1e-6) ** 2 - ((c * yy - s * xx) / (ratio * 1e-6)) ** 2)
    return compose(CouplingMapSet(x_axis=axis, y_axis=axis, grids={"trap": lever}),
                   {"trap": volts})


@pytest.mark.parametrize("kinetic, degrees",
                         [("sinc", 30.0), ("sinc", 45.0), ("fd2", 30.0), ("fd2", 45.0)],
                         ids=["30.0", "45.0", "fd2-30.0", "fd2-45.0"])
def test_rotated_dome_matches_dense_eigh(monkeypatch, kinetic, degrees):
    """Davidson converges on both grids, restarted whenever the basis would
    pass DAVIDSON_BASIS vectors, so no projected eigh grows past that size (a
    32 x 32 one already went to threaded BLAS); on sinc it takes 19 to 21
    steps."""
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    field = _rotated_dome_field(degrees)
    ham = build_hamiltonian(field, auto_window(field), nx=23, ny=23, kinetic=kinetic)
    sol = eigenstates(ham, k=4, seed=0)
    assert sol.path == "davidson"
    assert max(sizes) <= qsolver.DAVIDSON_BASIS
    if kinetic == "sinc":
        assert len(sizes) > 20
    assert sol.residuals.max() < 1e-10
    dense = scipy.linalg.eigh(ham.matrix.toarray(), eigvals_only=True)[:4]
    np.testing.assert_allclose(sol.energies, dense, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(np.diff(sol.energies), np.diff(dense), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("kinetic, degrees, n, k, capped",
                         [("sinc", 45.0, 23, 4, True), ("sinc", 30.0, 31, 6, False),
                          ("fd2", 45.0, 23, 4, True)],
                         ids=["step-cap", "stall", "fd2-step-cap"])
def test_slow_davidson_falls_back_to_eigsh(monkeypatch, kinetic, degrees, n, k, capped):
    """A dome 0.4 times as wide in y as in x, turned off the grid axes, is
    far from the separable start: at 23^2 Davidson is still converging when
    DAVIDSON_STEPS run out, on either grid, and at 31^2 its largest residual
    stops halving.  Either way eigsh takes over and the levels are right."""
    applied = []
    kron_apply = qsolver._kron_apply
    monkeypatch.setattr(qsolver, "_kron_apply",
                        lambda ham, u, rows: applied.append(len(rows)) or kron_apply(ham, u, rows))
    field = _rotated_dome_field(degrees, ratio=0.4)
    ham = build_hamiltonian(field, auto_window(field), nx=n, ny=n, kinetic=kinetic)
    sol = eigenstates(ham, k=k, seed=0)
    assert sol.path == "eigsh"
    # the start block, one block per step, and the residual check
    assert (len(applied) == qsolver.DAVIDSON_STEPS + 2) == capped
    assert sol.residuals.max() < 1e-12
    dense = scipy.linalg.eigh(ham.matrix.toarray(), eigvals_only=True)[:k]
    np.testing.assert_allclose(sol.energies, dense, rtol=1e-10, atol=0.0)


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


def test_sinc_spectral_convergence():
    """On the auto window, 21 -> 25 nodes per axis cut the sinc-DVR f01 error
    by about 500 (measured 2.5e-5 -> 5.1e-8); any fixed order p would cut it
    by (25/21)^p, 2 for p = 4."""
    f0 = 5.0
    field = _harmonic(f0, f0)
    window = auto_window(field)
    errs = []
    for n in (21, 25):
        ham = build_hamiltonian(field, window, nx=n, ny=n, kinetic="sinc")
        gap = float(np.diff(eigenstates(ham, k=2, seed=0).energies)[0]) / CONSTANTS.hbar
        errs.append(abs(gap - f0 * GHZ) / (f0 * GHZ))
    assert errs[1] < 1e-7
    assert errs[0] / errs[1] > 100.0


def test_auto_window_sized_per_axis():
    """A 1 x 30 GHz trap gets +-8 zero-point lengths on each axis; one window
    from the geometric-mean curvature (5.5 GHz) cut the soft axis at 3.4 of
    its lengths, which put f12 1.2e-3 off at 23 x 23 nodes."""
    fx, fy = 1.0, 30.0
    field = _harmonic(fx, fy)
    x0, x1, y0, y1 = auto_window(field)
    for lo, hi, f in ((x0, x1, fx), (y0, y1, fy)):
        half = WINDOW_FACTOR * math.sqrt(CONSTANTS.hbar / (CONSTANTS.m_e * f * GHZ))
        assert hi == pytest.approx(half, rel=1e-9)
        assert lo == pytest.approx(-half, rel=1e-9)
    ham = build_hamiltonian(field, (x0, x1, y0, y1), nx=23, ny=23, kinetic="sinc")
    tset = transitions(eigenstates(ham, k=3, seed=0))
    assert tset.omega_01 / GHZ == pytest.approx(fx, rel=1e-5)
    assert tset.omega_12 / GHZ == pytest.approx(fx, rel=1e-4)


def test_solve_follows_the_field_constants():
    """A field built with four times the electron mass is solved with that
    mass at every step: the window, the kinetic term and the levels."""
    heavy = replace(CONSTANTS, m_e=4 * CONSTANTS.m_e)
    fx, fy = 5.0, 8.0
    wx, wy = fx * GHZ, fy * GHZ
    field = QuarticField(a1x=0.5 * heavy.m_e * wx**2, a1y=0.5 * heavy.m_e * wy**2,
                         constants=heavy)
    x0, x1, y0, y1 = auto_window(field)
    for lo, hi, w in ((x0, x1, wx), (y0, y1, wy)):
        half = WINDOW_FACTOR * math.sqrt(heavy.hbar / (heavy.m_e * w))
        assert (lo, hi) == pytest.approx((-half, half), rel=1e-9)
    ham = build_hamiltonian(field, (x0, x1, y0, y1), nx=23, ny=23, kinetic="sinc")
    assert ham.constants is heavy
    sol = eigenstates(ham, k=4, seed=0)
    gaps = (sol.energies[1:] - sol.energies[0]) / heavy.hbar
    assert gaps == pytest.approx([wx, wy, 2 * wx], rel=1e-4)
    assert transitions(sol).omega_01 / GHZ == pytest.approx(fx, rel=1e-5)


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
    assert tset.alpha > 0
    assert tset.alpha == tset.omega_12 - tset.omega_01
    assert tset.omega_01 / GHZ > fy  # stiffened relative to the bare harmonic
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
    assert tset.omega_01 / GHZ == pytest.approx(f01_oracle_ghz, rel=3e-3)
    # quantum level spacing sits well below the classical curvature frequency
    assert tset.omega_01 < w_cl


def test_auto_window_contains_minimum():
    field = QuarticField(a1x=1e-9, a1y=2e-9, e_y=400.0)
    x0, x1, y0, y1 = auto_window(field)
    y_min = CONSTANTS.e * 400.0 / (2 * 2e-9)
    assert x0 < 0.0 < x1
    assert y0 < y_min < y1


def test_auto_window_centers_on_the_closed_form_minimum():
    """A minimum between the scanned nodes, harmonic in x and the soft quartic
    of the 1D oracle in y, each with a field: the window center comes from
    the Newton polish, not from a node, to 1e-9 of a zero-point length."""
    from heliumdot.analytic import CubicTrap1D, cardano_minimum

    a1x, a1y, a2y = 0.5 * CONSTANTS.m_e * (7.0 * GHZ) ** 2, 1e-12, 2750.0
    x_min = 0.3137e-6
    e_x = 2 * a1x * x_min / CONSTANTS.e
    e_y = 300.0
    field = QuarticField(a1x=a1x, a1y=a1y, a2y=a2y, e_x=e_x, e_y=e_y)
    y_min = cardano_minimum(CubicTrap1D(a1=a1y, a2=a2y, e_y=e_y)).y0
    x0, x1, y0, y1 = auto_window(field)
    for lo, hi, r_min, curv in ((x0, x1, x_min, 2 * a1x),
                                (y0, y1, y_min, 2 * a1y + 12 * a2y * y_min**2)):
        length = math.sqrt(CONSTANTS.hbar / math.sqrt(CONSTANTS.m_e * curv))
        assert abs(0.5 * (lo + hi) - r_min) < 1e-9 * length
        assert 0.5 * (hi - lo) == pytest.approx(WINDOW_FACTOR * length, rel=1e-9)


def _bench_dome_field(volts: float):
    """The 81-node benchmark dome, exp(-x^2 - (y/0.7)^2) over +-1 um."""
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    maps = CouplingMapSet(x_axis=axis, y_axis=axis,
                          grids={"trap": np.exp(-(xx / 1e-6) ** 2 - (yy / 0.7e-6) ** 2)})
    return compose(maps, {"trap": volts})


@pytest.mark.parametrize("volts", (0.2, 0.4))
def test_auto_window_on_the_bench_dome_is_symmetric(volts):
    """The dome top is a scan node where a Newton step predicts no decrease
    the energy can resolve, so the center stays on the node and the window
    is exactly symmetric about 0 on both axes."""
    x0, x1, y0, y1 = auto_window(_bench_dome_field(volts))
    assert (x0, y0) == (-x1, -y1)
    assert x1 > 0 and y1 > 0


@pytest.mark.parametrize("kinetic", ("fd2", "sinc"))
@pytest.mark.parametrize("field", [_harmonic(5.0, 7.0), _bench_dome_field(0.25)],
                         ids=["harmonic", "bench-dome"])
def test_shift_at_min_u_leaves_a_positive_definite_matrix(field, kinetic):
    """eigenstates shifts by sigma = min U: H - sigma I = T + (U - min U) is
    positive definite, because T is for both kinetic matrices."""
    ham = build_hamiltonian(field, auto_window(field), nx=23, ny=23, kinetic=kinetic)
    matrix = ham.matrix.toarray()
    np.linalg.cholesky(matrix - ham.u.min() * np.eye(matrix.shape[0]))


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
    rows = frequency_vs_voltage(factory, volts, k=3, seed=0)
    assert len(rows) == 11
    f01 = np.array([r.omega_01 for r in rows]) / GHZ
    assert np.all(np.isfinite(f01))
    assert all(not r.flags for r in rows)
    crossings = int(np.sum(np.diff(np.sign(f01 - 6.0)) != 0))
    assert crossings == 2
    # V-shape: high at the ends, soft minimum in the middle
    assert f01[0] > 8.0
    assert f01.min() < 5.0
    assert f01.argmin() not in (0, len(f01) - 1)


# a 20 GHz x mode and a quartic y trap near the frequency floor: at its
# minimum the y half-width is 0.53 um, well inside the scan region
FLOOR_TRAP = {"a1x": 7.192481077722885e-09, "a2y": 1e6, "e_y": 10.0}
# the same with a y quartic a millionth as stiff: 8 zero-point lengths of y
# reach past the top of the scan region, so auto_window cuts the window there
SOFT_TRAP = {**FLOOR_TRAP, "a2y": 1.0}


@pytest.mark.parametrize("a1y", [-1e-14, 0.0, 1e-15])
def test_frequency_sweep_flags_a_clipped_window(a1y):
    field = QuarticField(a1y=a1y, **SOFT_TRAP)
    assert auto_window(field)[3] == field.scan_region[3]
    rows = frequency_vs_voltage(lambda v: field, [0.0], k=3)
    assert rows[0].flags == ("window_clipped",)
    ham = build_hamiltonian(field, _zp_window(20.0), nx=5, ny=5)
    assert not ham.window_clipped


def test_frequency_sweep_flags_a_window_wider_than_the_region():
    # no quartic term and a1y = 1e-16: the y half-width is 22 um
    field = QuarticField(a1x=FLOOR_TRAP["a1x"], a1y=1e-16)
    assert auto_window(field)[2:] == field.scan_region[2:]
    rows = frequency_vs_voltage(lambda v: field, [0.0], k=3)
    assert rows[0].flags == ("window_clipped",)


@pytest.mark.parametrize("a1y", [-1e-14, 0.0, 1e-15])
def test_auto_window_centers_the_floor_trap(a1y):
    """The finder reaches the floor trap's minimum, so its window is sized
    from the curvature there, inside the scan region, and not flagged."""
    from heliumdot.analytic import CubicTrap1D, cardano_minimum

    field = QuarticField(a1y=a1y, **FLOOR_TRAP)
    trap = CubicTrap1D(a1=a1y, a2=FLOOR_TRAP["a2y"], e_y=FLOOR_TRAP["e_y"])
    y_min = cardano_minimum(trap).y0
    length = math.sqrt(CONSTANTS.hbar / math.sqrt(CONSTANTS.m_e * trap.curvature(y_min)))
    x0, x1, y0, y1 = auto_window(field)
    assert abs(0.5 * (y0 + y1) - y_min) < 1e-3 * length
    r = field.scan_region
    assert r[2] < y0 and y1 < r[3]
    assert frequency_vs_voltage(lambda v: field, [0.0], k=3)[0].flags == ()


def test_auto_window_runs_one_one_restart_descent(monkeypatch):
    seen = []
    descend = cluster._descend
    monkeypatch.setattr(cluster, "_descend",
                        lambda field_, starts: seen.append(starts.shape) or descend(field_, starts))
    auto_window(QuarticField(a1x=1e-9, a1y=2e-9, e_x=33.0, e_y=400.0))
    assert seen == [(1, 1, 2)]


def test_frequency_sweep_records_failures():
    def factory(v: float):
        if v > 0.5:
            raise DomainError("no trap here")
        return _harmonic(5.0, 5.0)

    rows = frequency_vs_voltage(factory, [0.0, 1.0], nx=41, ny=41, k=3, seed=0)
    assert not rows[0].flags
    assert math.isnan(rows[1].omega_01)
    assert any(f.startswith("failed:") for f in rows[1].flags)


def test_frequency_sweep_rows_match_single_point_sweeps():
    """Each point is solved on its own, so every row of a sweep equals, bit
    for bit, the row of a sweep over that point alone."""
    maps = _dome_maps()

    def factory(v: float):
        return compose(maps, {"trap": v})

    volts = [0.25, 0.3, 0.35]
    rows = frequency_vs_voltage(factory, volts, k=4, seed=0)
    assert all(not row.flags for row in rows)
    assert rows == [frequency_vs_voltage(factory, [v], k=4, seed=0)[0] for v in volts]


# ---------------------------------------------------------------------------
# symmetry oracles
# ---------------------------------------------------------------------------


def _skewed_dome(seed: int):
    """x and y axes (81 nodes over +-1 um), lever arm and voltage of a seeded
    dome with an off-centre top and an xy term, so it has no mirror or
    transposition symmetry of its own."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    cx, cy = rng.uniform(-0.15e-6, 0.15e-6, 2)
    dx, dy = (xx - cx) / rng.uniform(0.8e-6, 1.1e-6), (yy - cy) / rng.uniform(0.55e-6, 0.75e-6)
    lever = np.exp(-(dx**2 + dy**2 - rng.uniform(-0.4, 0.4) * dx * dy))
    return axis, axis, lever, rng.uniform(0.2, 0.4)


def _levels_and_window(x_axis, y_axis, lever, volts):
    """(f01, f12, alpha) [rad/s] of the default sweep freq solve and the window."""
    field = compose(CouplingMapSet(x_axis=x_axis, y_axis=y_axis, grids={"trap": lever}),
                    {"trap": volts})
    window = np.array(auto_window(field))
    tset = transitions(eigenstates(build_hamiltonian(field, tuple(window), nx=23, ny=23,
                                                     kinetic="sinc"), k=4))
    return np.array([tset.omega_01, tset.omega_12, tset.alpha]), window


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("symmetry", ["transpose", "mirror-x"])
def test_levels_keep_a_symmetry_of_the_map(seed, symmetry):
    """Transposing a gridded map, or mirroring it in x, keeps f01, f12 and
    alpha to 1e-11 of f01 (the splines differ in rounding only; measured
    4e-12 over 40 seeds) and swaps or mirrors the window.  The window's
    centre is the trap minimum, which the final Newton step lands to float
    precision, so the windows agree to 1e-12 of their half-width (measured
    6e-13 over 40 seeds)."""
    x_axis, y_axis, lever, volts = _skewed_dome(seed)
    levels, window = _levels_and_window(x_axis, y_axis, lever, volts)
    if symmetry == "transpose":
        got, got_window = _levels_and_window(y_axis, x_axis, lever.T, volts)
        want_window = window[[2, 3, 0, 1]]
    else:
        got, got_window = _levels_and_window(-x_axis[::-1], y_axis, lever[:, ::-1], volts)
        want_window = np.array([-window[1], -window[0], window[2], window[3]])
    half = 0.5 * max(window[1] - window[0], window[3] - window[2])
    assert np.abs(got - levels).max() <= 1e-11 * levels[0]
    assert np.abs(got_window - want_window).max() <= 1e-12 * half
