from __future__ import annotations

import ast
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from heliumdot import cluster
from heliumdot.cluster import (
    FLOOR_ULPS,
    MAX_ELECTRONS,
    MIN_SEPARATION,
    _pair_diffs,
    _triangular_lattice,
    coupled_spectrum,
    minimize,
    normal_modes,
    shift_vs_voltage_sweep,
    total_energy,
    total_gradient,
    total_hessian,
)
from heliumdot.core import CONSTANTS, DomainError, TWO_PI, default_resonator
from heliumdot.potential import (
    CouplingGradientMap,
    CouplingMapSet,
    GriddedField,
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


def _loop_hessian(field, pos):
    """Reference: the field blocks plus each pair's block, one pair at a time."""
    n = pos.shape[0]
    hess = np.zeros((2 * n, 2 * n))
    for i, block in enumerate(field.energy_derivatives(pos)[1]):
        hess[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += block
    ke2 = CONSTANTS.coulomb * CONSTANTS.e**2
    for i in range(n):
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            r = float(np.hypot(d[0], d[1]))
            block = ke2 * (3.0 * np.outer(d, d) / r**5 - np.eye(2) / r**3)
            hess[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += block
            hess[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] += block
            hess[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] -= block
            hess[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] -= block
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("kind", ["quartic", "gridded"])
def test_hessian_matches_pair_loop(kind, n):
    field = (compose(_sweep_maps(), {"trap": 0.25}) if kind == "gridded"
             else QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9))
    pos = np.random.default_rng(n).uniform(-0.5e-6, 0.5e-6, size=(n, 2))
    hess = total_hessian(field, pos)
    ref = _loop_hessian(field, pos)
    assert hess.shape == (2 * n, 2 * n)
    assert np.array_equal(hess, hess.T)
    assert np.abs(hess - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("kind", ["quartic", "gridded"])
def test_no_pair_terms_below_two_electrons(kind, n):
    field = (compose(_sweep_maps(), {"trap": 0.25}) if kind == "gridded"
             else _harmonic(5.0, 8.0))
    pos = np.full((n, 2), 30e-9)
    assert total_energy(field, pos) == float(np.sum(field.energy(pos[:, 0], pos[:, 1])))
    field_grad, field_hess = field.energy_derivatives(pos)
    grad = total_gradient(field, pos)
    assert grad.shape == (n, 2)
    assert np.array_equal(grad, field_grad)
    hess = total_hessian(field, pos)
    assert hess.shape == (2 * n, 2 * n)
    assert np.array_equal(hess, field_hess.reshape(2 * n, 2 * n))


def test_hessian_stack_in_place_peak_and_bits():
    # the pair blocks are built in one array: the call peaks near twice the
    # stack it returns (the broadcast expression below peaks near 4.75 times),
    # with the same bits
    field = QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9)
    pos = np.random.default_rng(8).uniform(-0.5e-6, 0.5e-6, size=(8, 100, 2))
    tracemalloc.start()
    try:
        hess = total_hessian(field, pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * hess.nbytes

    diff, dist = _pair_diffs(pos)
    r = dist[..., None, None]
    outer = diff[..., :, None] * diff[..., None, :]
    pair = CONSTANTS.coulomb * CONSTANTS.e**2 * (3.0 * outer / r**5 - np.eye(2) / r**3)
    ref = -pair
    idx = np.arange(100)
    ref[..., idx, idx, :, :] = field.energy_derivatives(pos)[1] + pair.sum(axis=-3)
    assert np.array_equal(hess, ref.swapaxes(-3, -2).reshape(8, 200, 200))


def test_descent_peak_holds_live_restarts_only():
    # the descent keeps one Hessian per restart still descending, with no
    # gathered copy of the stack: 8 restarts of 100 electrons peak at no
    # more than 3.25 times their Hessians, query and assembly included
    field = QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9)
    minimize(field, 2, seed=0)  # the first call's imports are not the descent's
    tracemalloc.start()
    try:
        minimize(field, 100, seed=0, restarts=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * (2 * 100) ** 2 * 8


@pytest.mark.parametrize("n", range(1, 41))
def test_triangular_lattice_nearest_first(n):
    center = np.array([0.1e-6, -0.2e-6])
    spacing = 30e-9
    sites = []
    for row in range(-9, 10):
        for col in range(-9, 10):
            x = (col + 0.5 * (row % 2)) * spacing
            y = row * spacing * math.sqrt(3.0) / 2.0
            sites.append((x * x + y * y, x, y))
    ref = np.array([[x, y] for _, x, y in sorted(sites)[:n]]) + center
    assert np.array_equal(_triangular_lattice(center, spacing, n), ref)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("kind", ["quartic", "gridded"])
def test_totals_of_a_stack_are_each_configuration_bit_for_bit(kind, n):
    field = (compose(_sweep_maps(), {"trap": 0.25}) if kind == "gridded"
             else QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9))
    stack = np.random.default_rng(n).uniform(-0.5e-6, 0.5e-6, size=(2, 3, n, 2))
    energy = total_energy(field, stack)
    grad = total_gradient(field, stack)
    hess = total_hessian(field, stack)
    assert energy.shape == (2, 3)
    assert grad.shape == stack.shape
    assert hess.shape == (2, 3, 2 * n, 2 * n)
    for idx in np.ndindex(2, 3):
        assert energy[idx] == total_energy(field, stack[idx])
        assert np.array_equal(grad[idx], total_gradient(field, stack[idx]))
        assert np.array_equal(hess[idx], total_hessian(field, stack[idx]))


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


def test_minimize_deterministic():
    a = minimize(_harmonic(5.0, 8.0), 3, seed=4)
    b = minimize(_harmonic(5.0, 8.0), 3, seed=4)
    assert np.array_equal(a.positions, b.positions)


def test_minimize_validation():
    with pytest.raises(DomainError):
        minimize(_harmonic(5.0, 8.0), -1)
    # a start for another cluster size would slip past the batch memory cap
    with pytest.raises(DomainError, match="init"):
        minimize(_harmonic(5.0, 8.0), 2, init=np.zeros((3, 2)))


def test_minimize_rejects_more_than_max_electrons():
    # refused before the lattice and the pair arrays are built
    with pytest.raises(DomainError, match="n_electrons"):
        minimize(_harmonic(5.0, 8.0), MAX_ELECTRONS + 1)


@pytest.mark.parametrize("restarts", [0, -5])
def test_minimize_rejects_nonpositive_restarts(restarts):
    with pytest.raises(DomainError):
        minimize(_harmonic(5.0, 8.0), 2, restarts=restarts)


def test_minimize_max_iter_exit_not_converged(monkeypatch):
    from heliumdot import cluster

    monkeypatch.setattr(cluster, "MAX_ITER", 1)
    config = minimize(_harmonic(5.0, 8.0), 3, seed=0, restarts=2)
    assert not config.converged
    assert config.gradient_norm > cluster.GRAD_TOL


def test_minimize_leaves_saddle_on_gridded_dome():
    # eight electrons on an 81 x 81 dome exp(-(x/1 um)^2 - (y/0.7 um)^2);
    # a descent without second-order information stops on a saddle here
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    dome = np.exp(-(xx / 1e-6) ** 2 - (yy / 0.7e-6) ** 2)
    maps = CouplingMapSet(x_axis=axis, y_axis=axis, grids={"trap": dome})
    field = compose(maps, {"trap": 0.28})
    config = minimize(field, 8, seed=4)
    assert config.converged
    assert not normal_modes(field, config).is_saddle


def test_minimize_skips_start_with_coincident_pair():
    # the unperturbed start puts both electrons on one point: infinite energy
    field = _harmonic(5.0, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = minimize(field, 2, seed=0, restarts=2, init=np.zeros((2, 2)))
        assert config.converged
        with pytest.raises(DomainError):
            minimize(field, 2, seed=0, restarts=1, init=np.zeros((2, 2)))


@dataclass(frozen=True, eq=False)
class _KinkedEnergy(QuarticField):
    """Harmonic trap whose energy gains kink * |x| that its derivatives leave
    out.  With e E_x = kink the energy is least at the kink x = 0, while the
    gradient vanishes only at x = kink / (2 a1x), uphill of it."""

    kink: float = 0.0

    def _base(self, x, y):
        return super()._base(x, y) - self.kink * np.abs(x) / self.constants.e

    def energy_derivatives(self, points):
        """The harmonic trap's, without the kink."""
        return super().energy_derivatives(points)


def test_minimize_stop_at_energy_kink_not_converged():
    wx, wy = 5.0 * GHZ, 8.0 * GHZ
    a1x = 0.5 * CONSTANTS.m_e * wx**2
    kink = 2 * a1x * 50e-9
    field = _KinkedEnergy(a1x=a1x, a1y=0.5 * CONSTANTS.m_e * wy**2, kink=kink,
                          e_x=kink / CONSTANTS.e)
    # every step at the kink is rejected: the restart stops once its radius is
    # below the spacing of its positions, before the radius squared underflows
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        config = minimize(field, 1, seed=0, restarts=2)
    assert abs(config.positions[0, 0]) < 25e-9  # short of the gradient's zero
    assert config.gradient_norm > cluster.GRAD_TOL  # the kink stopped it, not the gradient
    assert not config.converged


def test_minimize_reaches_stationary_point_on_gridded_map():
    # the Newton step still open at exit is a tiny fraction of the spacing
    field = compose(_sweep_maps(), {"trap": 0.25})
    config = minimize(field, 2, seed=3, restarts=4)
    assert config.converged
    hess = total_hessian(field, config.positions)
    step = np.linalg.solve(hess, total_gradient(field, config.positions).ravel())
    d = float(np.linalg.norm(config.positions[0] - config.positions[1]))
    assert np.linalg.norm(step) < 1e-6 * d


def _dome_field(volts):
    """The 81 x 81 dome exp(-(x/1 um)^2 - (y/0.7 um)^2) at one voltage."""
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    dome = np.exp(-(xx / 1e-6) ** 2 - (yy / 0.7e-6) ** 2)
    return compose(CouplingMapSet(x_axis=axis, y_axis=axis, grids={"trap": dome}),
                   {"trap": volts})


def _scipy_reference(field, starts):
    """One scipy trust-ncg run per start, with the batch's rules: the winner
    by convergence then energy, the earlier start on a tie."""
    import scipy.optimize

    region = field.scan_region
    span = min(region[1] - region[0], region[3] - region[2])

    def fun_and_grad(x):
        pos = x.reshape(-1, 2)
        try:
            energy = total_energy(field, pos)
            grad = total_gradient(field, pos).ravel()
        except DomainError:
            return math.inf, np.zeros_like(x)
        return (energy, grad) if np.all(np.isfinite(grad)) else (math.inf, np.zeros_like(x))

    def hessian(x):
        return total_hessian(field, x.reshape(-1, 2))

    best = None
    for start in starts:
        if not math.isfinite(fun_and_grad(start.ravel())[0]):
            continue
        sol = scipy.optimize.minimize(
            fun_and_grad, start.ravel(), jac=True, hess=hessian, method="trust-ncg",
            options={"gtol": cluster.GRAD_TOL, "initial_trust_radius": span / 2.0,
                     "maxiter": cluster.MAX_ITER})
        converged = sol.status == 0 or (
            sol.status == 2
            and cluster._newton_decrease(sol.jac, hessian(sol.x))
            <= FLOOR_ULPS * np.spacing(abs(sol.fun)))
        if best is None or (converged, -sol.fun) > best[:2]:
            best = (bool(converged), -float(sol.fun), sol.x.reshape(-1, 2))
    return best


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("volts", [0.25, 0.35])
def test_batched_descent_matches_scipy_trust_ncg(monkeypatch, volts, n):
    field = _dome_field(volts)
    seen = []
    descend = cluster._descend
    monkeypatch.setattr(cluster, "_descend",
                        lambda field_, starts: seen.append(starts) or descend(field_, starts))
    config = minimize(field, n, seed=n)
    trap_start, starts = seen  # trap_minimum's one electron, then the restarts
    assert trap_start.shape == (1, 1, 2)
    assert starts.shape == (8, n, 2)
    converged, neg_energy, _ = _scipy_reference(field, starts)
    assert converged and config.converged
    assert not normal_modes(field, config).is_saddle
    assert abs(config.energy + neg_energy) <= 4 * np.spacing(abs(neg_energy))


def test_cold_minimize_makes_one_derivative_call_per_query(monkeypatch):
    field = _dome_field(0.3)
    events, runs = [], []
    query, descend = cluster._query, cluster._descend
    derivatives, assemble = GriddedField.energy_derivatives, cluster._assemble_hessian
    monkeypatch.setattr(cluster, "_query", lambda field_, pos: (
        events.append(("query", pos.shape)) or query(field_, pos)))
    monkeypatch.setattr(GriddedField, "energy_derivatives", lambda self, pts: (
        events.append(("derivatives", np.shape(pts))) or derivatives(self, pts)))
    monkeypatch.setattr(cluster, "_assemble_hessian", lambda blocks, pos, ke2: (
        events.append(("hessians", pos.shape)) or assemble(blocks, pos, ke2)))
    monkeypatch.setattr(cluster, "_descend", lambda field_, starts: (
        runs.append(descend(field_, starts)) or runs[-1]))
    config = minimize(field, 2, seed=0, restarts=8)
    assert config.converged
    # each query makes at most one derivative call, on the stack of its
    # proposals that pass the checks; the only other one is the trap
    # centre's final Newton step
    for before, (kind, shape) in zip(events, events[1:]):
        if kind == "derivatives" and len(shape) == 3:
            assert before[0] == "query"
            assert shape[0] <= before[1][0] and shape[1:] == before[1][1:]
    assert [s for k, s in events if k == "derivatives" and len(s) != 3] == [(2,)]
    assert ("derivatives", (8, 2, 2)) in events  # the cold starts, in one call
    # Hessians are assembled at the starts, then only at accepted steps
    stacks = [s for k, s in events if k == "hessians"]
    accepted = sum(c.iterations for run in runs for c in run if c is not None)
    assert len(stacks) <= accepted + len(runs)
    assert sum(s[0] for s in stacks) <= accepted + sum(len(run) for run in runs)


def _nan_right_of(field, monkeypatch, hole):
    """Make every gradient of field's class NaN at points right of x = hole."""
    derivatives = type(field).energy_derivatives

    def holed_derivatives(self, points):
        grad, hess = derivatives(self, points)
        return np.where(np.asarray(points)[..., :1] > hole, np.nan, grad), hess

    monkeypatch.setattr(type(field), "energy_derivatives", holed_derivatives)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("kind", ["dome", "quartic"])
def test_query_is_the_public_totals_bit_for_bit(monkeypatch, kind, n):
    field = (_dome_field(0.3) if kind == "dome"
             else QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9))
    hole = 0.6e-6
    _nan_right_of(field, monkeypatch, hole)
    stack = np.random.default_rng(29 + n).uniform(-0.5e-6, 0.5e-6, size=(7, n, 2))
    stack[1, 0, 0] = 5e-6  # outside the scan region
    if n > 1:
        stack[2, 1] = stack[2, 0] + 0.5 * MIN_SEPARATION  # a pair too close
    stack[3, -1, 0] = hole + 0.1e-6  # a gradient of NaN
    bad = [1, 3] if n == 1 else [1, 2, 3]
    assert np.isnan(total_gradient(field, stack[3])).any()  # the hole is live
    energy, grad, blocks = cluster._query(field, stack)
    assert np.all(energy[bad] == np.inf)
    assert not grad[bad].any() and not blocks[bad].any()
    good = [k for k in range(len(stack)) if k not in bad]
    hess = cluster._assemble_hessian(blocks[good], stack[good], cluster._ke2(field))
    for k, h in zip(good, hess):
        assert energy[k] == total_energy(field, stack[k])
        assert np.array_equal(grad[k], total_gradient(field, stack[k]).ravel())
        assert np.array_equal(h, total_hessian(field, stack[k]))


def test_batched_steihaug_gives_each_row_its_own_step():
    # rows whose CG stops after 1, 2, 3 and 4 iterations (that many distinct
    # curvatures), on negative curvature at the fifth, and at a small trust
    # radius at the first
    rng = np.random.default_rng(29)
    spectra = [[2.0] * 8, [1.0, 3.0] * 4, [1.0, 2.0, 5.0, 5.0] * 2, [1.0, 2.0, 4.0, 8.0] * 2,
               [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]
    hess = []
    for curvatures in spectra:
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        hess.append((q * curvatures) @ q.T)
    hess = np.array(hess)
    # a small gradient makes the residual tolerance sqrt|g| |g| tight
    grad = 1e-8 * rng.normal(size=(len(spectra), 8))
    energy = rng.normal(size=len(spectra))
    radius = np.array([1.0] * 5 + [1e-9])
    step, hits = cluster._steihaug(energy, grad, hess, radius)
    assert hits.tolist() == [False] * 4 + [True, True]
    for k in range(len(spectra)):
        row = slice(k, k + 1)
        alone, hit = cluster._steihaug(energy[row], grad[row], hess[row], radius[row])
        assert np.array_equal(step[k], alone[0]) and hits[k] == hit[0]


RESTART_BATCHES = [("harmonic", 2, None), ("quartic", 1, None)] + [
    ("dome", n, volts) for n in (1, 2, 4) for volts in (0.25, 0.35)]


def _restart_batch(kind, n, volts):
    """A field and a batch of restarts that stop after different numbers of
    steps and by different rules, then a start outside the scan region and,
    for two or more electrons, one with a coincident pair."""
    if kind == "harmonic":
        field = _harmonic(5.0, 8.0)
        starts = [np.array([[-60e-9, 10e-9], [70e-9, -5e-9]])]
    elif kind == "quartic":
        # the centre of a trap with no linear field: a zero gradient, exactly
        field = QuarticField(a1x=1e-3, a1y=2e-3, a2x=1e9, a2y=3e9)
        starts = [np.zeros((1, 2)), np.array([[0.3e-6, -0.2e-6]])]
    else:
        # 50 nm of noise, seeded by n, around the bench dome's trap minimum
        field = _dome_field(volts)
        center = cluster.trap_minimum(field)[0]
        starts = list(center + np.random.default_rng(n).normal(0.0, 50e-9, size=(8, n, 2)))
    starts.append(starts[0] + 5e-6)  # the scan region is at most +-2 um
    if n > 1:
        starts.append(np.zeros((n, 2)))
    return field, np.stack(starts)


def test_bad_restart_does_not_stop_or_change_the_others():
    # each restart ends where it ends alone, bit for bit, whenever and by
    # whichever rule the others stop
    for case in RESTART_BATCHES:
        field, starts = _restart_batch(*case)
        with np.errstate(all="raise"):
            batch = cluster._descend(field, starts)
            alone = [cluster._descend(field, start[None])[0] for start in starts]
        bad = 2 if case[1] > 1 else 1
        assert batch[-bad:] == [None] * bad, case
        assert all(c.converged for c in batch[:-bad]), case
        for config, ref in zip(batch[:-bad], alone):
            assert np.array_equal(config.positions, ref.positions), case
            assert ((config.energy, config.gradient_norm, config.converged, config.iterations)
                    == (ref.energy, ref.gradient_norm, ref.converged, ref.iterations)), case


def test_descent_computes_no_step_twice(monkeypatch):
    # one query per Steihaug pass, and one of the starts, which the last
    # pass saves when every restart left stops on no predicted decrease
    batches = [_restart_batch(*case) for case in RESTART_BATCHES]
    calls = Counter()
    query, steihaug = cluster._query, cluster._steihaug
    monkeypatch.setattr(cluster, "_query", lambda *args: (
        calls.update(["query"]) or query(*args)))
    monkeypatch.setattr(cluster, "_steihaug", lambda *args: (
        calls.update(["steihaug"]) or steihaug(*args)))
    for case, (field, starts) in zip(RESTART_BATCHES, batches):
        calls.clear()
        cluster._descend(field, starts)
        assert calls["steihaug"] <= calls["query"] <= calls["steihaug"] + 1, case


def test_cluster_does_not_use_scipy_optimize():
    tree = ast.parse(Path(cluster.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("scipy.optimize") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert not module.startswith("scipy.optimize")
            assert not (module == "scipy" and any(a.name == "optimize" for a in node.names))
        elif isinstance(node, ast.Attribute):
            assert node.attr != "optimize"


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


def test_minimize_and_modes_follow_the_field_constants():
    """A field built with twice the charge and four times the mass: the pair
    spacing d^3 = 2 k e^2 / (m omega_x^2) and the mode frequencies use them."""
    c = replace(CONSTANTS, e=2 * CONSTANTS.e, m_e=4 * CONSTANTS.m_e)
    wx, wy = 5.0 * GHZ, 8.0 * GHZ
    field = QuarticField(a1x=0.5 * c.m_e * wx**2, a1y=0.5 * c.m_e * wy**2, constants=c)
    config = minimize(field, 2, seed=0)
    assert config.converged
    d_expect = (2 * c.coulomb * c.e**2 / (c.m_e * wx**2)) ** (1 / 3)
    d = float(np.linalg.norm(config.positions[0] - config.positions[1]))
    assert d == pytest.approx(d_expect, rel=1e-9)
    modes = normal_modes(field, config)
    expect = np.sort([wx, wy, math.sqrt(3.0) * wx, math.sqrt(wy**2 - wx**2)])
    assert np.allclose(modes.frequencies, expect, rtol=1e-6)


@pytest.mark.parametrize("n, ratio_lo", [(2, 1.5), (3, 1.7)])
def test_linear_chains_match_closed_forms_over_seeded_traps(n, ratio_lo):
    """Two and three electrons in 20 seeded harmonic traps with omega_y >
    omega_x lie on the x axis, where James, Appl. Phys. B 66, 181 (1998)
    gives the spacing d (d^3 = 2 k e^2 / (m_e omega_x^2) for two, 5/4 of the
    pair's for three) and every mode: mu omega_x along x, with mu^2 = 1, 3
    (and 29/5), and sqrt(omega_y^2 - (mu^2 - 1) omega_x^2 / 2) across.  The
    three-electron ratios keep clear of the zigzag at sqrt(12/5)."""
    rng = np.random.default_rng(0)
    mu2 = [1.0, 3.0, 29.0 / 5.0][:n]
    ke2 = CONSTANTS.coulomb * CONSTANTS.e**2
    for fx, ratio in zip(rng.uniform(4.0, 9.0, 20), rng.uniform(ratio_lo, 4.0, 20)):
        wx, wy = fx * GHZ, ratio * fx * GHZ
        field = _harmonic(fx, ratio * fx)
        config = minimize(field, n, seed=0)
        assert config.converged
        d = ((2.0 if n == 2 else 1.25) * ke2 / (CONSTANTS.m_e * wx**2)) ** (1 / 3)
        spacings = np.diff(np.sort(config.positions[:, 0]))
        assert np.allclose(spacings, d, rtol=1e-7, atol=0.0)
        modes = normal_modes(field, config)
        expect = np.sqrt([m * wx**2 for m in mu2] + [wy**2 - (m - 1) * wx**2 / 2 for m in mu2])
        assert not modes.is_saddle
        assert np.allclose(modes.frequencies, np.sort(expect), rtol=1e-7, atol=0.0)


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
    with pytest.raises(DomainError):
        coupled_spectrum(modes, config, default_resonator(),
                         uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.1e6))


# ---------------------------------------------------------------------------
# resonator coupling
# ---------------------------------------------------------------------------


def test_coupled_spectrum_uniform_gradient_couples_the_y_mode():
    # one electron in a uniform gradient couples at the g of a coupling
    # length 1 / gradient, through its y mode (the higher one) alone
    from heliumdot.analytic import coupling_g

    res = default_resonator()
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 1, seed=0)
    grad = 0.46e6
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), grad)
    g_k = coupled_spectrum(normal_modes(field, config), config, res, gmap).mode_couplings
    assert g_k.shape == (2,)
    assert g_k[0] == 0.0
    assert abs(g_k[1]) == pytest.approx(coupling_g(res, 1.0 / grad).g, rel=1e-12)


@pytest.mark.parametrize("scale", [0.1, 0.3, 3.0, 10.0])
def test_coupled_spectrum_does_not_read_h(scale):
    # g_i = e / sqrt(m_e C_r) (d alpha-/dy)(r_i) for any h: couplings and
    # shift keep their bits when h changes
    res = default_resonator()
    field = _harmonic(5.0, 8.0)
    config = minimize(field, 2, seed=0)
    modes = normal_modes(field, config)
    gmap = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.46e6)
    ref = coupled_spectrum(modes, config, res, gmap)
    out = coupled_spectrum(modes, config, res, gmap, replace(CONSTANTS, h=scale * CONSTANTS.h))
    assert np.array_equal(out.mode_couplings, ref.mode_couplings)
    assert out.shift == ref.shift


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
    assert rows[0].iterations > 0  # the cold start moves off the lattice guess
    for r in rows:
        assert not r.is_saddle
        assert math.isfinite(r.gradient_norm)
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
    # a single-voltage sweep always starts cold
    cold = [
        shift_vs_voltage_sweep(maps, {}, "trap", [v], 1, res, gradient_map=gmap, seed=0)[0]
        for v in (0.28, 0.32)
    ]
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
    assert [r.is_saddle for r in rows] == [False, True, False]
    assert math.isnan(rows[1].shift)
    assert math.isfinite(rows[0].shift) and math.isfinite(rows[2].shift)


def test_shift_sweep_records_failed_point_and_restarts_cold(monkeypatch):
    from heliumdot import cluster

    real_spectrum = cluster.coupled_spectrum
    real_minimize = cluster.minimize
    spectra, inits = [], []

    def fail_at_second_point(*args, **kwargs):
        spectra.append(1)
        if len(spectra) == 2:
            raise DomainError("coupled spectrum collapsed")
        return real_spectrum(*args, **kwargs)

    def record_init(*args, **kwargs):
        inits.append(kwargs.get("init"))
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(cluster, "coupled_spectrum", fail_at_second_point)
    monkeypatch.setattr(cluster, "minimize", record_init)
    maps = _sweep_maps()
    rows = shift_vs_voltage_sweep(
        maps, {}, "trap", [0.28, 0.30, 0.32, 0.34], 1, default_resonator(),
        gradient_map=uniform_gradient_map(maps.domain, 0.01e6), seed=0,
    )
    assert [r.converged for r in rows] == [True, False, True, True]
    assert math.isnan(rows[1].shift) and not rows[1].is_saddle
    assert [r.flags for r in rows] == [(), ("failed:DomainError",), (), ()]
    assert len(rows[1].mode_frequencies) == 2
    # cold at the first point and after the failure, warm otherwise
    assert [init is None for init in inits] == [True, False, True, False]


def test_shift_sweep_unknown_electrode():
    maps = _sweep_maps()
    with pytest.raises(DomainError):
        shift_vs_voltage_sweep(
            maps, {}, "gate7", [0.1], 1, default_resonator(),
            gradient_map=uniform_gradient_map(maps.domain, 0.01e6),
        )


# ---------------------------------------------------------------------------
# symmetry oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3])
def test_uniform_field_only_translates_a_cluster_in_a_harmonic_trap(seed, n):
    """In a 6 x 9 GHz harmonic trap a uniform E_x shifts every electron by
    e E_x / (2 a1x): the centroid moves by that to 1e-12, y not at all, the
    energy falls by N (e E_x)^2 / (4 a1x) to 1e-12, and the modes stay.  Two
    descents stop anywhere within the floor at which a full Newton step
    would lower the energy by at most FLOOR_ULPS ulp, so the squared modes,
    the Hessian's eigenvalues, agree to that floor over the spacing of the
    largest (measured: at most a tenth of it over 30 seeds)."""
    e_x = float(np.random.default_rng(seed).uniform(0.5e3, 3e3)) * (-1) ** seed
    still, pulled = _harmonic(6.0, 9.0), replace(_harmonic(6.0, 9.0), e_x=e_x)
    shift = CONSTANTS.e * e_x / (2 * still.a1x)
    drop = n * (CONSTANTS.e * e_x) ** 2 / (4 * still.a1x)
    rest, moved = minimize(still, n, seed=seed), minimize(pulled, n, seed=seed)
    assert rest.converged and moved.converged
    centroid = moved.positions.mean(axis=0) - rest.positions.mean(axis=0)
    assert abs(centroid[0] - shift) <= 1e-12 * abs(shift)
    assert abs(centroid[1]) <= 1e-12 * abs(shift)
    assert abs(rest.energy - moved.energy - drop) <= 1e-12 * drop
    lowest = np.linalg.eigvalsh(total_hessian(still, rest.positions))[0]
    floor = math.sqrt(2 * FLOOR_ULPS * np.spacing(abs(rest.energy)) / lowest)
    spacing = _pair_diffs(rest.positions)[1].min()
    modes, pulled_modes = (normal_modes(f, c).frequencies for f, c in ((still, rest),
                                                                       (pulled, moved)))
    assert np.abs(pulled_modes**2 - modes**2).max() <= floor / spacing * modes[-1] ** 2


def _skewed_dome_maps(seed: int, mirrored: bool = False):
    """Maps of a seeded dome with an off-centre top and an xy term, and a
    Gaussian resonator gradient off the top, or the mirror image in x of
    both; and the voltage to compose them at."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(-1e-6, 1e-6, 81)
    xx, yy = np.meshgrid(axis, axis)
    cx, cy = rng.uniform(-0.15e-6, 0.15e-6, 2)
    dx, dy = (xx - cx) / rng.uniform(0.8e-6, 1.1e-6), (yy - cy) / rng.uniform(0.55e-6, 0.75e-6)
    lever = np.exp(-(dx**2 + dy**2 - rng.uniform(-0.4, 0.4) * dx * dy))
    grad = 0.15e6 * np.exp(-((xx - 0.2e-6) ** 2 + (yy + 0.1e-6) ** 2) / (2 * 0.5e-6**2))
    x_axis = axis
    if mirrored:
        x_axis, lever, grad = -axis[::-1], lever[:, ::-1], grad[:, ::-1]
    maps = CouplingMapSet(x_axis=x_axis, y_axis=axis, grids={"trap": lever},
                          resonator_gradient=CouplingGradientMap(x_axis, axis, grad))
    return maps, float(rng.uniform(0.2, 0.4))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mirrored_map_mirrors_the_cluster(seed, n):
    """Mirroring the map in x mirrors the minimised positions, to the floor
    at which a full Newton step would lower the energy by at most
    FLOOR_ULPS ulp, since two descents stop anywhere within it.  At the
    mirrored configuration itself the energy keeps to 1e-15, the modes to
    1e-11 (measured 4e-12) and the sweep shift to 1e-12, the splines of the
    two maps differing in rounding only."""
    maps, volts = _skewed_dome_maps(seed)
    mirror_maps, _ = _skewed_dome_maps(seed, mirrored=True)
    field, mirror = compose(maps, {"trap": volts}), compose(mirror_maps, {"trap": volts})
    config = minimize(field, n, seed=seed)
    found = minimize(mirror, n, seed=seed).positions * (-1.0, 1.0)
    assert config.converged
    lowest = np.linalg.eigvalsh(total_hessian(field, config.positions))[0]
    floor = math.sqrt(2 * FLOOR_ULPS * np.spacing(abs(config.energy)) / lowest)
    order = np.lexsort(config.positions.T[::-1])
    assert np.abs(found[np.lexsort(found.T[::-1])] - config.positions[order]).max() <= floor

    image = replace(config, positions=config.positions * (-1.0, 1.0))
    assert abs(total_energy(mirror, image.positions) - config.energy) <= 1e-15 * abs(config.energy)
    modes, image_modes = normal_modes(field, config), normal_modes(mirror, image)
    np.testing.assert_allclose(image_modes.frequencies, modes.frequencies, rtol=1e-11, atol=0)
    res = default_resonator()
    [row] = shift_vs_voltage_sweep(maps, {}, "trap", [volts], n, res, seed=seed)
    assert row.shift == coupled_spectrum(modes, config, res, maps.resonator_gradient).shift
    image_shift = coupled_spectrum(image_modes, image, res, mirror_maps.resonator_gradient).shift
    assert abs(image_shift - row.shift) <= 1e-12 * abs(row.shift)


@pytest.mark.parametrize("seed", range(3))
def test_permuting_electrons_keeps_energy_and_modes(seed):
    """Relabelling the electrons reorders the pair sums only: the energy
    keeps to 4 ulp and the mode frequencies to 1e-13, at a minimum of five
    electrons on a gridded dome and at a seeded off-equilibrium stack."""
    maps, volts = _skewed_dome_maps(seed)
    field = compose(maps, {"trap": volts})
    rng = np.random.default_rng(seed)
    config = minimize(field, 5, seed=seed)
    modes = normal_modes(field, config).frequencies
    stack = rng.uniform(-0.5e-6, 0.5e-6, size=(4, 5, 2))
    for _ in range(3):
        perm = rng.permutation(5)
        for pos in (config.positions, *stack):
            energy = total_energy(field, pos)
            assert abs(total_energy(field, pos[perm]) - energy) <= 4 * np.spacing(abs(energy))
        permuted = normal_modes(field, replace(config, positions=config.positions[perm]))
        np.testing.assert_allclose(permuted.frequencies, modes, rtol=1e-13, atol=0)
