from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from heliumdot import analytic
from heliumdot.analytic import (
    BiasFilterCircuit,
    CubicTrap1D,
    bias_capacitance,
    cardano_minimum,
    cooperativity,
    coupling_g,
    effective_frequency,
    helium_depression,
    omega_min,
    purcell_bias,
    purcell_resonator,
    spin_couplings,
    zero_point_length,
)
from heliumdot.core import CONSTANTS, DomainError, TWO_PI, default_resonator

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


# ---------------------------------------------------------------------------
# coupling rate
# ---------------------------------------------------------------------------


def test_zero_point_length_frozen():
    assert zero_point_length(7.162 * GHZ) == pytest.approx(
        3.586505427347668e-08, rel=1e-12
    )
    with pytest.raises(DomainError):
        zero_point_length(0.0)


def test_zero_point_length_scaling():
    # amplitude shrinks as 1/sqrt(omega)
    assert zero_point_length(4.0 * GHZ) == pytest.approx(
        2.0 * zero_point_length(16.0 * GHZ), rel=1e-12
    )


def test_coupling_g_formula():
    res = default_resonator()
    ell = 2.2e-6
    out = coupling_g(res, ell)
    expect = CONSTANTS.e * out.l_y * out.v_zpf / (CONSTANTS.hbar * ell)
    assert out.g == pytest.approx(expect, rel=1e-14)
    assert out.l_y == pytest.approx(zero_point_length(res.omega_r), rel=1e-14)
    assert out.omega_r == res.omega_r


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_coupling_g_does_not_depend_on_h(scale):
    # l_y V_zpf grows as hbar, so g = e / (ell sqrt(m_e C_r)): sweep shift
    # takes no h for this reason
    res = default_resonator()
    ell = 2.2e-6
    out = coupling_g(res, ell, replace(CONSTANTS, h=scale * CONSTANTS.h))
    expect = CONSTANTS.e / (ell * math.sqrt(CONSTANTS.m_e * res.c_r))
    assert out.g == pytest.approx(expect, rel=1e-14)


def test_coupling_g_validation():
    with pytest.raises(DomainError):
        coupling_g(default_resonator(), 0.0)


# ---------------------------------------------------------------------------
# quartic trap closed forms
# ---------------------------------------------------------------------------


def test_cardano_zero_field_is_exactly_zero():
    # a1 = 0 is the triple root p = q = 0
    for a1 in (1e-9, 0.0):
        res = cardano_minimum(CubicTrap1D(a1=a1, a2=2750.0, e_y=0.0))
        assert res.y0 == 0.0
        assert res.regime == "single-real"


def test_cardano_pure_quartic_closed_form():
    a2, e_y = 2750.0, 300.0
    res = cardano_minimum(CubicTrap1D(a1=0.0, a2=a2, e_y=e_y))
    expect = (CONSTANTS.e * e_y / (4.0 * a2)) ** (1.0 / 3.0)
    assert res.y0 == pytest.approx(expect, rel=1e-14)


def test_cardano_harmonic_limit():
    a1 = 1e-9
    res = cardano_minimum(CubicTrap1D(a1=a1, a2=0.0, e_y=250.0))
    assert res.regime == "linear"
    assert res.y0 == pytest.approx(CONSTANTS.e * 250.0 / (2.0 * a1), rel=1e-14)
    with pytest.raises(DomainError):
        cardano_minimum(CubicTrap1D(a1=0.0, a2=0.0, e_y=250.0))
    with pytest.raises(DomainError):
        cardano_minimum(CubicTrap1D(a1=-1e-9, a2=0.0, e_y=250.0))


def test_cardano_double_well_symmetric():
    a1, a2 = -2e-9, 2750.0
    res = cardano_minimum(CubicTrap1D(a1=a1, a2=a2, e_y=0.0))
    assert res.regime == "three-real"
    assert len(res.roots) == 3
    assert abs(res.y0) == pytest.approx(math.sqrt(-a1 / (2.0 * a2)), rel=1e-10)


def test_cardano_tilted_double_well_picks_global_minimum():
    trap = CubicTrap1D(a1=-2e-9, a2=2750.0, e_y=50.0)
    res = cardano_minimum(trap)
    assert res.regime == "three-real"
    # positive tilt lowers the positive-y well
    assert res.y0 > 0
    others = [r for r in res.roots if r != res.y0]
    assert all(trap.energy(res.y0) <= trap.energy(r) for r in others)


def test_cardano_random_traps_match_grid_scan():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a1 = float(rng.uniform(0.0, 2e-9))
        a2 = float(np.exp(rng.uniform(np.log(500.0), np.log(2e4))))
        e_y = float(np.exp(rng.uniform(np.log(50.0), np.log(1e3))))
        trap = CubicTrap1D(a1=a1, a2=a2, e_y=e_y)
        res = cardano_minimum(trap)
        assert res.discriminant < 0
        span = 3.0 * abs(res.y0) + 50e-9
        ys = np.linspace(-span, span, 20001)
        u = trap.energy(ys)
        i = int(np.argmin(u))
        # parabolic refinement of the scan minimum
        denom = u[i - 1] - 2 * u[i] + u[i + 1]
        y_scan = ys[i] + 0.5 * (u[i - 1] - u[i + 1]) / denom * (ys[1] - ys[0])
        worst = max(worst, abs(res.y0 - y_scan))
    assert worst < 1e-11  # 0.01 nm


def test_effective_frequency_harmonic_exact():
    a1 = 1e-9
    f = effective_frequency(CubicTrap1D(a1=a1, a2=0.0, e_y=0.0))
    assert f == pytest.approx(math.sqrt(2.0 * a1 / CONSTANTS.m_e), rel=1e-14)


def test_effective_frequency_matches_numeric_curvature():
    trap = CubicTrap1D(a1=3e-10, a2=5000.0, e_y=400.0)
    y0 = cardano_minimum(trap).y0
    h = 1e-12
    curv = (trap.energy(y0 + h) - 2 * trap.energy(y0) + trap.energy(y0 - h)) / h**2
    assert effective_frequency(trap) == pytest.approx(
        math.sqrt(curv / CONSTANTS.m_e), rel=1e-5
    )


def test_effective_frequency_rejects_maximum():
    # inverted harmonic has a stationary maximum at the origin
    with pytest.raises(DomainError):
        effective_frequency(CubicTrap1D(a1=-1e-9, a2=0.0, e_y=0.0))


def test_omega_min_exact_zero_and_scaling():
    assert omega_min(0.0, 300.0) == 0.0
    assert omega_min(2750.0, 0.0) == 0.0
    base = omega_min(2750.0, 300.0)
    assert omega_min(8 * 2750.0, 300.0) == pytest.approx(math.sqrt(2.0) * base, rel=1e-12)
    assert omega_min(2750.0, 8 * 300.0) == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(DomainError):
        omega_min(-1.0, 300.0)


def test_omega_min_equals_curvature_frequency_at_zero_quadratic():
    a2, e_y = 2750.0, 300.0
    f = effective_frequency(CubicTrap1D(a1=0.0, a2=a2, e_y=e_y))
    assert omega_min(a2, e_y) == pytest.approx(f, rel=1e-12)


# ---------------------------------------------------------------------------
# decay channels
# ---------------------------------------------------------------------------


def test_purcell_resonator_on_resonance():
    g, kappa = 110.0 * MHZ, 23.0 * MHZ
    out = purcell_resonator(g, kappa, 0.0)
    assert out.gamma_1 == pytest.approx(4.0 * g**2 / kappa, rel=1e-12)
    assert out.t1 == pytest.approx(7.563148122135522e-11, rel=1e-12)


def test_purcell_resonator_detuned_frozen():
    out = purcell_resonator(110.0 * MHZ, 23.0 * MHZ, 1.1 * GHZ)
    assert out.t1 == pytest.approx(6.920536449242446e-07, rel=1e-12)


def test_purcell_lifetime_monotone_in_detuning():
    g, kappa = 110.0 * MHZ, 23.0 * MHZ
    t1s = [purcell_resonator(g, kappa, d * GHZ).t1 for d in (2.0, 1.5, 1.0, 0.5, 0.1)]
    assert all(a > b for a, b in zip(t1s, t1s[1:]))


def test_purcell_zero_coupling_infinite_lifetime():
    out = purcell_resonator(0.0, 23.0 * MHZ, 1.0 * GHZ)
    assert out.gamma_1 == 0.0
    assert math.isinf(out.t1)


def test_bias_capacitance_frozen():
    c_c = bias_capacitance(0.03e6, 5.0 * GHZ)
    assert c_c == pytest.approx(2.5696534421620603e-20, rel=1e-12)
    # scales as 1/omega^2 and (dalpha/dy)^2
    assert bias_capacitance(0.03e6, 10.0 * GHZ) == pytest.approx(c_c / 4.0, rel=1e-12)
    assert bias_capacitance(0.06e6, 5.0 * GHZ) == pytest.approx(4.0 * c_c, rel=1e-12)


def test_bias_filter_circuit():
    circuit = BiasFilterCircuit(l_f=12e-9, c_f=0.8e-12, c_c=1e-17, c_other=1e-15)
    assert circuit.filter_resonance / GHZ == pytest.approx(1.624368335903492, rel=1e-12)
    with pytest.raises(DomainError):
        BiasFilterCircuit(l_f=12e-9, c_f=0.8e-12, c_c=2e-15, c_other=1e-15)
    with pytest.raises(DomainError):
        BiasFilterCircuit(l_f=0.0, c_f=0.8e-12, c_c=1e-17, c_other=1e-15)


def test_purcell_bias_stopband_suppression():
    # far above the filter resonance the line is screened and T1 is long
    omega_e = 5.0 * GHZ
    c_c = bias_capacitance(0.03e6, omega_e)
    circuit = BiasFilterCircuit(l_f=12e-9, c_f=0.8e-12, c_c=c_c, c_other=c_c)
    out = purcell_bias(circuit, omega_e)
    assert out.t1 > 1e-3
    # near the filter resonance the decay is much faster
    near = purcell_bias(circuit, circuit.filter_resonance)
    assert near.gamma_1 > 10.0 * out.gamma_1


# ---------------------------------------------------------------------------
# spin, helium surface, figure of merit
# ---------------------------------------------------------------------------


def test_spin_couplings_frozen():
    out = spin_couplings(g_c=120.0 * MHZ, dbz_dx=1e5, a_x=50e-9, delta_cs=2.0 * GHZ)
    assert out.g_cs / MHZ == pytest.approx(49.484198527224414, rel=1e-12)
    assert out.g_s / MHZ == pytest.approx(2.969051911633465, rel=1e-12)


def test_spin_couplings_validation():
    with pytest.raises(DomainError):
        spin_couplings(120.0 * MHZ, 1e5, 0.0, 2.0 * GHZ)
    with pytest.raises(DomainError):
        spin_couplings(120.0 * MHZ, 1e5, 50e-9, 0.0)


def test_helium_depression_frozen_and_scaling():
    d = helium_depression(3e-3, 1.4e-6)
    assert d == pytest.approx(2.7658749999999996e-09, rel=1e-12)
    assert helium_depression(3e-3, 2.8e-6) == pytest.approx(4.0 * d, rel=1e-12)
    assert helium_depression(0.0, 1.4e-6) == 0.0


def test_cooperativity():
    assert cooperativity(2.0, 1.0, 4.0) == pytest.approx(4.0)
    c = cooperativity(118.0 * MHZ, 23.0 * MHZ, 75.0 * MHZ)
    assert c == pytest.approx(32.28753623188406, rel=1e-12)
    with pytest.raises(DomainError):
        cooperativity(1.0, 0.0, 1.0)
