"""Closed-form device estimates: coupling rates, trap frequencies, decay channels.

These are the back-of-the-envelope layer of the package.  Each function is a
direct scalar evaluation of a lumped-element or single-mode expression, kept
separate from the numerical machinery so the two can cross-check each other.
All frequencies and rates are angular (rad/s) unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONSTANTS,
    DomainError,
    PhysicalConstants,
    ResonatorParams,
    derived_resonator_quantities,
)


# ---------------------------------------------------------------------------
# electron-photon coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingResult:
    """Coupling rate with the intermediates that went into it.

    g [rad/s]; l_y [m] zero-point motion amplitude sqrt(hbar / 2 m omega);
    v_zpf [V]; impedance [ohm]; omega_r [rad/s].
    """

    g: float
    l_y: float
    v_zpf: float
    impedance: float
    omega_r: float


def zero_point_length(omega: float, constants: PhysicalConstants = CONSTANTS) -> float:
    """Zero-point motional amplitude sqrt(hbar / (2 m_e omega)) [m]."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    return math.sqrt(constants.hbar / (2.0 * constants.m_e * omega))


def coupling_g(
    res: ResonatorParams,
    coupling_length: float,
    constants: PhysicalConstants = CONSTANTS,
) -> CouplingResult:
    """Dipole coupling rate of the electron's motion to the resonator mode.

    hbar g = (e * l_y) * V_zpf / ell, where ell is the inverse differential
    lever-arm derivative at the electron position (the voltage-to-field
    conversion length of the resonator mode).  l_y is evaluated at the bare
    resonator frequency (the on-resonance condition).
    """
    if coupling_length <= 0:
        raise DomainError("coupling length must be positive")
    omega_r, impedance, v_zpf = derived_resonator_quantities(res, constants)
    l_y = zero_point_length(omega_r, constants)
    g = constants.e * l_y * v_zpf / (constants.hbar * coupling_length)
    return CouplingResult(g=g, l_y=l_y, v_zpf=v_zpf, impedance=impedance, omega_r=omega_r)


# ---------------------------------------------------------------------------
# quartic 1-D trap: minimum location and curvature frequency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicTrap1D:
    """1-D quartic trap U(y) = a1 y^2 + a2 y^4 - e E_y y.

    Coefficients in energy units: a1 [J/m^2], a2 [J/m^4] (a2 >= 0),
    e_y [V/m].  Named for the depressed cubic its stationarity condition
    reduces to.
    """

    a1: float
    a2: float
    e_y: float
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a1, self.a2, self.e_y))):
            raise DomainError("trap coefficients must be finite")
        if self.a2 < 0:
            raise DomainError("quartic coefficient a2 must be non-negative")

    def energy(self, y):
        y = np.asarray(y, dtype=float)
        return self.a1 * y**2 + self.a2 * y**4 - self.constants.e * self.e_y * y

    def curvature(self, y):
        """U''(y) [J/m^2]."""
        # a2 y^2 first: 12 a2 alone overflows for a2 near the float maximum
        return 2.0 * self.a1 + 12.0 * (self.a2 * np.asarray(y, dtype=float) ** 2)


@dataclass(frozen=True)
class CardanoResult:
    """Stationary points of the quartic trap.

    y0 is the global energy minimum [m]; roots lists all real stationary
    points ascending; discriminant refers to the depressed cubic
    y^3 + p y + q = 0 (negative: one real root; positive: three).
    regime is one of "single-real", "three-real", "linear" (a2 = 0).
    """

    y0: float
    roots: tuple
    discriminant: float
    regime: str


def cardano_minimum(trap: CubicTrap1D) -> CardanoResult:
    """Locate the trap minimum by solving U'(y) = 0 in closed form.

    U'(y) = 0 is the depressed cubic y^3 + p y + q = 0 with
    p = a1 / (2 a2) and q = -e E_y / (4 a2).  For discriminant
    D = -(4 p^3 + 27 q^2) < 0 the single real root is the Cardano sum of the
    two real cube roots; for D > 0 all three roots come from the
    trigonometric form and the global minimum is picked by energy.
    """
    c = trap.constants
    if trap.a2 == 0.0:
        if trap.a1 == 0.0:
            raise DomainError("flat potential: no confining minimum")
        if trap.a1 < 0.0:
            raise DomainError("inverted quadratic potential: no confining minimum")
        y0 = c.e * trap.e_y / (2.0 * trap.a1)
        return CardanoResult(y0=y0, roots=(y0,), discriminant=math.nan, regime="linear")

    p = trap.a1 / (2.0 * trap.a2)
    q = -c.e * trap.e_y / (4.0 * trap.a2)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError("trap coefficients overflow the float range")
    disc = -(4.0 * p**3 + 27.0 * q**2)

    if disc < 0.0 or p >= 0.0:
        # one real stationary point (p = q = 0 is the triple root y = 0);
        # both cube-root arguments are real
        s = math.sqrt(q**2 / 4.0 + p**3 / 27.0)
        y0 = np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s)
        return CardanoResult(y0=float(y0), roots=(float(y0),), discriminant=disc,
                             regime="single-real")

    # three real stationary points (p < 0 here): trigonometric solution
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m) if p * m != 0.0 else 0.0  # p * m underflows only near y = 0
    arg = min(1.0, max(-1.0, arg))  # clamp rounding at the D -> 0 boundary
    theta = math.acos(arg)
    roots = sorted(m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3))
    energies = [float(trap.energy(r)) for r in roots]
    y0 = roots[int(np.argmin(energies))]
    return CardanoResult(y0=float(y0), roots=tuple(roots), discriminant=disc,
                         regime="three-real")


def effective_frequency(trap: CubicTrap1D) -> float:
    """Small-oscillation angular frequency sqrt(U''(y0) / m_e) at the minimum."""
    res = cardano_minimum(trap)
    curv = float(trap.curvature(res.y0))
    if curv <= 0.0:
        raise DomainError("stationary point is not a minimum (non-positive curvature)")
    return math.sqrt(curv / trap.constants.m_e)


def omega_min(a2: float, e_y: float, constants: PhysicalConstants = CONSTANTS) -> float:
    """Trap frequency at vanishing quadratic term [rad/s].

    omega^2 = (12 a2^(1/3) / m_e) (e E_y / 4)^(2/3): the frequency floor a
    pressing field E_y enforces when electrode voltages tune the quadratic
    coefficient through zero.  Zero when either a2 or E_y is zero.
    """
    if a2 < 0:
        raise DomainError("a2 must be non-negative")
    if a2 == 0.0 or e_y == 0.0:
        return 0.0
    c = constants
    w2 = (12.0 * np.cbrt(a2) / c.m_e) * (c.e * abs(e_y) / 4.0) ** (2.0 / 3.0)
    return math.sqrt(w2)


# ---------------------------------------------------------------------------
# decay channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PurcellResult:
    """Energy decay rate gamma_1 [1/s], a probability decay rate and not an
    angular frequency, and lifetime t1 = 1/gamma_1 [s]."""

    gamma_1: float
    t1: float


def purcell_resonator(g: float, kappa: float, delta: float) -> PurcellResult:
    """Photon-emission decay through the resonator.

    gamma_1 = g^2 kappa / (delta^2 + (kappa/2)^2) [1/s] for g, kappa and
    the electron-resonator detuning delta in rad/s.  On resonance this is
    4 g^2 / kappa; far detuned it falls off as (g/delta)^2 kappa.
    """
    if g < 0 or kappa <= 0:
        raise DomainError("need g >= 0 and kappa > 0")
    gamma = g**2 * kappa / (delta**2 + (kappa / 2.0) ** 2)
    return PurcellResult(gamma_1=gamma, t1=math.inf if gamma == 0 else 1.0 / gamma)


def bias_capacitance(
    dalpha_dy: float, omega_e: float, constants: PhysicalConstants = CONSTANTS
) -> float:
    """Effective electron-to-bias-electrode coupling capacitance [F].

    C_c = (e^2 / m_e omega_e^2) (d alpha / d y)^2: the moving electron's
    image-charge response on a bias electrode with lever-arm derivative
    d alpha / d y [1/m].
    """
    if omega_e <= 0:
        raise DomainError("omega_e must be positive")
    c = constants
    return (c.e**2 / (c.m_e * omega_e**2)) * dalpha_dy**2


Z0_BIAS_LINE = 50.0  # ohm, the line impedance behind the bias filter


@dataclass(frozen=True)
class BiasFilterCircuit:
    """On-chip LC low-pass between a bias electrode and the 50 ohm environment.

    l_f [H] and c_f [F] form the filter; c_c [F] the electron coupling
    capacitance; c_other [F] the electron's total capacitance to everything
    else (c_c <= c_other).
    """

    l_f: float
    c_f: float
    c_c: float
    c_other: float

    def __post_init__(self) -> None:
        if min(self.l_f, self.c_f, self.c_c, self.c_other) <= 0:
            raise DomainError("circuit elements must be positive")
        if self.c_c > self.c_other:
            raise DomainError("c_c must not exceed c_other")

    @property
    def filter_resonance(self) -> float:
        """Angular self-resonance 1/sqrt(l_f c_f) [rad/s]."""
        return 1.0 / math.sqrt(self.l_f * self.c_f)


def purcell_bias(circuit: BiasFilterCircuit, omega_e: float) -> PurcellResult:
    """Electron energy decay into the filtered bias line.

    gamma_1 [1/s] = omega_e (C_c / C_other) * omega_e Z0 C_c /
              [ (1 - omega_e^2 L_f (C_f + C_c))^2 + (omega_e Z0 (C_f + C_c))^2 ]

    The filter stopband suppresses the environment's real impedance at the
    electron frequency; the rate peaks near the filter self-resonance.
    """
    if omega_e <= 0:
        raise DomainError("omega_e must be positive")
    cc, cf, lf, z0 = circuit.c_c, circuit.c_f, circuit.l_f, Z0_BIAS_LINE
    csum = cf + cc
    denom = (1.0 - omega_e**2 * lf * csum) ** 2 + (omega_e * z0 * csum) ** 2
    gamma = omega_e * (cc / circuit.c_other) * omega_e * z0 * cc / denom
    return PurcellResult(gamma_1=gamma, t1=math.inf if gamma == 0 else 1.0 / gamma)


# ---------------------------------------------------------------------------
# spin interface, helium surface, figure of merit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinCouplings:
    """Charge-spin hybridization rates [rad/s]: direct g_cs and the
    resonator-mediated spin-photon g_s."""

    g_cs: float
    g_s: float


def spin_couplings(
    g_c: float,
    dbz_dx: float,
    a_x: float,
    delta_cs: float,
    constants: PhysicalConstants = CONSTANTS,
) -> SpinCouplings:
    """Spin-orbit rates from a local magnetic field gradient.

    g_cs = mu_B a_x (dB_z/dx) / (sqrt(2) hbar): spin-charge coupling for
    in-plane zero-point motion a_x [m] across a gradient dbz_dx [T/m].
    g_s = g_c g_cs / delta_cs: spin-photon rate mediated by the charge mode
    detuned by delta_cs [rad/s].
    """
    if a_x <= 0:
        raise DomainError("a_x must be positive")
    if delta_cs == 0:
        raise DomainError("charge-spin detuning must be non-zero")
    c = constants
    g_cs = c.mu_b * a_x * dbz_dx / (math.sqrt(2.0) * c.hbar)
    g_s = g_c * g_cs / delta_cs
    return SpinCouplings(g_cs=g_cs, g_s=g_s)


def helium_depression(
    height: float,
    channel_width: float,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Gravitational thinning of the helium film bridging a microchannel [m].

    delta = rho g H w^2 / (8 sigma): the capillary sag of a film held a
    height H [m] above the bulk level across a channel of width w [m].
    """
    if height < 0 or channel_width < 0:
        raise DomainError("height and channel width must be non-negative")
    c = constants
    return c.rho_he * c.g_earth * height * channel_width**2 / (8.0 * c.sigma_he)


def cooperativity(g: float, kappa: float, gamma_2: float) -> float:
    """C = 4 g^2 / (kappa gamma_2), the strong-coupling figure of merit."""
    if kappa <= 0 or gamma_2 <= 0:
        raise DomainError("kappa and gamma_2 must be positive")
    return 4.0 * g**2 / (kappa * gamma_2)
