"""Shared constants, unit conventions, and device parameter records.

Every internal computation in this package works in SI units with
*angular* frequencies (rad/s).  Cyclic frequencies (Hz and friends) appear
only at I/O boundaries: file formats, CLI arguments, and printed reports.
The :class:`Frequency` record and :func:`convert_frequency` exist to make
that boundary explicit instead of leaving factors of 2*pi to convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Input lies outside the mathematical or physical domain of an operation."""


class FormatError(ValueError):
    """Malformed input file or record."""


class FitError(RuntimeError):
    """Nonlinear fit could not proceed (too few data points, or a model not
    finite at the initial point)."""


# ---------------------------------------------------------------------------
# frequency conventions
# ---------------------------------------------------------------------------

_UNIT_TO_HZ = {
    "rad/s": 1.0 / TWO_PI,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
}


def convert_frequency(value: float, from_unit: str, to_unit: str) -> float:
    """Convert a frequency between angular (rad/s) and cyclic units.

    Pure multiplicative conversion; round trips are identity to double
    precision.  Unknown unit strings raise ``DomainError``.
    """
    try:
        f_from = _UNIT_TO_HZ[from_unit]
        f_to = _UNIT_TO_HZ[to_unit]
    except KeyError as exc:
        raise DomainError(f"unknown frequency unit: {exc.args[0]!r}") from None
    return value * (f_from / f_to)


@dataclass(frozen=True)
class Frequency:
    """A frequency stored as an angular value in rad/s.

    Constructors and accessors carry the unit in their names so call sites
    never have to guess whether a number includes the 2*pi.
    """

    rad_per_s: float

    @classmethod
    def from_cyclic(cls, hz: float) -> "Frequency":
        return cls(hz * TWO_PI)

    @classmethod
    def from_ghz(cls, ghz: float) -> "Frequency":
        return cls(ghz * 1e9 * TWO_PI)

    @property
    def hz(self) -> float:
        return self.rad_per_s / TWO_PI

    @property
    def mhz(self) -> float:
        return self.rad_per_s / TWO_PI / 1e6

    @property
    def ghz(self) -> float:
        return self.rad_per_s / TWO_PI / 1e9

    def __float__(self) -> float:
        return float(self.rad_per_s)


# ---------------------------------------------------------------------------
# physical constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values plus the few material constants the models need.

    All fields are overridable through a config file (see
    :func:`constants_from_config`), but there is exactly one definition
    site: nothing else in the package redefines a constant.

    Units: e [C], m_e [kg], h [J s], hbar [J s], eps0 [F/m], mu_B [J/T],
    k_B [J/K], rho_he [kg/m^3] (liquid helium density), sigma_he [N/m]
    (helium surface tension), g_earth [m/s^2].
    """

    e: float = 1.602176634e-19
    m_e: float = 9.1093837015e-31
    h: float = 6.62607015e-34
    hbar: float = 6.62607015e-34 / TWO_PI
    eps0: float = 8.8541878128e-12
    mu_b: float = 9.2740100783e-24
    k_b: float = 1.380649e-23
    rho_he: float = 145.0
    sigma_he: float = 3.78e-4
    g_earth: float = 9.81

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"constant {f.name} must be finite and positive, got {value!r}")
        if abs(self.hbar - self.h / TWO_PI) > 1e-12 * self.hbar:
            raise DomainError("inconsistent h and hbar: hbar must equal h / 2pi")

    @property
    def coulomb(self) -> float:
        """Coulomb constant 1/(4 pi eps0) [N m^2 / C^2]."""
        return 1.0 / (4.0 * math.pi * self.eps0)


CONSTANTS = PhysicalConstants()


# ---------------------------------------------------------------------------
# resonator parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResonatorParams:
    """Lumped-element description of the coupling resonator.

    l_r and c_r are the mode inductance and capacitance that set the
    resonance frequency and impedance.  The decay rates are angular:
    kappa_1 and kappa_2 are the input/output port couplings, kappa_int the
    internal loss.
    """

    l_r: float
    c_r: float
    kappa_1: float = 0.0
    kappa_2: float = 0.0
    kappa_int: float = 0.0

    def __post_init__(self) -> None:
        if not (self.l_r > 0 and self.c_r > 0):
            raise DomainError("resonator l_r and c_r must be positive")
        if self.kappa_1 < 0 or self.kappa_2 < 0 or self.kappa_int < 0:
            raise DomainError("decay rates must be non-negative")

    @property
    def omega_r(self) -> float:
        """Angular resonance frequency 1/sqrt(L C) [rad/s]."""
        return 1.0 / math.sqrt(self.l_r * self.c_r)

    @property
    def impedance(self) -> float:
        """Characteristic impedance sqrt(L/C) [ohm]."""
        return math.sqrt(self.l_r / self.c_r)

    @property
    def kappa_tot(self) -> float:
        return self.kappa_1 + self.kappa_2 + self.kappa_int

    @classmethod
    def from_mode(cls, omega_r: float, impedance: float, **kwargs) -> "ResonatorParams":
        """Build from (omega_r, Z) instead of (L, C); exact inverse of the properties."""
        if omega_r <= 0 or impedance <= 0:
            raise DomainError("omega_r and impedance must be positive")
        return cls(l_r=impedance / omega_r, c_r=1.0 / (impedance * omega_r), **kwargs)


def derived_resonator_quantities(
    params: ResonatorParams, constants: PhysicalConstants = CONSTANTS
) -> tuple[Frequency, float, float]:
    """Return (omega_r, impedance, v_zpf) for a resonator.

    v_zpf = sqrt(2 hbar omega_r / C) is the zero-point voltage amplitude of
    the mode across the coupling capacitance [V].
    """
    omega_r = params.omega_r
    v_zpf = math.sqrt(2.0 * constants.hbar * omega_r / params.c_r)
    return Frequency(omega_r), params.impedance, v_zpf


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_DEFAULT_RESONATOR = dict(
    l_r=85e-9,
    c_r=5.8e-15,
    kappa_1=TWO_PI * 11.5e6,
    kappa_2=TWO_PI * 11.5e6,
    kappa_int=0.0,
)


def default_resonator() -> ResonatorParams:
    """Device-default resonator: 85 nH, 5.8 fF, symmetric 23 MHz total linewidth."""
    return ResonatorParams(**_DEFAULT_RESONATOR)


def load_config(path: str) -> dict:
    """Read a JSON config file; top-level keys 'constants' and 'resonator' are recognized."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise FormatError(f"config {path}: top level must be an object")
    return cfg


def _config_section(cfg: dict, name: str, record: type) -> dict:
    """The config's ``name`` section: an object of finite numbers keyed by
    fields of ``record``; FormatError otherwise."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise FormatError(f"config section {name!r} must be an object")
    unknown = set(section) - {f.name for f in fields(record)}
    if unknown:
        raise FormatError(f"unknown {name} fields in config: {sorted(unknown)}")
    for key, value in section.items():
        if isinstance(value, bool) or not (isinstance(value, (int, float))
                                           and math.isfinite(value)):
            raise FormatError(f"config {name}.{key} must be a finite number, got {value!r}")
    return dict(section)


def constants_from_config(cfg: dict) -> PhysicalConstants:
    """Apply the 'constants' section of a config on top of the defaults.

    h and hbar stay consistent: overriding one derives the other unless both
    are given, in which case they must agree to double precision.
    """
    overrides = _config_section(cfg, "constants", PhysicalConstants)
    if "h" in overrides and "hbar" not in overrides:
        overrides["hbar"] = overrides["h"] / TWO_PI
    elif "hbar" in overrides and "h" not in overrides:
        overrides["h"] = overrides["hbar"] * TWO_PI
    return replace(CONSTANTS, **overrides)


def resonator_from_config(cfg: dict) -> ResonatorParams:
    """Apply the 'resonator' section of a config on top of the device defaults."""
    overrides = _config_section(cfg, "resonator", ResonatorParams)
    merged = dict(_DEFAULT_RESONATOR)
    merged.update(overrides)
    return ResonatorParams(**merged)
