"""Shared constants, unit conventions, and device parameter records.

Every internal computation in this package works in SI units with
*angular* frequencies (rad/s), held as plain floats; no record, field or
parameter outside ``io`` and ``cli`` carries a cyclic unit.  Cyclic
frequencies (Hz and friends) appear only at those I/O boundaries: file
formats, CLI arguments, and printed reports.  :data:`GHZ` and :data:`MHZ`,
the rad/s in one GHz and one MHz, are the one conversion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

TWO_PI = 2.0 * math.pi
GHZ = 1e9 * TWO_PI  # rad/s per GHz
MHZ = 1e6 * TWO_PI  # rad/s per MHz


class DomainError(ValueError):
    """Input lies outside the mathematical or physical domain of an operation."""


class FormatError(ValueError):
    """Malformed input file or record."""


class FitError(RuntimeError):
    """Nonlinear fit could not proceed (too few data points, or a model not
    finite at the initial point)."""


# ---------------------------------------------------------------------------
# physical constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values plus the few material constants the models need.

    A config file overrides the fields a command's result reads (``cli``
    applies it with ``dataclasses.replace``), but there is exactly one
    definition site: nothing else in the package redefines a constant.

    Units: e [C], m_e [kg], h [J s], eps0 [F/m], mu_B [J/T], rho_he
    [kg/m^3] (liquid helium density), sigma_he [N/m] (helium surface
    tension), g_earth [m/s^2].
    """

    e: float = 1.602176634e-19
    m_e: float = 9.1093837015e-31
    h: float = 6.62607015e-34
    eps0: float = 8.8541878128e-12
    mu_b: float = 9.2740100783e-24
    rho_he: float = 145.0
    sigma_he: float = 3.78e-4
    g_earth: float = 9.81

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"constant {f.name} must be finite and positive, got {value!r}")

    @property
    def hbar(self) -> float:
        """Reduced Planck constant h/2pi [J s]."""
        return self.h / TWO_PI

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
) -> tuple[float, float, float]:
    """Return (omega_r [rad/s], impedance, v_zpf) for a resonator.

    v_zpf = sqrt(2 hbar omega_r / C) is the zero-point voltage amplitude of
    the mode across the coupling capacitance [V].
    """
    omega_r = params.omega_r
    v_zpf = math.sqrt(2.0 * constants.hbar * omega_r / params.c_r)
    return omega_r, params.impedance, v_zpf


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def default_resonator() -> ResonatorParams:
    """Device-default resonator: 85 nH, 5.8 fF, symmetric 23 MHz total linewidth."""
    return ResonatorParams(l_r=85e-9, c_r=5.8e-15, kappa_1=TWO_PI * 11.5e6,
                           kappa_2=TWO_PI * 11.5e6)


# Most opening brackets in a document orjson parses: orjson recurses on the
# C stack without a limit, and 150 000 levels overflowed an 8 MB stack.
MAX_ORJSON_BRACKETS = 10_000


def _parse_json(raw: bytes):
    """orjson's value of the file bytes raw when they hold at most
    MAX_ORJSON_BRACKETS "[" and "{", the most they can nest, and orjson
    takes them; otherwise the stdlib parser's value of the text a text-mode
    read gives (UTF-8, universal newlines).  numpy counts the brackets in
    about an eighth of orjson's parse time."""
    codes = np.frombuffer(raw, np.uint8)
    brackets = np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{"))
    if brackets <= MAX_ORJSON_BRACKETS:
        import orjson  # late import: not every command reads JSON

        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass  # the stdlib parser keeps its value or its message
    return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def read_json_object(path: str, what: str) -> dict:
    """Parse the UTF-8 JSON file at ``path``, whose top level must be an
    object; FormatError naming ``what`` (say "config") otherwise.

    orjson parses a file of at most MAX_ORJSON_BRACKETS opening brackets;
    a larger one, and whatever orjson refuses, goes to the stdlib parser, so
    NaN and Infinity tokens, numbers beyond float range, a BOM and every
    syntax error keep json's value or message, and nesting deeper than the
    interpreter's recursion limit is a FormatError.  Two inputs read
    differently from ``json.load``: an integer literal outside
    [-2**63, 2**64) becomes the nearest float, not an int, and nesting past
    the recursion limit within MAX_ORJSON_BRACKETS brackets parses instead
    of raising RecursionError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = _parse_json(raw)
    except UnicodeDecodeError:
        raise FormatError(f"{what} {path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} {path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise FormatError(f"{what} {path}: JSON nested deeper than the parser's "
                          f"recursion limit") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} {path}: top level must be an object")
    return obj


def is_finite_number(value) -> bool:
    """True for a JSON number of finite float value: an int or a float, not
    a bool, and not an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
