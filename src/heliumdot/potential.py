"""Electrostatic trap potentials built from electrode coupling maps.

A coupling map gives the dimensionless lever arm alpha_i(x, y) of electrode i:
the fraction of that electrode's voltage appearing in the electrostatic
potential at a point on the helium surface.  The composed potential is

    phi(x, y) = sum_i alpha_i(x, y) * V_i + E_x * x + E_y * y   [V]

with optional uniform compensation fields E_x, E_y [V/m].  The trapped
electron's potential energy is U = -e * phi [J]; with E_y > 0 the energy
decreases toward positive y (the field pulls the electron that way).

Every field is a PotentialField: GriddedField (what ``compose`` returns)
interpolates tabulated maps with a bicubic spline and differentiates the
spline exactly (scipy.interpolate, imported when the first spline is fit);
QuarticField is a quartic polynomial surrogate with closed-form
derivatives, useful for oracles and solver cross-checks.  A field's one
derivative query, ``energy_derivatives``, returns the energy gradient and
Hessian together.  Values live on a map's ``domain``, derivatives on a
field's ``scan_region`` (the map less one cell); both are fixed at
construction.  A map set needs MIN_NODES = 4 nodes per axis, the fewest a
bicubic spline takes.  A GriddedField derives the splines of all five
derivative orders when it is built, so a derivative query checks its region
once and makes five FITPACK value calls.  ``sample_grid``, the grid scan
the solvers share, queries a row of x against a column of y, which a
GriddedField evaluates in one FITPACK grid call.  Every field parameter
must be finite.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .core import CONSTANTS, DomainError, FormatError, PhysicalConstants, read_json_object

if TYPE_CHECKING:  # the spline type, for annotations only
    from scipy.interpolate import RectBivariateSpline

# Loader tolerance on the lever-arm range: maps are physical fractions in
# [0, 1] but FEM exports ring slightly outside, so accept [-0.01, 1.01].
ALPHA_TOL = 0.01
# Fewest nodes per axis of a map set: a bicubic spline needs four.
MIN_NODES = 4


def _float_array(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise FormatError(f"{name} must be a rectangular array of numbers") from None


def _require_axis(values, name: str) -> np.ndarray:
    axis = _float_array(values, name)
    if axis.ndim != 1 or axis.size < 2:
        raise FormatError(f"{name} must be a 1-D array with at least 2 points")
    if not np.all(np.diff(axis) > 0):
        raise FormatError(f"{name} must be strictly increasing")
    return axis


@dataclass(frozen=True, eq=False)
class _Grid:
    """Strictly increasing axes [m] of row-major [ny, nx] grids, y first."""

    x_axis: np.ndarray
    y_axis: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_axis", _require_axis(self.x_axis, "x_axis"))
        object.__setattr__(self, "y_axis", _require_axis(self.y_axis, "y_axis"))

    @cached_property
    def domain(self) -> tuple:
        """(x0, x1, y0, y1) in meters."""
        return (self.x_axis[0], self.x_axis[-1], self.y_axis[0], self.y_axis[-1])

    def _require_grid(self, values, name: str) -> np.ndarray:
        """values as a float array of the axes' shape with finite entries."""
        arr = _float_array(values, name)
        shape = (self.y_axis.size, self.x_axis.size)
        if arr.shape != shape:
            raise FormatError(f"{name}: grid shape {arr.shape} does not match axes {shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{name}: non-finite map values")
        return arr


@dataclass(frozen=True, eq=False)
class CouplingMapSet(_Grid):
    """Per-electrode lever-arm grids alpha_i(x, y) on a shared rectangular grid.

    ``resonator_gradient`` optionally carries the differential lever-arm
    derivative map used for electron-photon coupling.
    """

    grids: dict
    resonator_gradient: "CouplingGradientMap | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        shape = (self.y_axis.size, self.x_axis.size)
        if min(shape) < MIN_NODES:
            raise FormatError(f"coupling maps need at least {MIN_NODES} nodes per axis for "
                              f"a bicubic spline, got a {shape[1]} x {shape[0]} grid")
        if not self.grids:
            raise FormatError("coupling map set has no electrodes")
        clean = {}
        for name, grid in self.grids.items():
            arr = self._require_grid(grid, f"electrode {name!r}")
            if arr.min() < -ALPHA_TOL or arr.max() > 1.0 + ALPHA_TOL:
                raise FormatError(
                    f"electrode {name!r}: lever arm outside [{-ALPHA_TOL}, {1 + ALPHA_TOL}] "
                    f"(found range [{arr.min():.4g}, {arr.max():.4g}])"
                )
            clean[str(name)] = arr
        object.__setattr__(self, "grids", clean)

    @property
    def electrodes(self) -> tuple:
        return tuple(self.grids)

    def check_electrodes(self, names) -> None:
        """DomainError listing every one of ``names`` that is no electrode here."""
        unknown = sorted(set(names) - set(self.grids))
        if unknown:
            raise DomainError(f"unknown electrodes {unknown}; the maps define "
                              f"{sorted(self.grids)}")


@dataclass(frozen=True, eq=False)
class CouplingGradientMap(_Grid):
    """Differential resonator lever-arm derivative d(alpha-)/dy on a grid [1/m],
    interpolated bilinearly (a degree-1 spline through the nodes)."""

    grid: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "grid", self._require_grid(self.grid, "gradient map"))

    @cached_property
    def _spline(self) -> RectBivariateSpline:
        """Fit on the first ``value_at``: ``sweep freq`` loads the map but never reads it."""
        from scipy.interpolate import RectBivariateSpline  # late import: map commands only

        return RectBivariateSpline(self.x_axis, self.y_axis, self.grid.T, kx=1, ky=1)

    def value_at(self, x, y):
        """Interpolated derivative [1/m]; DomainError outside the grid."""
        return _spline_eval((self._spline,), x, y, self.domain)[0]


def uniform_gradient_map(domain: tuple, value: float) -> CouplingGradientMap:
    """Constant d(alpha-)/dy map over a rectangular domain; handy for surrogates."""
    x0, x1, y0, y1 = domain
    return CouplingGradientMap(np.linspace(x0, x1, 2), np.linspace(y0, y1, 2),
                               np.full((2, 2), float(value)))


def load_coupling_maps(path: str) -> CouplingMapSet:
    """Load a coupling-map JSON file.

    Expected keys: x_axis_um, y_axis_um (strictly increasing, micrometers,
    at least MIN_NODES = 4 each), electrodes (name -> [ny][nx] lever arms)
    and optional resonator_diff_grad_per_um ([ny][nx], 1/um).
    """
    raw = read_json_object(path, "coupling maps")
    for key in ("x_axis_um", "y_axis_um", "electrodes"):
        if key not in raw:
            raise FormatError(f"coupling maps {path}: missing key {key!r}")
    if not isinstance(raw["electrodes"], dict) or not raw["electrodes"]:
        raise FormatError(f"coupling maps {path}: 'electrodes' must be a non-empty object")
    x_axis = _float_array(raw["x_axis_um"], "x_axis_um") * 1e-6
    y_axis = _float_array(raw["y_axis_um"], "y_axis_um") * 1e-6
    gradient = None
    if raw.get("resonator_diff_grad_per_um") is not None:
        grad_grid = _float_array(raw["resonator_diff_grad_per_um"], "gradient map") * 1e6
        gradient = CouplingGradientMap(x_axis, y_axis, grad_grid)
    return CouplingMapSet(
        x_axis=x_axis,
        y_axis=y_axis,
        grids=raw["electrodes"],
        resonator_gradient=gradient,
    )


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def _require_inside(region, x, y) -> None:
    """Raise DomainError if any x, y lies outside region; NaN passes, since
    every comparison with it is false, but not the points beside it."""
    x0, x1, y0, y1 = region
    if ((x < x0) | (x > x1) | (y < y0) | (y > y1)).any():
        raise DomainError("query point outside the map domain")


def _increasing(axis) -> bool:
    return axis.size < 2 or bool(np.all(np.diff(axis) >= 0))


def _spline_eval(splines, x, y, region) -> list:
    """The value of each of ``splines`` at broadcast x, y inside region,
    checked once; floats for scalar queries.  A row x of shape (1, nx)
    against a column y of shape (ny, 1), both sorted, takes one FITPACK grid
    call per spline, any other query one point call; both give the same
    bits."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x.ndim == y.ndim == 2 and x.shape[0] == 1 and y.shape[1] == 1
            and _increasing(x[0]) and _increasing(y[:, 0])):
        _require_inside(region, x, y)
        # FITPACK's grid is (nx, ny); transposed and in C order, as a point query's
        return [np.ascontiguousarray(spline(x[0], y[:, 0]).T) for spline in splines]
    x, y = np.broadcast_arrays(x, y)
    _require_inside(region, x, y)
    xs, ys = x.ravel(), y.ravel()
    outs = [spline(xs, ys, grid=False).reshape(x.shape) for spline in splines]
    return [float(out) if out.ndim == 0 else out for out in outs]


def _require_finite(params: Mapping[str, float]) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"field parameter {name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# potential fields
# ---------------------------------------------------------------------------


# spline derivative orders (dx, dy): a gradient's, then a Hessian's
_ORDERS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _sym2(hxx, hxy, hyy) -> np.ndarray:
    """Symmetric 2 x 2 blocks [[hxx, hxy], [hxy, hyy]], shape (..., 2, 2), of
    entries of one shape."""
    out = np.empty((*np.shape(hxx), 2, 2))
    out[..., 0, 0] = hxx
    out[..., 0, 1] = out[..., 1, 0] = hxy
    out[..., 1, 1] = hyy
    return out


@dataclass(frozen=True, eq=False, kw_only=True)
class PotentialField(ABC):
    """Electrostatic potential on the helium surface, phi = base + E_x x + E_y y.

    A subclass supplies the electrode part ``_base`` [V], the electron
    energy derivatives ``energy_derivatives``, and the ``scan_region`` in
    which solvers look for the trap minimum.  ``evaluate`` is defined here
    and only here, so every field evaluation goes through one method.
    """

    e_x: float = 0.0
    e_y: float = 0.0
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        _require_finite({"e_x": self.e_x, "e_y": self.e_y})

    def evaluate(self, x, y):
        """Total potential phi(x, y) [V], vectorized over broadcastable x, y."""
        return (
            self._base(x, y)
            + self.e_x * np.asarray(x, dtype=float)
            + self.e_y * np.asarray(y, dtype=float)
        )

    def energy(self, x, y):
        """Electron potential energy U = -e phi [J], vectorized."""
        return -self.constants.e * self.evaluate(x, y)

    @abstractmethod
    def _base(self, x, y):
        """Electrode potential [V] without the uniform field terms."""

    @abstractmethod
    def energy_derivatives(self, points) -> tuple:
        """(gradient, Hessian) of U at points of shape (..., 2): dU/dr [J/m]
        of the same shape, and the second derivatives [J/m^2] of shape
        (..., 2, 2), each 2 x 2 block symmetric."""

    @property
    @abstractmethod
    def scan_region(self) -> tuple:
        """(x0, x1, y0, y1) searched for the trap minimum."""


@dataclass(frozen=True, eq=False)
class GriddedField(PotentialField):
    """phi interpolates sum_i V_i alpha_i over the coupling maps with a bicubic
    interpolating spline, and its derivatives are the spline's own, so energy,
    gradient and Hessian come from one twice-differentiable function.

    Derivatives are taken only inside the scan region, away from the
    spline's end conditions; within one cell of the map edge they raise
    DomainError.  The spline of each derivative order is derived from the
    fitted one (``partial_derivative``) when the field is built, so a query
    evaluates values only; this gives the bits of ``ev(dx=, dy=)``, which
    rebuilds the derivative coefficients on every call.
    """

    maps: CouplingMapSet
    voltages: dict
    _spline: RectBivariateSpline = field(init=False, repr=False)
    _derived: tuple = field(init=False, repr=False)  # one spline per _ORDERS entry

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite(self.voltages)
        w = np.zeros((self.maps.y_axis.size, self.maps.x_axis.size))
        for name, volt in self.voltages.items():
            w += float(volt) * self.maps.grids[name]
        from scipy.interpolate import RectBivariateSpline  # late import: map commands only

        spline = RectBivariateSpline(self.maps.x_axis, self.maps.y_axis, w.T)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_derived",
                           tuple(spline.partial_derivative(dx, dy) for dx, dy in _ORDERS))

    @cached_property
    def scan_region(self) -> tuple:
        """The map domain less one cell per side."""
        x0, x1, y0, y1 = self.maps.domain
        dx = float(np.max(np.diff(self.maps.x_axis)))
        dy = float(np.max(np.diff(self.maps.y_axis)))
        return (x0 + dx, x1 - dx, y0 + dy, y1 - dy)

    def _base(self, x, y):
        return _spline_eval((self._spline,), x, y, self.maps.domain)[0]

    def energy_derivatives(self, points) -> tuple:
        """Gradient and Hessian from one region check and one spline call."""
        pts = np.asarray(points, dtype=float)
        fx, fy, fxx, fxy, fyy = _spline_eval(self._derived, pts[..., 0], pts[..., 1],
                                             self.scan_region)
        e = self.constants.e
        gradient = np.stack([-e * (fx + self.e_x), -e * (fy + self.e_y)], axis=-1)
        return gradient, -e * _sym2(fxx, fxy, fyy)


@dataclass(frozen=True, eq=False)
class QuarticField(PotentialField):
    """Quartic polynomial surrogate with closed-form derivatives:

        U(x, y) = a1x x^2 + a2x x^4 + a1y y^2 + a2y y^4 - e (E_x x + E_y y)

    with coefficients in J/m^2 and J/m^4; phi = -U/e.  Unbounded; the trap
    minimum is searched, and cluster descents stay, within +-2 um of the
    origin.
    """

    a1x: float = 0.0
    a1y: float = 0.0
    a2x: float = 0.0
    a2y: float = 0.0

    scan_region = (-2e-6, 2e-6, -2e-6, 2e-6)

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite({"a1x": self.a1x, "a1y": self.a1y, "a2x": self.a2x, "a2y": self.a2y})

    def _base(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -(
            self.a1x * x**2 + self.a2x * x**4 + self.a1y * y**2 + self.a2y * y**4
        ) / self.constants.e

    def energy_derivatives(self, points) -> tuple:
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        e = self.constants.e
        gx = 2 * self.a1x * x + 4 * self.a2x * x**3 - e * self.e_x
        gy = 2 * self.a1y * y + 4 * self.a2y * y**3 - e * self.e_y
        hxx = 2 * self.a1x + 12 * self.a2x * x**2
        hyy = 2 * self.a1y + 12 * self.a2y * y**2
        return np.stack([gx, gy], axis=-1), _sym2(hxx, np.zeros_like(hxx), hyy)


def compose(
    maps: CouplingMapSet,
    voltages: Mapping[str, float],
    e_x: float = 0.0,
    e_y: float = 0.0,
    constants: PhysicalConstants = CONSTANTS,
) -> GriddedField:
    """Weight electrode maps by voltages into a GriddedField.

    Unknown electrode names raise DomainError listing the offenders;
    electrodes missing from ``voltages`` default to 0 V.
    """
    maps.check_electrodes(voltages)
    volts = {name: float(voltages.get(name, 0.0)) for name in maps.electrodes}
    return GriddedField(maps=maps, voltages=volts, e_x=e_x, e_y=e_y, constants=constants)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------


def sample_grid(field_: PotentialField, region: tuple, nx: int, ny: int | None = None):
    """U [J] on nx x ny nodes spanning region = (x0, x1, y0, y1), edges included.

    Returns (xs, ys, U) with U of shape (ny, nx); ny defaults to nx.  The
    field is queried with the row xs against the column ys, which gives the
    bits of a meshgrid query.
    """
    x0, x1, y0, y1 = region
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, nx if ny is None else ny)
    return xs, ys, np.asarray(field_.energy(xs[None, :], ys[:, None]), dtype=float)

