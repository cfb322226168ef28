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
spline exactly; QuarticField is a quartic polynomial surrogate with
closed-form derivatives, useful for oracles and solver cross-checks.
``sample_grid``, ``edge_ring`` and ``scan_minimum`` are the grid scans the
level and cluster solvers share.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .core import CONSTANTS, DomainError, FormatError, PhysicalConstants

# Loader tolerance on the lever-arm range: maps are physical fractions in
# [0, 1] but FEM exports ring slightly outside, so accept [-0.01, 1.01].
ALPHA_TOL = 0.01


def _require_axis(values, name: str) -> np.ndarray:
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise FormatError(f"{name} must be a 1-D array with at least 2 points")
    if not np.all(np.diff(axis) > 0):
        raise FormatError(f"{name} must be strictly increasing")
    return axis


@dataclass(frozen=True, eq=False)
class CouplingMapSet:
    """Per-electrode lever-arm grids alpha_i(x, y) on a shared rectangular grid.

    Grids are row-major [ny, nx]: first index follows y_axis, second x_axis.
    Axes are in meters.  ``resonator_gradient`` optionally carries the
    differential lever-arm derivative map used for electron-photon coupling.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    grids: dict
    metadata: dict = field(default_factory=dict)
    resonator_gradient: "CouplingGradientMap | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_axis", _require_axis(self.x_axis, "x_axis"))
        object.__setattr__(self, "y_axis", _require_axis(self.y_axis, "y_axis"))
        if not self.grids:
            raise FormatError("coupling map set has no electrodes")
        shape = (self.y_axis.size, self.x_axis.size)
        clean = {}
        for name, grid in self.grids.items():
            arr = np.asarray(grid, dtype=float)
            if arr.shape != shape:
                raise FormatError(
                    f"electrode {name!r}: grid shape {arr.shape} does not match axes {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"electrode {name!r}: non-finite map values")
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

    @property
    def domain(self) -> tuple:
        """(x0, x1, y0, y1) in meters."""
        return (self.x_axis[0], self.x_axis[-1], self.y_axis[0], self.y_axis[-1])


@dataclass(frozen=True, eq=False)
class CouplingGradientMap:
    """Differential resonator lever-arm derivative d(alpha-)/dy on a grid [1/m]."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    grid: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_axis", _require_axis(self.x_axis, "x_axis"))
        object.__setattr__(self, "y_axis", _require_axis(self.y_axis, "y_axis"))
        arr = np.asarray(self.grid, dtype=float)
        if arr.shape != (self.y_axis.size, self.x_axis.size):
            raise FormatError("gradient map shape does not match axes")
        if not np.all(np.isfinite(arr)):
            raise FormatError("gradient map has non-finite values")
        object.__setattr__(self, "grid", arr)

    def value_at(self, x, y):
        """Interpolated derivative [1/m]; DomainError outside the grid."""
        return _bilinear(self.x_axis, self.y_axis, self.grid, x, y)

    def coupling_length(self, x, y):
        """ell = 1/|d alpha-/dy| [m]; DomainError where the derivative vanishes."""
        g = self.value_at(x, y)
        if np.any(np.asarray(g) == 0.0):
            raise DomainError("coupling length undefined where the lever-arm derivative is zero")
        return 1.0 / np.abs(g)


def uniform_gradient_map(domain: tuple, value: float, n: int = 2) -> CouplingGradientMap:
    """Constant d(alpha-)/dy map over a rectangular domain; handy for surrogates."""
    x0, x1, y0, y1 = domain
    x = np.linspace(x0, x1, n)
    y = np.linspace(y0, y1, n)
    return CouplingGradientMap(x, y, np.full((n, n), float(value)))


def load_coupling_maps(path: str) -> CouplingMapSet:
    """Load a coupling-map JSON file.

    Expected keys: x_axis_um, y_axis_um (strictly increasing, micrometers),
    electrodes (name -> [ny][nx] lever arms), optional
    resonator_diff_grad_per_um ([ny][nx], 1/um) and metadata.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"coupling maps {path}: invalid JSON ({exc})") from None
    for key in ("x_axis_um", "y_axis_um", "electrodes"):
        if key not in raw:
            raise FormatError(f"coupling maps {path}: missing key {key!r}")
    if not isinstance(raw["electrodes"], dict) or not raw["electrodes"]:
        raise FormatError(f"coupling maps {path}: 'electrodes' must be a non-empty object")
    x_axis = np.asarray(raw["x_axis_um"], dtype=float) * 1e-6
    y_axis = np.asarray(raw["y_axis_um"], dtype=float) * 1e-6
    gradient = None
    if raw.get("resonator_diff_grad_per_um") is not None:
        grad_grid = np.asarray(raw["resonator_diff_grad_per_um"], dtype=float) * 1e6
        gradient = CouplingGradientMap(x_axis, y_axis, grad_grid)
    return CouplingMapSet(
        x_axis=x_axis,
        y_axis=y_axis,
        grids=raw["electrodes"],
        metadata=dict(raw.get("metadata", {})),
        resonator_gradient=gradient,
    )


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def _require_inside(region, x, y) -> None:
    x0, x1, y0, y1 = region
    if np.any(x < x0) or np.any(x > x1) or np.any(y < y0) or np.any(y > y1):
        raise DomainError("query point outside the map domain")


def _bilinear(x_axis, y_axis, grid, xq, yq):
    xq_arr = np.asarray(xq, dtype=float)
    yq_arr = np.asarray(yq, dtype=float)
    scalar = xq_arr.ndim == 0 and yq_arr.ndim == 0
    xq_arr, yq_arr = np.broadcast_arrays(np.atleast_1d(xq_arr), np.atleast_1d(yq_arr))
    _require_inside((x_axis[0], x_axis[-1], y_axis[0], y_axis[-1]), xq_arr, yq_arr)
    ix = np.clip(np.searchsorted(x_axis, xq_arr, side="right") - 1, 0, x_axis.size - 2)
    iy = np.clip(np.searchsorted(y_axis, yq_arr, side="right") - 1, 0, y_axis.size - 2)
    tx = (xq_arr - x_axis[ix]) / (x_axis[ix + 1] - x_axis[ix])
    ty = (yq_arr - y_axis[iy]) / (y_axis[iy + 1] - y_axis[iy])
    v00 = grid[iy, ix]
    v01 = grid[iy, ix + 1]
    v10 = grid[iy + 1, ix]
    v11 = grid[iy + 1, ix + 1]
    out = (
        v00 * (1 - tx) * (1 - ty)
        + v01 * tx * (1 - ty)
        + v10 * (1 - tx) * ty
        + v11 * tx * ty
    )
    # out already has the broadcast shape of the queries
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# potential fields
# ---------------------------------------------------------------------------


def _sym2(hxx, hxy, hyy) -> np.ndarray:
    """Symmetric 2 x 2 blocks [[hxx, hxy], [hxy, hyy]], shape (..., 2, 2)."""
    return np.stack([np.stack([hxx, hxy], axis=-1), np.stack([hxy, hyy], axis=-1)], axis=-2)


@dataclass(frozen=True, eq=False, kw_only=True)
class PotentialField(ABC):
    """Electrostatic potential on the helium surface, phi = base + E_x x + E_y y.

    A subclass supplies the electrode part ``_base`` [V] and the electron
    energy derivatives ``energy_gradient`` [J/m] and ``energy_hessian``
    [J/m^2] over points of shape (..., 2), the ``domain`` where the field is
    defined (None when unbounded), and the ``scan_region`` in which solvers
    look for the trap minimum.  ``evaluate`` is defined here and only here,
    so every field evaluation goes through one method.
    """

    e_x: float = 0.0
    e_y: float = 0.0
    constants: PhysicalConstants = CONSTANTS

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
    def energy_gradient(self, points) -> np.ndarray:
        """dU/dr [J/m] at points of shape (..., 2); same shape out."""

    @abstractmethod
    def energy_hessian(self, points) -> np.ndarray:
        """Second derivatives of U [J/m^2] at points of shape (..., 2); shape
        (..., 2, 2) out, each 2 x 2 block symmetric."""

    @property
    @abstractmethod
    def domain(self) -> tuple | None:
        """(x0, x1, y0, y1) where the field is defined, None when unbounded."""

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
    DomainError.
    """

    maps: CouplingMapSet
    voltages: dict
    _spline: RectBivariateSpline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.zeros((self.maps.y_axis.size, self.maps.x_axis.size))
        for name, volt in self.voltages.items():
            w += float(volt) * self.maps.grids[name]
        # with fewer than four nodes on an axis the spline drops to that degree
        kx, ky = min(3, self.maps.x_axis.size - 1), min(3, self.maps.y_axis.size - 1)
        spline = RectBivariateSpline(self.maps.x_axis, self.maps.y_axis, w.T, kx=kx, ky=ky)
        object.__setattr__(self, "_spline", spline)

    @property
    def domain(self) -> tuple:
        return self.maps.domain

    @property
    def scan_region(self) -> tuple:
        """The domain less one cell per side."""
        x0, x1, y0, y1 = self.maps.domain
        dx = float(np.max(np.diff(self.maps.x_axis)))
        dy = float(np.max(np.diff(self.maps.y_axis)))
        return (x0 + dx, x1 - dx, y0 + dy, y1 - dy)

    def _interp(self, x, y, region, dx=0, dy=0):
        """Spline value or partial derivative of phi at broadcast x, y in region."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        _require_inside(region, x, y)
        out = self._spline.ev(x.ravel(), y.ravel(), dx=dx, dy=dy).reshape(x.shape)
        return float(out) if out.ndim == 0 else out

    def _base(self, x, y):
        return self._interp(x, y, self.maps.domain)

    def energy_gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        region = self.scan_region
        e = self.constants.e
        gx = -e * (self._interp(x, y, region, dx=1) + self.e_x)
        gy = -e * (self._interp(x, y, region, dy=1) + self.e_y)
        return np.stack([gx, gy], axis=-1)

    def energy_hessian(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        region = self.scan_region
        fxx = self._interp(x, y, region, dx=2)
        fxy = self._interp(x, y, region, dx=1, dy=1)
        fyy = self._interp(x, y, region, dy=2)
        return -self.constants.e * _sym2(fxx, fxy, fyy)


@dataclass(frozen=True, eq=False)
class QuarticField(PotentialField):
    """Quartic polynomial surrogate with closed-form derivatives:

        U(x, y) = a1x x^2 + a2x x^4 + a1y y^2 + a2y y^4 - e (E_x x + E_y y)

    with coefficients in J/m^2 and J/m^4; phi = -U/e.  Unbounded; the trap
    minimum is searched within +-2 um of the origin.
    """

    a1x: float = 0.0
    a1y: float = 0.0
    a2x: float = 0.0
    a2y: float = 0.0

    domain = None
    scan_region = (-2e-6, 2e-6, -2e-6, 2e-6)

    def _base(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -(
            self.a1x * x**2 + self.a2x * x**4 + self.a1y * y**2 + self.a2y * y**4
        ) / self.constants.e

    def energy_gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        e = self.constants.e
        gx = 2 * self.a1x * x + 4 * self.a2x * x**3 - e * self.e_x
        gy = 2 * self.a1y * y + 4 * self.a2y * y**3 - e * self.e_y
        return np.stack([gx, gy], axis=-1)

    def energy_hessian(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        hxx = 2 * self.a1x + 12 * self.a2x * x**2
        hyy = 2 * self.a1y + 12 * self.a2y * y**2
        return _sym2(hxx, np.zeros_like(hxx), hyy)


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
    unknown = sorted(set(voltages) - set(maps.electrodes))
    if unknown:
        raise DomainError(f"voltages for unknown electrodes: {unknown}")
    volts = {name: float(voltages.get(name, 0.0)) for name in maps.electrodes}
    return GriddedField(maps=maps, voltages=volts, e_x=e_x, e_y=e_y, constants=constants)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------


def sample_grid(field_: PotentialField, region: tuple, nx: int, ny: int | None = None):
    """U [J] on nx x ny nodes spanning region = (x0, x1, y0, y1), edges included.

    Returns (xs, ys, U) with U of shape (ny, nx); ny defaults to nx.
    """
    x0, x1, y0, y1 = region
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, nx if ny is None else ny)
    xx, yy = np.meshgrid(xs, ys)
    return xs, ys, np.asarray(field_.energy(xx, yy), dtype=float)


def edge_ring(shape: tuple) -> np.ndarray:
    """Boolean mask of the outermost rows and columns of a 2-D grid."""
    edge = np.zeros(shape, dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    return edge


def scan_minimum(field_: PotentialField, region: tuple, samples: int) -> np.ndarray:
    """(x, y) [m] of the lowest U on a samples x samples grid over region."""
    xs, ys, u = sample_grid(field_, region, samples)
    iy, ix = np.unravel_index(int(np.argmin(u)), u.shape)
    return np.array([xs[ix], ys[iy]])


# ---------------------------------------------------------------------------
# trap depth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapDepth:
    """Result of a trap-depth scan: depth in J, the same in cyclic GHz (E/h),
    the interior minimum location, and a flag when no confining minimum exists."""

    depth_j: float
    depth_ghz: float
    minimum_xy: tuple
    no_trap: bool


def trap_depth(
    field_: PotentialField,
    region: tuple,
    samples: int = 201,
    constants: PhysicalConstants = CONSTANTS,
) -> TrapDepth:
    """Scan U over a rectangular region and report boundary-min minus interior-min.

    region = (x0, x1, y0, y1) in meters.  The depth is the lowest barrier an
    electron at the interior minimum must cross to reach the region boundary;
    if the interior never drops below the boundary the trap flag is raised and
    the depth is 0.
    """
    x0, x1, y0, y1 = region
    if not (x1 > x0 and y1 > y0):
        raise DomainError("trap-depth region must have positive extent")
    xs, ys, u = sample_grid(field_, region, samples)
    edge = edge_ring(u.shape)
    boundary_min = float(u[edge].min())
    interior = u[~edge]
    interior_min = float(interior.min())
    iy, ix = np.unravel_index(np.argmin(np.where(edge, np.inf, u)), u.shape)
    depth = boundary_min - interior_min
    if depth <= 0:
        return TrapDepth(0.0, 0.0, (float(xs[ix]), float(ys[iy])), True)
    return TrapDepth(depth, depth / constants.h / 1e9, (float(xs[ix]), float(ys[iy])), False)
