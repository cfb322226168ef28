"""Electrostatic trap potentials built from electrode coupling maps.

A coupling map gives the dimensionless lever arm alpha_i(x, y) of electrode i:
the fraction of that electrode's voltage appearing in the electrostatic
potential at a point on the helium surface.  The composed potential is

    phi(x, y) = sum_i alpha_i(x, y) * V_i + E_x * x + E_y * y   [V]

with optional uniform compensation fields E_x, E_y [V/m].  The trapped
electron's potential energy is U = -e * phi [J]; with E_y > 0 the energy
decreases toward positive y (the field pulls the electron that way).

Two field kinds share one interface: "gridded" fields interpolate tabulated
maps bilinearly and differentiate by central differences with the local grid
spacing as the step; "analytic" fields are quartic polynomial surrogates with
closed-form derivatives, useful for oracles and solver cross-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

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
# bilinear interpolation
# ---------------------------------------------------------------------------


def _bilinear(x_axis, y_axis, grid, xq, yq):
    xq_arr = np.asarray(xq, dtype=float)
    yq_arr = np.asarray(yq, dtype=float)
    scalar = xq_arr.ndim == 0 and yq_arr.ndim == 0
    xq_arr, yq_arr = np.broadcast_arrays(np.atleast_1d(xq_arr), np.atleast_1d(yq_arr))
    if (
        np.any(xq_arr < x_axis[0]) or np.any(xq_arr > x_axis[-1])
        or np.any(yq_arr < y_axis[0]) or np.any(yq_arr > y_axis[-1])
    ):
        raise DomainError("query point outside the map domain")
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


def _local_steps(x_axis, y_axis, x, y):
    ix = int(np.clip(np.searchsorted(x_axis, x, side="right") - 1, 0, x_axis.size - 2))
    iy = int(np.clip(np.searchsorted(y_axis, y, side="right") - 1, 0, y_axis.size - 2))
    return x_axis[ix + 1] - x_axis[ix], y_axis[iy + 1] - y_axis[iy]


# ---------------------------------------------------------------------------
# potential fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Composed electrostatic potential on the helium surface.

    kind "gridded": phi interpolates sum_i V_i alpha_i plus the uniform
    compensation field terms.  kind "analytic": the electron energy is the
    quartic polynomial

        U(x, y) = a1x x^2 + a2x x^4 + a1y y^2 + a2y y^4 - e (E_x x + E_y y)

    and phi = -U/e, so both kinds satisfy U = -e phi.
    evaluate/gradient/hessian work in volts; energy* variants in joules.
    """

    kind: str
    e_x: float = 0.0
    e_y: float = 0.0
    maps: CouplingMapSet | None = None
    voltages: dict | None = None
    a1x: float = 0.0
    a1y: float = 0.0
    a2x: float = 0.0
    a2y: float = 0.0
    constants: PhysicalConstants = CONSTANTS
    _weighted: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gridded", "analytic"):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.kind == "gridded":
            if self.maps is None or self.voltages is None:
                raise DomainError("gridded field needs maps and voltages")
            if self._weighted is None:
                w = np.zeros((self.maps.y_axis.size, self.maps.x_axis.size))
                for name, volt in self.voltages.items():
                    w += float(volt) * self.maps.grids[name]
                object.__setattr__(self, "_weighted", w)

    @property
    def domain(self) -> tuple | None:
        """(x0, x1, y0, y1) for gridded fields, None (unbounded) for analytic."""
        return self.maps.domain if self.kind == "gridded" else None

    # -- potential in volts -------------------------------------------------

    def evaluate(self, x, y):
        """Total potential phi(x, y) [V], vectorized over broadcastable x, y."""
        if self.kind == "gridded":
            base = _bilinear(self.maps.x_axis, self.maps.y_axis, self._weighted, x, y)
            return base + self.e_x * np.asarray(x, dtype=float) + self.e_y * np.asarray(y, dtype=float)
        return -self._poly_energy(x, y) / self.constants.e + (
            self.e_x * np.asarray(x, dtype=float) + self.e_y * np.asarray(y, dtype=float)
        )

    def gradient(self, point) -> np.ndarray:
        """(d phi/dx, d phi/dy) [V/m] at a single point."""
        x, y = float(point[0]), float(point[1])
        if self.kind == "analytic":
            gx = -self._poly_dx(x) / self.constants.e + self.e_x
            gy = -self._poly_dy(y) / self.constants.e + self.e_y
            return np.array([gx, gy])
        hx, hy = _local_steps(self.maps.x_axis, self.maps.y_axis, x, y)
        self._require_margin(x, y, hx, hy)
        gx = (self.evaluate(x + hx, y) - self.evaluate(x - hx, y)) / (2 * hx)
        gy = (self.evaluate(x, y + hy) - self.evaluate(x, y - hy)) / (2 * hy)
        return np.array([gx, gy])

    def hessian(self, point) -> np.ndarray:
        """2x2 symmetric matrix of second derivatives of phi [V/m^2]."""
        x, y = float(point[0]), float(point[1])
        if self.kind == "analytic":
            hxx = -self._poly_dxx(x) / self.constants.e
            hyy = -self._poly_dyy(y) / self.constants.e
            return np.array([[hxx, 0.0], [0.0, hyy]])
        hx, hy = _local_steps(self.maps.x_axis, self.maps.y_axis, x, y)
        self._require_margin(x, y, hx, hy)
        f0 = self.evaluate(x, y)
        fxx = (self.evaluate(x + hx, y) - 2 * f0 + self.evaluate(x - hx, y)) / hx**2
        fyy = (self.evaluate(x, y + hy) - 2 * f0 + self.evaluate(x, y - hy)) / hy**2
        fxy = (
            self.evaluate(x + hx, y + hy)
            - self.evaluate(x + hx, y - hy)
            - self.evaluate(x - hx, y + hy)
            + self.evaluate(x - hx, y - hy)
        ) / (4 * hx * hy)
        return np.array([[fxx, fxy], [fxy, fyy]])

    # -- electron energy in joules ------------------------------------------

    def energy(self, x, y):
        """Electron potential energy U = -e phi [J], vectorized."""
        return -self.constants.e * self.evaluate(x, y)

    def energy_gradient(self, point) -> np.ndarray:
        return -self.constants.e * self.gradient(point)

    def energy_hessian(self, point) -> np.ndarray:
        return -self.constants.e * self.hessian(point)

    # -- internals ----------------------------------------------------------

    def _require_margin(self, x, y, hx, hy) -> None:
        x0, x1, y0, y1 = self.maps.domain
        if x - hx < x0 or x + hx > x1 or y - hy < y0 or y + hy > y1:
            raise DomainError(
                "derivative stencil leaves the map domain; stay one grid cell inside"
            )

    def _poly_energy(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            self.a1x * x**2
            + self.a2x * x**4
            + self.a1y * y**2
            + self.a2y * y**4
        )

    def _poly_dx(self, x):
        return 2 * self.a1x * x + 4 * self.a2x * x**3

    def _poly_dy(self, y):
        return 2 * self.a1y * y + 4 * self.a2y * y**3

    def _poly_dxx(self, x):
        return 2 * self.a1x + 12 * self.a2x * x**2

    def _poly_dyy(self, y):
        return 2 * self.a1y + 12 * self.a2y * y**2


def compose(
    maps: CouplingMapSet,
    voltages: Mapping[str, float],
    e_x: float = 0.0,
    e_y: float = 0.0,
) -> PotentialField:
    """Weight electrode maps by voltages into a gridded PotentialField.

    Unknown electrode names raise DomainError listing the offenders;
    electrodes missing from ``voltages`` default to 0 V.
    """
    unknown = sorted(set(voltages) - set(maps.electrodes))
    if unknown:
        raise DomainError(f"voltages for unknown electrodes: {unknown}")
    volts = {name: float(voltages.get(name, 0.0)) for name in maps.electrodes}
    return PotentialField(kind="gridded", maps=maps, voltages=volts, e_x=e_x, e_y=e_y)


def make_analytic(
    a1x: float = 0.0,
    a1y: float = 0.0,
    a2x: float = 0.0,
    a2y: float = 0.0,
    e_x: float = 0.0,
    e_y: float = 0.0,
    constants: PhysicalConstants = CONSTANTS,
) -> PotentialField:
    """Quartic polynomial surrogate field with energy coefficients in J/m^2, J/m^4."""
    return PotentialField(
        kind="analytic", a1x=a1x, a1y=a1y, a2x=a2x, a2y=a2y, e_x=e_x, e_y=e_y,
        constants=constants,
    )


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
    xs = np.linspace(x0, x1, samples)
    ys = np.linspace(y0, y1, samples)
    xx, yy = np.meshgrid(xs, ys)
    u = np.asarray(field_.energy(xx, yy), dtype=float)
    edge = np.zeros_like(u, dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    boundary_min = float(u[edge].min())
    interior = u[~edge]
    interior_min = float(interior.min())
    iy, ix = np.unravel_index(np.argmin(np.where(edge, np.inf, u)), u.shape)
    depth = boundary_min - interior_min
    if depth <= 0:
        return TrapDepth(0.0, 0.0, (float(xs[ix]), float(ys[iy])), True)
    return TrapDepth(depth, depth / constants.h / 1e9, (float(xs[ix]), float(ys[iy])), False)
