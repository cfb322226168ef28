"""Single-electron levels of a trap on a uniform grid.

H = -(hbar^2 / 2 m_e) laplacian + U(x, y) is sampled on a uniform window
grid with one of two kinetic matrices per axis: the dense sinc
discrete-variable representation (DVR; Colbert and Miller, J. Chem. Phys.
96, 1982, 1992), whose levels converge spectrally for a smooth U and which
``qsolve`` and ``sweep freq`` use on 23 x 23 nodes by default, at most
MAX_DENSE_NODES; or the sparse 3-point stencil with hard walls just outside
the window.  ``auto_window`` centers the window on the trap minimum
(``cluster.trap_minimum``) and sizes it from the curvature there.  One
``scipy.sparse.linalg.eigsh`` call finds the lowest levels by shift-invert
Lanczos (ARPACK) at sigma = min U, with scipy's own factorization of
H - sigma I, from a seeded or caller-given start vector, so reruns are
bit-identical; the transition frequencies and the motional anharmonicity
follow from them.  hbar and m_e are the solved field's own ``constants``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import DomainError, PhysicalConstants
from .cluster import trap_minimum
from .potential import PotentialField, sample_grid

# Half-width of an auto window, in zero-point lengths sqrt(hbar / (m_e omega)).
WINDOW_FACTOR = 8.0

# Largest n_x n_y of a dense (sinc) Hamiltonian: 8 * 2500^2 bytes = 50 MB.
MAX_DENSE_NODES = 2500


def _check_grid(nx: int, ny: int, kinetic: str) -> None:
    """A known kinetic, at least 3 nodes per axis, and at most MAX_DENSE_NODES
    nodes for sinc."""
    if nx < 3 or ny < 3:
        raise DomainError("need at least 3 nodes per axis")
    if kinetic not in ("fd2", "sinc"):
        raise DomainError(f"kinetic must be 'fd2' or 'sinc', got {kinetic!r}")
    if kinetic == "sinc" and nx * ny > MAX_DENSE_NODES:
        raise DomainError(f"a sinc grid holds at most {MAX_DENSE_NODES} nodes, "
                          f"got {nx} x {ny} = {nx * ny}")


def _sinc_kinetic(n: int, h: float) -> np.ndarray:
    """Sinc-DVR -d^2/dx^2 on n nodes of spacing h: pi^2/3 on the diagonal and
    2 (-1)^(i-j) / (i-j)^2 off it, over h^2."""
    k = np.arange(1, n)
    first = np.concatenate(([math.pi**2 / 3.0], np.where(k % 2, -2.0, 2.0) / (k * k)))
    i = np.arange(n)
    return first[np.abs(np.subtract.outer(i, i))] / h**2


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """Grid Hamiltonian on a window, sparse (fd2) or dense (sinc).

    x/y are the grid node coordinates [m] (uniform spacing), u the sampled
    potential energy [J] with shape (ny, nx), matrix the symmetric operator
    over row-major raveled nodes.  edge_minimum flags a window whose sampled
    minimum sits on the boundary ring (the trap is probably not inside),
    window_clipped one that reaches the field's scan region (an auto_window
    cut to it, whose levels may be unresolved), and constants are the field's.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    matrix: sp.spmatrix | np.ndarray
    edge_minimum: bool
    window_clipped: bool
    constants: PhysicalConstants

    @property
    def flags(self) -> list:
        """The names of the set flags, as ``qsolve`` and ``sweep freq`` report them."""
        return [name for name, on in (("edge_minimum", self.edge_minimum),
                                      ("window_clipped", self.window_clipped)) if on]


def build_hamiltonian(
    field_: PotentialField,
    window: tuple,
    nx: int = 151,
    ny: int = 151,
    kinetic: str = "fd2",
) -> DiscreteHamiltonian:
    """Assemble the discrete Hamiltonian over window = (x0, x1, y0, y1), with
    hbar and m_e from the field's ``constants``.

    ``kinetic`` is ``"fd2"`` (sparse 3-point stencil, zero on the ghost
    nodes outside the window) or ``"sinc"`` (dense sinc DVR, at most
    MAX_DENSE_NODES nodes, checked before anything is sampled).  The window
    must lie inside the field domain; a sampled minimum on its edge, or a
    window that reaches the scan region, is flagged, not fatal.
    """
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise DomainError("window must have positive extent")
    _check_grid(nx, ny, kinetic)
    x, y, u = sample_grid(field_, window, nx, ny)
    hx, hy = x[1] - x[0], y[1] - y[0]
    if not np.all(np.isfinite(u)):
        raise DomainError("potential is not finite over the window")

    edge = min(u[0].min(), u[-1].min(), u[:, 0].min(), u[:, -1].min())
    edge_minimum = bool(u[1:-1, 1:-1].min() >= edge)
    r = field_.scan_region
    window_clipped = not (r[0] < x0 and x1 < r[1] and r[2] < y0 and y1 < r[3])

    t = field_.constants.hbar**2 / (2.0 * field_.constants.m_e)
    if kinetic == "fd2":
        dx = sp.diags((1.0, -2.0, 1.0), (-1, 0, 1), shape=(nx, nx)) / hx**2
        dy = sp.diags((1.0, -2.0, 1.0), (-1, 0, 1), shape=(ny, ny)) / hy**2
        lap = sp.kron(sp.identity(ny), dx) + sp.kron(dy, sp.identity(nx))
        ham = (-t * lap + sp.diags(u.ravel())).tocsc()
    else:
        # Kronecker sum T_y (+) T_x over (iy, ix, jy, jx), by broadcasting
        ham = (t * _sinc_kinetic(ny, hy))[:, None, :, None] * np.eye(nx)[None, :, None, :]
        iy = np.arange(ny)
        ham[iy, :, iy, :] += t * _sinc_kinetic(nx, hx)
        ham = ham.reshape(nx * ny, nx * ny)
        ham.flat[:: nx * ny + 1] += u.ravel()
    return DiscreteHamiltonian(x, y, u, ham, edge_minimum, window_clipped, field_.constants)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Lowest eigenpairs of a discrete Hamiltonian.

    energies ascending [J]; states: list of (ny, nx) arrays, L2-normalized
    with the grid measure and sign-fixed (largest-magnitude sample
    positive); residuals: ||H psi - E psi|| over the spectral span of the
    computed set, one per state.
    """

    energies: np.ndarray
    states: list
    residuals: np.ndarray
    ham: DiscreteHamiltonian


def eigenstates(
    ham: DiscreteHamiltonian, k: int = 6, seed: int = 0, v0: np.ndarray | None = None
) -> EigenSolution:
    """Lowest k eigenpairs by shift-invert Lanczos.

    Lanczos starts from ``v0`` when given (one value per node, for example
    the sum of a nearby problem's eigenvectors), else from a vector drawn
    from ``seed``.  The shift is sigma = min U, the lowest sampled
    potential.  H - sigma I = T + (U - min U) is positive definite: U - min U
    is a non-negative diagonal, so by Weyl's inequality its lowest eigenvalue
    is at least that of the kinetic T, which is positive (both kinetic
    symbols, 2 - 2 cos t and t^2, are positive away from t = 0).  And sigma
    lies only about the zero-point energy below E0, so Lanczos needs few
    solves.  ``eigsh`` factors H - sigma I once itself, by LAPACK LU when
    the matrix is dense (sinc) and by SuperLU when it is sparse (fd2), and
    applies the factor's solve in ARPACK's shift-invert mode.  ARPACK stops
    at a relative Ritz tolerance of 1e-13, which keeps every residual below
    about 1e-12 of the spectral span.
    """
    size = ham.matrix.shape[0]
    if not 1 <= k <= min(20, size - 2):
        raise DomainError("k must be between 1 and min(20, n_nodes - 2)")
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(size)
    sigma = float(ham.u.min())
    vals, vecs = spla.eigsh(ham.matrix, k=k, sigma=sigma, which="LM", v0=v0, tol=1e-13)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    span = float(vals[-1] - vals[0]) if k > 1 else max(abs(float(vals[0])), 1e-300)
    residuals = np.linalg.norm(ham.matrix @ vecs - vecs * vals, axis=0) / (
        np.linalg.norm(vecs, axis=0) * span)
    # unit L2 norm under the grid measure, largest-magnitude sample positive
    psi = vecs / math.sqrt((ham.x[1] - ham.x[0]) * (ham.y[1] - ham.y[0]))
    psi *= np.sign(psi[np.abs(psi).argmax(axis=0), np.arange(k)])
    states = list(psi.T.reshape(k, *ham.u.shape))
    return EigenSolution(energies=vals, states=states, residuals=residuals, ham=ham)


@dataclass(frozen=True)
class TransitionSet:
    """Lowest transition frequencies and the anharmonicity, all angular
    [rad/s] like every frequency in the package.

    alpha = omega_12 - omega_01, negative when the level spacing shrinks
    with excitation.  ``cli`` converts to the cyclic units it prints.
    """

    omega_01: float
    omega_12: float
    alpha: float


def transitions(sol: EigenSolution) -> TransitionSet:
    """Transition frequencies from the three lowest levels."""
    if sol.energies.size < 3:
        raise DomainError("need at least 3 eigenstates for transition frequencies")
    hbar = sol.ham.constants.hbar
    w01 = float(sol.energies[1] - sol.energies[0]) / hbar
    w12 = float(sol.energies[2] - sol.energies[1]) / hbar
    return TransitionSet(omega_01=w01, omega_12=w12, alpha=w12 - w01)


# ---------------------------------------------------------------------------
# window sizing and voltage sweeps
# ---------------------------------------------------------------------------


def auto_window(field_: PotentialField) -> tuple:
    """Window centered on ``cluster.trap_minimum``, sized by the curvature
    there: half-width = WINDOW_FACTOR * sqrt(hbar / (m_e omega)) per axis,
    with omega = sqrt(U_xx / m_e) for x and sqrt(U_yy / m_e) for y (hbar and
    m_e from the field's ``constants``), so the soft axis of an anisotropic
    trap gets the wider window.  Clipped to the field's scan region, which
    ``build_hamiltonian`` then flags as ``window_clipped``.
    """
    center, hess = trap_minimum(field_)
    region = field_.scan_region
    curvs = np.clip(np.diag(hess), 1e-30, None)
    c = field_.constants
    half = WINDOW_FACTOR * np.sqrt(c.hbar / np.sqrt(c.m_e * curvs))
    lo, hi = np.clip([center - half, center + half], region[::2], region[1::2])
    return (lo[0], hi[0], lo[1], hi[1])


@dataclass(frozen=True)
class FrequencySweepRow:
    """One sweep point: the ``TransitionSet`` values in rad/s (nan where the
    point failed), which ``io.write_freq_sweep_csv`` writes in GHz and MHz."""

    voltage: float
    omega_01: float
    omega_12: float
    alpha: float
    residual: float
    flags: tuple


def frequency_vs_voltage(
    field_factory: Callable[[float], PotentialField],
    voltages: Sequence[float],
    nx: int = 23,
    ny: int = 23,
    k: int = 4,
    seed: int = 0,
) -> list[FrequencySweepRow]:
    """Transition frequencies along a control-voltage sweep.

    ``field_factory`` maps a voltage to a PotentialField (compose an
    electrode set, or scale an analytic surrogate), which carries the
    physical constants of that point's solve.  Each point is
    auto-windowed and solved on the sinc DVR.  Lanczos at each point starts
    from the sum of the previous point's eigenvectors, which lies near the
    wanted subspace; the first point, and any point after a failed one,
    starts from the seeded vector.  The start vector depends only on earlier
    points, so reruns stay bit-identical.  Failures at single points (a
    DomainError, ARPACK's RuntimeError, a float error) are recorded in the
    row flags instead of aborting the sweep; a grid of fewer than 3 nodes
    per axis or more than MAX_DENSE_NODES nodes, or a ``k``
    outside 3 to min(20, nx * ny - 2), which no point could solve, raises
    DomainError before the first point.
    """
    _check_grid(nx, ny, "sinc")
    if not 3 <= k <= min(20, nx * ny - 2):
        raise DomainError("k must be between 3 and min(20, nx * ny - 2)")
    rows, warm = [], None
    for volt in voltages:
        flags = []
        w01 = w12 = alpha = residual = math.nan
        try:
            field_ = field_factory(float(volt))
            ham = build_hamiltonian(field_, auto_window(field_), nx=nx, ny=ny, kinetic="sinc")
            flags += ham.flags
            sol = eigenstates(ham, k=k, seed=seed, v0=warm)
            tset = transitions(sol)
            w01, w12, alpha = tset.omega_01, tset.omega_12, tset.alpha
            residual = float(sol.residuals.max())
            warm = np.sum(sol.states, axis=0).ravel()
        except (DomainError, RuntimeError, ArithmeticError) as exc:
            warm = None
            flags.append(f"failed:{type(exc).__name__}")
        rows.append(FrequencySweepRow(float(volt), w01, w12, alpha, residual, tuple(flags)))
    return rows
