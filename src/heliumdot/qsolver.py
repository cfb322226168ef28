"""Single-electron levels of a trap on a uniform grid.

H = -(hbar^2 / 2 m_e) laplacian + U(x, y) is sampled on a uniform window
grid as one Kronecker sum, H = T_y (x) I + I (x) T_x + diag(U), with one of
two 1D kinetic matrices per axis: the sinc discrete-variable representation
(DVR; Colbert and Miller, J. Chem. Phys. 96, 1982, 1992), whose levels
converge spectrally for a smooth U and which ``qsolve`` and ``sweep freq``
use on LEVEL_GRID nodes per axis by default, at most MAX_DENSE_NODES in
all; or the 3-point stencil with hard walls just outside the window.
``auto_window`` centers
the window on the trap minimum (``cluster.trap_minimum``) and sizes it from
the curvature there.  On both grids block Davidson (Davidson, J. Comput.
Phys. 17, 87 (1975)) finds the lowest levels from the products of the exact
1D levels of U cut along the grid lines through its lowest node (fast
diagonalization; Lynch, Rice and Thomas, Numer. Math. 6, 185 (1964)),
applying H matrix-free.  Where Davidson stalls, one
``scipy.sparse.linalg.eigsh`` call runs shift-invert Lanczos (ARPACK) at
sigma = min U from a seeded start vector.  Only that fallback and the full
sparse matrix, ``DiscreteHamiltonian.matrix``, import scipy.sparse, so a
solve that Davidson finishes loads no scipy.  Both are deterministic, so
reruns are bit-identical; the transition frequencies and the motional
anharmonicity follow from the levels.  hbar and m_e are the solved field's
own ``constants``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .core import DomainError, PhysicalConstants
from .cluster import trap_minimum
from .potential import PotentialField, sample_grid

if TYPE_CHECKING:  # the fallback's matrix type, for annotations only
    import scipy.sparse as sp

# Half-width of an auto window, in zero-point lengths sqrt(hbar / (m_e omega)).
WINDOW_FACTOR = 8.0

# Sinc nodes per axis of the commands' level solves.
LEVEL_GRID = 23

# Largest n_x n_y of a sinc grid, and of a fallback that factors H - sigma I
# by dense LU (above it SuperLU): 8 * 2500^2 bytes = 50 MB.
MAX_DENSE_NODES = 2500


def _fd2_kinetic(n: int, h: float) -> np.ndarray:
    """3-point -d^2/dx^2 on n nodes of spacing h, zero on the ghost nodes
    outside: 2 on the diagonal and -1 next to it, over h^2."""
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2


def _sinc_kinetic(n: int, h: float) -> np.ndarray:
    """Sinc-DVR -d^2/dx^2 on n nodes of spacing h: pi^2/3 on the diagonal and
    2 (-1)^(i-j) / (i-j)^2 off it, over h^2."""
    k = np.arange(1, n)
    first = np.concatenate(([math.pi**2 / 3.0], np.where(k % 2, -2.0, 2.0) / (k * k)))
    i = np.arange(n)
    return first[np.abs(np.subtract.outer(i, i))] / h**2


_KINETIC = {"fd2": _fd2_kinetic, "sinc": _sinc_kinetic}


def _check_grid(nx: int, ny: int, kinetic: str) -> None:
    """A known kinetic, at least 3 nodes per axis, and at most MAX_DENSE_NODES
    nodes for sinc."""
    if nx < 3 or ny < 3:
        raise DomainError("need at least 3 nodes per axis")
    if kinetic not in _KINETIC:
        raise DomainError(f"kinetic must be 'fd2' or 'sinc', got {kinetic!r}")
    if kinetic == "sinc" and nx * ny > MAX_DENSE_NODES:
        raise DomainError(f"a sinc grid holds at most {MAX_DENSE_NODES} nodes, "
                          f"got {nx} x {ny} = {nx * ny}")


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """Grid Hamiltonian on a window, H = T_y (x) I + I (x) T_x + diag(u).

    x/y are the grid node coordinates [m] (uniform spacing), u the sampled
    potential energy [J] with shape (ny, nx), and kinetic_axes (T_x, T_y)
    [J] the dense 1D kinetic energy along each axis.  edge_minimum flags a
    window whose sampled minimum sits on the boundary ring (the trap is
    probably not inside), window_clipped one that reaches the field's scan
    region (an auto_window cut to it, whose levels may be unresolved), and
    constants are the field's.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    edge_minimum: bool
    window_clipped: bool
    constants: PhysicalConstants
    kinetic_axes: tuple

    @property
    def flags(self) -> list:
        """The names of the set flags, as ``qsolve`` and ``sweep freq`` report them."""
        return [name for name, on in (("edge_minimum", self.edge_minimum),
                                      ("window_clipped", self.window_clipped)) if on]

    @functools.cached_property
    def matrix(self) -> sp.csc_matrix:
        """H over row-major raveled nodes, sparse, built on first use."""
        import scipy.sparse as sp  # late import: only the eigsh fallback reads the matrix

        return (sp.kronsum(*self.kinetic_axes) + sp.diags(self.u.ravel())).tocsc()


def build_hamiltonian(
    field_: PotentialField,
    window: tuple,
    nx: int = 151,
    ny: int = 151,
    kinetic: str = "fd2",
) -> DiscreteHamiltonian:
    """Sample U over window = (x0, x1, y0, y1) and set up the kinetic matrix
    of each axis, with hbar and m_e from the field's ``constants``.

    ``kinetic`` is ``"fd2"`` (3-point stencil, zero on the ghost nodes
    outside the window) or ``"sinc"`` (sinc DVR, at most MAX_DENSE_NODES
    nodes, checked before anything is sampled).  The window must lie inside
    the field domain; a sampled minimum on its edge, or a window that
    reaches the scan region, is flagged, not fatal.
    """
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise DomainError("window must have positive extent")
    _check_grid(nx, ny, kinetic)
    x, y, u = sample_grid(field_, window, nx, ny)
    if not np.all(np.isfinite(u)):
        raise DomainError("potential is not finite over the window")

    edge = min(u[0].min(), u[-1].min(), u[:, 0].min(), u[:, -1].min())
    edge_minimum = bool(u[1:-1, 1:-1].min() >= edge)
    r = field_.scan_region
    window_clipped = not (r[0] < x0 and x1 < r[1] and r[2] < y0 and y1 < r[3])

    t = field_.constants.hbar**2 / (2.0 * field_.constants.m_e)
    axes = (t * _KINETIC[kinetic](nx, x[1] - x[0]), t * _KINETIC[kinetic](ny, y[1] - y[0]))
    return DiscreteHamiltonian(x, y, u, edge_minimum, window_clipped, field_.constants, axes)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Lowest eigenpairs of a discrete Hamiltonian.

    energies ascending [J]; states: list of (ny, nx) arrays, L2-normalized
    with the grid measure and sign-fixed (largest-magnitude sample
    positive); residuals: ||H psi - E psi|| over the spectral span of the
    computed set, one per state; path: the solver that found them,
    ``"davidson"`` or ``"eigsh"``.
    """

    energies: np.ndarray
    states: list
    residuals: np.ndarray
    ham: DiscreteHamiltonian
    path: str


# Davidson stops when every residual is below this share of the level span,
# the bound eigsh's results meet; working with H - min U keeps the rounding
# floor of its matrix-free residual near 5e-14, well below it.
DAVIDSON_TOL = 1e-12
# Davidson steps before the ARPACK fallback, and the steps over which the
# largest residual must at least halve before it counts as stalled.
DAVIDSON_STEPS = 30
STALL_STEPS = 4
# Largest Davidson basis before a restart from its lowest 2k Ritz vectors
# (at least 3k), which keeps each step's projected eigh small.
DAVIDSON_BASIS = 24


def _span(vals: np.ndarray) -> float:
    """The spectral span of ascending levels, |E0| for one level."""
    return float(vals[-1] - vals[0]) if vals.size > 1 else max(abs(float(vals[0])), 1e-300)


def _kron_apply(ham: DiscreteHamiltonian, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T_y (x) I + I (x) T_x + diag(u)) applied to each row of ``rows``, a
    flattened (ny, nx) state, as T_y psi + psi T_x + u psi on the stack."""
    t_x, t_y = ham.kinetic_axes
    psi = rows.reshape(-1, *u.shape)
    return (t_y @ psi + psi @ t_x + u * psi).reshape(rows.shape)


def _davidson(ham: DiscreteHamiltonian, k: int):
    """Lowest k eigenpairs of a grid Hamiltonian by block Davidson, as
    (ascending energies, unit eigenvectors in columns), or None when the
    residuals stall or DAVIDSON_STEPS run out.

    U is split at its lowest node (x*, y*) into a(x) = U(x, y*) and
    b(y) = U(x*, y) - U(x*, y*); h_x = T_x + a and h_y = T_y + b are
    diagonalized exactly, and the k lowest products of their eigenvectors
    start the search (exact for a separable U).  H is applied matrix-free on
    (m, ny, nx) stacks, and each open residual is preconditioned by
    (lambda_x + lambda_y - theta)^-1 in the product eigenbasis.
    """
    t_x, t_y = ham.kinetic_axes
    ny, nx = ham.u.shape
    iy, ix = np.unravel_index(np.argmin(ham.u), ham.u.shape)
    # work with H - min U, whose levels are of the order of their span
    sigma = ham.u[iy, ix]
    u = ham.u - sigma
    lam_x, vec_x = np.linalg.eigh(t_x + np.diag(u[iy]))
    lam_y, vec_y = np.linalg.eigh(t_y + np.diag(u[:, ix]))
    lam = lam_y[:, None] + lam_x
    jy, jx = np.unravel_index(np.argsort(lam, axis=None, kind="stable")[:k], lam.shape)
    basis = (vec_y[:, jy].T[:, :, None] * vec_x[:, jx].T[:, None, :]).reshape(k, -1)

    hbasis = _kron_apply(ham, u, basis)
    gram = basis @ hbasis.T
    worst = []
    for _ in range(DAVIDSON_STEPS):
        theta, coef = np.linalg.eigh(gram)
        if len(basis) + k > max(DAVIDSON_BASIS, 3 * k):
            basis, hbasis = coef[:, :2 * k].T @ basis, coef[:, :2 * k].T @ hbasis
            gram = basis @ hbasis.T
            theta, coef = np.linalg.eigh(gram)
        theta, coef = theta[:k], coef[:, :k]
        vecs, resid = coef.T @ basis, coef.T @ hbasis
        resid -= theta[:, None] * vecs
        span = _span(theta + sigma)
        norms = np.linalg.norm(resid, axis=1) / span
        if norms.max() < DAVIDSON_TOL:
            return theta + sigma, vecs.T
        worst.append(norms.max())
        if len(worst) > STALL_STEPS and worst[-1] > 0.5 * worst[-1 - STALL_STEPS]:
            return None
        open_ = norms >= DAVIDSON_TOL
        # a product level next to theta would blow its correction up
        gap = lam - theta[open_, None, None]
        gap[np.abs(gap) < 1e-8 * span] = 1e-8 * span
        corr = vec_y.T @ resid[open_].reshape(-1, ny, nx) @ vec_x
        corr = (vec_y @ (corr / gap) @ vec_x.T).reshape(-1, nx * ny)
        corr /= np.linalg.norm(corr, axis=1)[:, None]
        for _ in range(2):
            corr -= (corr @ basis.T) @ basis
        # orthonormal, dropping what the basis already spans
        q, tri = np.linalg.qr(corr.T)
        new = q[:, np.abs(np.diag(tri)) > 1e-8].T
        if not len(new):
            return None
        hnew = _kron_apply(ham, u, new)
        cross = basis @ hnew.T
        gram = np.block([[gram, cross], [cross.T, new @ hnew.T]])
        basis, hbasis = np.vstack((basis, new)), np.vstack((hbasis, hnew))
    return None


def eigenstates(ham: DiscreteHamiltonian, k: int = 6, seed: int = 0) -> EigenSolution:
    """Lowest k eigenpairs: block Davidson, then shift-invert Lanczos
    wherever Davidson gives up.

    ``_davidson`` runs until every residual, measured matrix-free, is below
    DAVIDSON_TOL of the level span; it stops early when the largest residual
    stalls, and after DAVIDSON_STEPS.  Then one ``scipy.sparse.linalg.eigsh``
    call runs Lanczos (ARPACK) in shift-invert mode from a vector drawn from
    ``seed``; only this fallback imports scipy.sparse.  The shift is
    sigma = min U, the lowest sampled potential.
    H - sigma I = T + (U - min U) is positive definite: U - min U is a
    non-negative diagonal, so by Weyl's inequality its lowest eigenvalue is
    at least that of the kinetic T, which is positive (both kinetic symbols,
    2 - 2 cos t and t^2, are positive away from t = 0).  And sigma lies only
    about the zero-point energy below E0, so Lanczos needs few solves.
    ``eigsh`` factors H - sigma I once itself, by LAPACK LU on grids of at
    most MAX_DENSE_NODES nodes and by SuperLU above, and stops at a relative
    Ritz tolerance of 1e-13.  Both paths are deterministic, so reruns are
    bit-identical, and ``path`` names the one taken.  The reported residuals
    apply H to the returned vectors afresh, matrix-free.
    """
    size = ham.u.size
    if not 1 <= k <= min(20, size - 2):
        raise DomainError("k must be between 1 and min(20, n_nodes - 2)")
    found = _davidson(ham, k)
    if found is not None:
        path, (vals, vecs) = "davidson", found
    else:
        path = "eigsh"
        import scipy.sparse.linalg as spla  # late import: only a stalled Davidson needs ARPACK

        v0 = np.random.default_rng(seed).standard_normal(size)
        matrix = ham.matrix.toarray() if size <= MAX_DENSE_NODES else ham.matrix
        vals, vecs = spla.eigsh(matrix, k=k, sigma=float(ham.u.min()), which="LM", v0=v0,
                                tol=1e-13)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    hvecs = _kron_apply(ham, ham.u, vecs.T).T
    residuals = np.linalg.norm(hvecs - vecs * vals, axis=0) / (
        np.linalg.norm(vecs, axis=0) * _span(vals))
    # unit L2 norm under the grid measure, largest-magnitude sample positive
    psi = vecs / math.sqrt((ham.x[1] - ham.x[0]) * (ham.y[1] - ham.y[0]))
    psi *= np.sign(psi[np.abs(psi).argmax(axis=0), np.arange(k)])
    states = list(psi.T.reshape(k, *ham.u.shape))
    return EigenSolution(energies=vals, states=states, residuals=residuals, ham=ham, path=path)


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
    nx: int = LEVEL_GRID,
    ny: int = LEVEL_GRID,
    k: int = 4,
    seed: int = 0,
) -> list[FrequencySweepRow]:
    """Transition frequencies along a control-voltage sweep.

    ``field_factory`` maps a voltage to a PotentialField (compose an
    electrode set, or scale an analytic surrogate), which carries the
    physical constants of that point's solve.  Each point is
    auto-windowed and solved on the sinc DVR on its own, so a row does not
    depend on the points before it, and reruns stay bit-identical; ``seed``
    reaches only the ARPACK fallback of ``eigenstates``.  Failures at single
    points (a DomainError, ARPACK's RuntimeError, a float error) are
    recorded in the row flags instead of aborting the sweep; a grid of fewer
    than 3 nodes per axis or more than MAX_DENSE_NODES nodes, or a ``k``
    outside 3 to min(20, nx * ny - 2), which no point could solve, raises
    DomainError before the first point.
    """
    _check_grid(nx, ny, "sinc")
    if not 3 <= k <= min(20, nx * ny - 2):
        raise DomainError("k must be between 3 and min(20, nx * ny - 2)")
    rows = []
    for volt in voltages:
        flags = []
        w01 = w12 = alpha = residual = math.nan
        try:
            field_ = field_factory(float(volt))
            ham = build_hamiltonian(field_, auto_window(field_), nx=nx, ny=ny, kinetic="sinc")
            flags += ham.flags
            sol = eigenstates(ham, k=k, seed=seed)
            tset = transitions(sol)
            w01, w12, alpha = tset.omega_01, tset.omega_12, tset.alpha
            residual = float(sol.residuals.max())
        except (DomainError, RuntimeError, ArithmeticError) as exc:
            flags.append(f"failed:{type(exc).__name__}")
        rows.append(FrequencySweepRow(float(volt), w01, w12, alpha, residual, tuple(flags)))
    return rows
