"""Single-electron levels of a trap by finite-difference diagonalization.

The in-plane Hamiltonian H = -(hbar^2 / 2 m_e) laplacian + U(x, y) is
discretized on a uniform rectangular grid with a central second-difference
stencil per axis: the 3-point (1, -2, 1)/h^2 of order 2, or the 5-point
(-1, 16, -30, 16, -1)/12h^2 of order 4 (Fornberg, Math. Comp. 51:699, 1988),
which the commands use.  Wavefunctions vanish on every ghost node the stencil
reaches outside the window (Dirichlet, hard walls).  The resulting sparse
symmetric matrix is diagonalized by shift-invert Lanczos (ARPACK) from a
seeded or caller-given start vector, so repeated runs are bit-identical.
The shift sits below the lowest sampled potential, which makes H - sigma I
symmetric positive definite; it is factored once by a symmetric-mode sparse
LU (minimum-degree ordering on A + A^T, diagonal pivots) whose solve is the
Lanczos operator.  Transition frequencies and the motional anharmonicity
come straight from the low-lying spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import CONSTANTS, DomainError, Frequency, PhysicalConstants
from .potential import PotentialField, edge_ring, sample_grid, scan_minimum

# Half-width of an auto window, in zero-point lengths sqrt(hbar / (m_e omega)).
WINDOW_FACTOR = 8.0

# Central second-difference coefficients at offsets -r..r, in units of 1/h^2,
# by order of accuracy.
_STENCILS = {
    2: (1.0, -2.0, 1.0),
    4: (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0),
}


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """Finite-difference Hamiltonian on a window, 2nd or 4th order.

    x/y are the grid node coordinates [m] (uniform spacing), u the sampled
    potential energy [J] with shape (ny, nx), matrix the sparse symmetric
    operator over row-major raveled nodes.  edge_minimum flags a window
    whose sampled minimum sits on the boundary ring (the trap is probably
    not inside).
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    matrix: sp.spmatrix
    edge_minimum: bool
    constants: PhysicalConstants = CONSTANTS


def build_hamiltonian(
    field_: PotentialField,
    window: tuple,
    nx: int = 151,
    ny: int = 151,
    constants: PhysicalConstants = CONSTANTS,
    order: int = 2,
) -> DiscreteHamiltonian:
    """Assemble the discrete Hamiltonian over window = (x0, x1, y0, y1).

    ``order`` is the accuracy order of the kinetic stencil, 2 (3 points per
    axis) or 4 (5 points per axis).  Wavefunctions vanish on the one or two
    ghost layers outside the window (Dirichlet).  The window must lie inside
    the field domain; a sampled-minimum-on-edge condition is flagged, not
    fatal.
    """
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise DomainError("window must have positive extent")
    if nx < 3 or ny < 3:
        raise DomainError("need at least 3 nodes per axis")
    if order not in _STENCILS:
        raise DomainError(f"stencil order must be 2 or 4, got {order!r}")
    x, y, u = sample_grid(field_, window, nx, ny)
    hx = x[1] - x[0]
    hy = y[1] - y[0]
    if not np.all(np.isfinite(u)):
        raise DomainError("potential is not finite over the window")

    edge = edge_ring(u.shape)
    edge_minimum = bool(u[~edge].min() >= u[edge].min())

    t = constants.hbar**2 / (2.0 * constants.m_e)
    coef = _STENCILS[order]
    offsets = range(-(len(coef) // 2), len(coef) // 2 + 1)
    dx = sp.diags(coef, offsets, shape=(nx, nx)) / hx**2
    dy = sp.diags(coef, offsets, shape=(ny, ny)) / hy**2
    lap = sp.kron(sp.identity(ny), dx) + sp.kron(dy, sp.identity(nx))
    ham = (-t * lap + sp.diags(u.ravel())).tocsc()
    return DiscreteHamiltonian(
        x=x, y=y, u=u, matrix=ham, edge_minimum=edge_minimum, constants=constants
    )


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
    from ``seed``.  The shift sigma lies 5% of the potential range below
    min U.  H - sigma I is then symmetric positive definite (the Dirichlet
    -laplacian is positive definite for both stencils: the 4th-order symbol
    (30 - 32 cos t + 2 cos 2t)/12 = (1 - cos t)(7 - cos t)/3 is positive
    away from t = 0, and U - sigma > 0), so it is factored once with
    ``splu`` in SuperLU's symmetric mode: minimum-degree ordering of
    A + A^T and no off-diagonal pivoting, about half the fill of the
    general COLAMD factorization ``eigsh`` would build itself.  The
    factor's solve is handed to ``eigsh`` as ``OPinv``.  ARPACK stops at a
    relative Ritz tolerance of 1e-13, which keeps every residual below
    about 1e-12 of the spectral span.
    """
    size = ham.matrix.shape[0]
    if not 1 <= k <= min(20, size - 2):
        raise DomainError("k must be between 1 and min(20, n_nodes - 2)")
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(size)
    sigma = float(ham.u.min()) - 0.05 * float(ham.u.max() - ham.u.min() + 1.0e-30)
    lu = spla.splu(
        ham.matrix - sigma * sp.identity(size, format="csc"),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    op_inv = spla.LinearOperator((size, size), matvec=lu.solve, dtype=float)
    vals, vecs = spla.eigsh(
        ham.matrix, k=k, sigma=sigma, which="LM", v0=v0, tol=1e-13, OPinv=op_inv
    )
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    hx = ham.x[1] - ham.x[0]
    hy = ham.y[1] - ham.y[0]
    span = float(vals[-1] - vals[0]) if k > 1 else max(abs(float(vals[0])), 1e-300)
    states = []
    residuals = np.empty(k)
    for i in range(k):
        v = vecs[:, i]
        residuals[i] = float(
            np.linalg.norm(ham.matrix @ v - vals[i] * v) / (np.linalg.norm(v) * span)
        )
        psi = v / math.sqrt(hx * hy)  # unit L2 norm under the grid measure
        peak = np.argmax(np.abs(psi))
        if psi.flat[peak] < 0:
            psi = -psi
        states.append(psi.reshape(ham.u.shape))
    return EigenSolution(energies=vals, states=states, residuals=residuals, ham=ham)


@dataclass(frozen=True)
class TransitionSet:
    """Lowest transition frequencies and the anharmonicity.

    alpha_hz = (omega_12 - omega_01) / 2pi [Hz, cyclic], negative when the
    level spacing shrinks with excitation.
    """

    omega_01: Frequency
    omega_12: Frequency
    alpha_hz: float


def transitions(sol: EigenSolution) -> TransitionSet:
    """Transition frequencies from the three lowest levels."""
    if sol.energies.size < 3:
        raise DomainError("need at least 3 eigenstates for transition frequencies")
    hbar = sol.ham.constants.hbar
    w01 = float(sol.energies[1] - sol.energies[0]) / hbar
    w12 = float(sol.energies[2] - sol.energies[1]) / hbar
    return TransitionSet(
        omega_01=Frequency(w01),
        omega_12=Frequency(w12),
        alpha_hz=(w12 - w01) / (2.0 * math.pi),
    )


# ---------------------------------------------------------------------------
# window sizing and voltage sweeps
# ---------------------------------------------------------------------------


def auto_window(field_: PotentialField, constants: PhysicalConstants = CONSTANTS) -> tuple:
    """Square window centered on the trap minimum, sized by the local curvature.

    Half-width = WINDOW_FACTOR * sqrt(hbar / (m_e omega_est)) per axis, with
    omega_est from the geometric mean of the positive curvatures at the
    scanned minimum.  Clipped to the field's scan region.
    """
    region = field_.scan_region
    cx, cy = scan_minimum(field_, region, 121)
    hess = field_.energy_hessian((cx, cy))
    curvs = np.clip(np.linalg.eigvalsh(hess), 1e-30, None)
    omega_est = math.sqrt(math.sqrt(curvs[0] * curvs[1]) / constants.m_e)
    half = WINDOW_FACTOR * math.sqrt(constants.hbar / (constants.m_e * omega_est))
    wx0 = max(cx - half, region[0])
    wx1 = min(cx + half, region[1])
    wy0 = max(cy - half, region[2])
    wy1 = min(cy + half, region[3])
    return (wx0, wx1, wy0, wy1)


@dataclass(frozen=True)
class FrequencySweepRow:
    voltage: float
    f01_hz: float
    f12_hz: float
    alpha_hz: float
    residual: float
    flags: tuple


def frequency_vs_voltage(
    field_factory: Callable[[float], PotentialField],
    voltages: Sequence[float],
    nx: int = 61,
    ny: int = 61,
    k: int = 4,
    seed: int = 0,
    constants: PhysicalConstants = CONSTANTS,
) -> list:
    """Transition frequencies along a control-voltage sweep.

    ``field_factory`` maps a voltage to a PotentialField (compose an
    electrode set, or scale an analytic surrogate).  Each point is
    auto-windowed and solved with the 4th-order stencil.  Lanczos at each
    point starts from the sum of the previous point's eigenvectors, which
    lies near the wanted subspace; the first point, and any point after a
    failed one, starts from the seeded vector.  The start vector depends
    only on earlier points, so reruns stay bit-identical.  Failures at
    single points are recorded in the row flags instead of aborting the
    sweep; a ``k`` outside 3 to min(20, nx * ny - 2), which no point could
    solve, raises DomainError before the first point.
    """
    if not 3 <= k <= min(20, nx * ny - 2):
        raise DomainError("k must be between 3 and min(20, nx * ny - 2)")
    rows = []
    warm = None
    for volt in voltages:
        flags = []
        try:
            field_ = field_factory(float(volt))
            win = auto_window(field_, constants=constants)
            ham = build_hamiltonian(field_, win, nx=nx, ny=ny, constants=constants, order=4)
            if ham.edge_minimum:
                flags.append("edge_minimum")
            sol = eigenstates(ham, k=k, seed=seed, v0=warm)
            tset = transitions(sol)
            warm = np.sum(sol.states, axis=0).ravel()
            rows.append(
                FrequencySweepRow(
                    voltage=float(volt),
                    f01_hz=tset.omega_01.hz,
                    f12_hz=tset.omega_12.hz,
                    alpha_hz=tset.alpha_hz,
                    residual=float(sol.residuals.max()),
                    flags=tuple(flags),
                )
            )
        except (DomainError, RuntimeError) as exc:
            warm = None
            flags.append(f"failed:{type(exc).__name__}")
            rows.append(
                FrequencySweepRow(
                    voltage=float(volt), f01_hz=math.nan, f12_hz=math.nan,
                    alpha_hz=math.nan, residual=math.nan, flags=tuple(flags),
                )
            )
    return rows
