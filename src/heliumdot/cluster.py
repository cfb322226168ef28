"""Few-electron clusters in an electrostatic trap and their coupled mode spectrum.

A cluster is N electrons on the helium surface sharing one trap, at most
MAX_ELECTRONS.  The total energy is the single-particle trap energy plus
pairwise Coulomb repulsion; its pair terms in energy, gradient and Hessian
are broadcast over one (N, N) table of displacements and distances.
Equilibrium configurations come from a seeded multi-start trust-region
Newton descent (Steihaug truncated conjugate gradients on the analytic
Hessian), in-plane vibrational modes from the mass-scaled Hessian, and the
observable resonator pull from a classical coupled-oscillator eigenproblem
between the resonator mode and every cluster mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.optimize

from .analytic import coupling_g
from .core import CONSTANTS, DomainError, PhysicalConstants, ResonatorParams
from .potential import CouplingGradientMap, CouplingMapSet, PotentialField, compose, scan_minimum

# Electrons closer than this are a modeling error, not a physical configuration.
MIN_SEPARATION = 1e-9  # m
GRAD_TOL = 1e-28  # J/m
MAX_ITER = 500  # trust-region iterations per descent run
FLOOR_ULPS = 4.0  # Newton decrease [ulp of the energy] below which a stall is converged

# Largest cluster: the 2N x 2N Hessian, like each (N, N, 2, 2) pair array,
# is 8 * 2000^2 bytes = 32 MB.
MAX_ELECTRONS = 1000


# ---------------------------------------------------------------------------
# energy, gradient, Hessian
# ---------------------------------------------------------------------------


def _pair_diffs(positions: np.ndarray):
    """Displacements r_i - r_j, shape (N, N, 2), and distances (N, N) with an
    inf diagonal, so every pair term vanishes there."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    return diff, dist


def _check_positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise DomainError("positions must have shape (N, 2)")
    return pos


def total_energy(
    field_: PotentialField,
    positions,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Trap plus Coulomb energy of a configuration [J].

    Raises DomainError when any electron leaves the field domain or any pair
    comes closer than MIN_SEPARATION.
    """
    pos = _check_positions(positions)
    u = float(np.sum(field_.energy(pos[:, 0], pos[:, 1])))
    _, dist = _pair_diffs(pos)
    if np.any(dist < MIN_SEPARATION):
        raise DomainError(f"electron pair closer than {MIN_SEPARATION} m")
    pairs = dist[np.triu_indices(pos.shape[0], k=1)]
    return u + float(constants.coulomb * constants.e**2 * np.sum(1.0 / pairs))


def total_gradient(
    field_: PotentialField,
    positions,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Gradient of the total energy, shape (N, 2) [J/m]."""
    pos = _check_positions(positions)
    diff, dist = _pair_diffs(pos)
    ke2 = constants.coulomb * constants.e**2
    return field_.energy_gradient(pos) - ke2 * (diff / dist[:, :, None] ** 3).sum(axis=1)


def total_hessian(
    field_: PotentialField,
    positions,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Analytic 2N x 2N Hessian of the total energy [J/m^2], symmetric.

    Pair (i, j) contributes the block B = k e^2 (3 d d^T / r^5 - I / r^3),
    d = r_i - r_j: -B off the diagonal, and +B to both diagonal blocks.
    """
    pos = _check_positions(positions)
    n = pos.shape[0]
    diff, dist = _pair_diffs(pos)
    r = dist[:, :, None, None]
    outer = diff[:, :, :, None] * diff[:, :, None, :]
    pair = constants.coulomb * constants.e**2 * (3.0 * outer / r**5 - np.eye(2) / r**3)
    hess = -pair.transpose(0, 2, 1, 3)  # (N, 2, N, 2)
    idx = np.arange(n)
    hess[idx, :, idx, :] = field_.energy_hessian(pos) + pair.sum(axis=1)
    return hess.reshape(2 * n, 2 * n)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ElectronConfiguration:
    """Equilibrium candidate: positions (N, 2) [m], energy [J], the gradient
    norm at exit [J/m], and the number of accepted descent steps."""

    positions: np.ndarray
    energy: float
    gradient_norm: float
    converged: bool
    iterations: int


def _triangular_lattice(center: np.ndarray, spacing: float, n: int) -> np.ndarray:
    """First n sites of a triangular lattice around center, nearest first;
    ties go to the smaller x, then the smaller y."""
    reach = max(2, int(math.ceil(math.sqrt(n))) + 2)
    row, col = np.mgrid[-reach : reach + 1, -reach : reach + 1].reshape(2, -1)
    x = (col + 0.5 * (row % 2)) * spacing
    y = row * spacing * math.sqrt(3.0) / 2.0
    picked = np.lexsort((y, x, x * x + y * y))[:n]
    return np.stack([x[picked], y[picked]], axis=1) + center[None, :]


def _check_counts(n_electrons: int, restarts: int) -> None:
    if not 0 <= n_electrons <= MAX_ELECTRONS:
        raise DomainError(f"n_electrons must be in [0, {MAX_ELECTRONS}], got {n_electrons}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")


def _newton_decrease(grad: np.ndarray, hess: np.ndarray) -> float:
    """Energy change |g.H^-1.g| / 2 a full Newton step predicts [J]; inf if H is singular."""
    try:
        return 0.5 * abs(float(grad @ np.linalg.solve(hess, grad)))
    except np.linalg.LinAlgError:
        return math.inf


def minimize(
    field_: PotentialField,
    n_electrons: int,
    seed: int = 0,
    restarts: int = 8,
    init: np.ndarray | None = None,
    constants: PhysicalConstants = CONSTANTS,
) -> ElectronConfiguration:
    """Find the minimum-energy configuration of n_electrons in the trap.

    Deterministic for a given (field, n_electrons, seed): the descent is
    seeded multi-start (``restarts`` runs, at least 1) around a
    triangular-lattice guess centered on the scanned trap minimum, or around
    ``init`` when given.  Each run is scipy's trust-region Newton-CG on the
    analytic gradient and Hessian; its steps follow negative curvature, so a
    run leaves a saddle unless symmetry pins it there.  A step off the field
    domain, or to where the gradient is not finite, counts as infinite
    energy and shrinks the trust radius.  A run has converged when the
    gradient norm fell below GRAD_TOL, or when it stopped because no step
    could be predicted to lower the energy and a full Newton step would
    lower it by at most FLOOR_ULPS units in the last place of the energy:
    the point is stationary as far as the energy can resolve.  MAX_ITER
    iterations, or a stop short of that floor, is not converged.  The best
    run wins by convergence then energy.
    """
    _check_counts(n_electrons, restarts)
    if n_electrons == 0:
        return ElectronConfiguration(
            positions=np.zeros((0, 2)), energy=0.0, gradient_norm=0.0,
            converged=True, iterations=0,
        )
    region = field_.scan_region
    span = min(region[1] - region[0], region[3] - region[2])
    if init is not None:
        base = _check_positions(init)
    else:
        center = scan_minimum(field_, 61)
        hess = field_.energy_hessian(center)
        curv = float(np.trace(hess)) / 2.0
        if curv <= 0:
            curv = abs(float(np.trace(hess))) / 2.0 or 1e-12
        spacing = (constants.coulomb * constants.e**2 / curv) ** (1.0 / 3.0)
        spacing = float(np.clip(spacing, span / 50.0, span / 4.0))
        base = _triangular_lattice(center, spacing, n_electrons)
    lo, hi = region[::2], region[1::2]
    base = np.clip(base, lo, hi)

    def fun_and_grad(x: np.ndarray):
        # off the domain, or a gradient past the float range: infinite energy
        pos = x.reshape(-1, 2)
        try:
            energy = total_energy(field_, pos, constants)
            grad = total_gradient(field_, pos, constants).ravel()
        except DomainError:
            return math.inf, np.zeros_like(x)
        return (energy, grad) if np.all(np.isfinite(grad)) else (math.inf, np.zeros_like(x))

    def hessian(x: np.ndarray) -> np.ndarray:
        return total_hessian(field_, x.reshape(-1, 2), constants)

    rng = np.random.default_rng(seed)
    scale = 0.25 * (span / 10.0 if n_electrons == 1 else
                    float(np.ptp(base, axis=0).max()) or span / 10.0)
    best = None
    for r in range(restarts):
        start = base if r == 0 else np.clip(
            base + rng.normal(0.0, scale, size=base.shape), lo, hi)
        path = [start.ravel()]
        if not math.isfinite(fun_and_grad(path[0])[0]):
            continue  # scipy builds the Hessian at the start before any check

        def on_iteration(intermediate_result):
            # a rejected step leaves x where it was
            if not np.array_equal(intermediate_result.x, path[-1]):
                path.append(intermediate_result.x)

        sol = scipy.optimize.minimize(
            fun_and_grad, path[0], jac=True, hess=hessian, method="trust-ncg",
            callback=on_iteration,
            options={"gtol": GRAD_TOL, "initial_trust_radius": span / 2.0,
                     "maxiter": MAX_ITER},
        )
        if not math.isfinite(sol.fun):
            continue
        # status 0: gradient below GRAD_TOL; 2: no predicted decrease left
        converged = sol.status == 0 or (
            sol.status == 2
            and _newton_decrease(sol.jac, hessian(sol.x))
            <= FLOOR_ULPS * np.spacing(abs(sol.fun))
        )
        candidate = ElectronConfiguration(
            positions=sol.x.reshape(-1, 2), energy=float(sol.fun),
            gradient_norm=float(np.linalg.norm(sol.jac)),
            converged=bool(converged), iterations=len(path) - 1,
        )
        if best is None or (candidate.converged, -candidate.energy) > (
            best.converged, -best.energy
        ):
            best = candidate
    if best is None:
        raise DomainError("no finite-energy configuration found; check the trap region")
    return best


# ---------------------------------------------------------------------------
# normal modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormalModes:
    """In-plane vibrational modes: angular frequencies ascending [rad/s],
    orthonormal eigenvectors as columns (2N x 2N), and saddle diagnostics."""

    frequencies: np.ndarray
    eigenvectors: np.ndarray
    is_saddle: bool


def normal_modes(
    field_: PotentialField,
    config: ElectronConfiguration,
    constants: PhysicalConstants = CONSTANTS,
) -> NormalModes:
    """Diagonalize the Hessian at an equilibrium: omega_k = sqrt(lambda_k / m_e).

    A configuration with a negative Hessian eigenvalue is a saddle; its
    unstable modes get frequency 0.
    """
    n = config.positions.shape[0]
    if n == 0:
        return NormalModes(np.zeros(0), np.zeros((0, 0)), False)
    hess = total_hessian(field_, config.positions, constants)
    evals, evecs = np.linalg.eigh(hess)
    tol = 1e-10 * max(float(np.abs(evals).max()), 1e-300)
    unstable = evals < -tol
    freqs = np.sqrt(np.clip(evals, 0.0, None) / constants.m_e)
    return NormalModes(frequencies=freqs, eigenvectors=evecs, is_saddle=bool(np.any(unstable)))


# ---------------------------------------------------------------------------
# coupled resonator-cluster spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledModes:
    """Hybridized resonator + cluster spectrum.

    frequencies ascending [rad/s]; participations: squared resonator weight
    of each hybrid mode (sums to 1); shift: frequency of the most
    resonator-like mode minus the bare resonator [rad/s]; mode_couplings:
    per-cluster-mode coupling rates g_k [rad/s].
    """

    frequencies: np.ndarray
    participations: np.ndarray
    shift: float
    mode_couplings: np.ndarray


def electron_couplings(
    config: ElectronConfiguration,
    res: ResonatorParams,
    gradient_map: CouplingGradientMap,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Per-electron coupling rates g_i [rad/s] at the equilibrium positions.

    g_i = (e / hbar) l_y(omega_r) V_zpf (d alpha-/dy)(r_i): the rate of
    ``analytic.coupling_g`` at a 1 m coupling length, times the local
    differential lever-arm derivative [1/m] at electron i.
    """
    grads = np.atleast_1d(
        gradient_map.value_at(config.positions[:, 0], config.positions[:, 1])
    )
    return coupling_g(res, 1.0, constants).g * np.asarray(grads, dtype=float)


def coupled_spectrum(
    modes: NormalModes,
    config: ElectronConfiguration,
    res: ResonatorParams,
    gradient_map: CouplingGradientMap,
    constants: PhysicalConstants = CONSTANTS,
) -> CoupledModes:
    """Classical hybridization of the resonator with every cluster mode.

    Symmetric eigenproblem in squared-frequency space: diagonal
    (omega_r^2, omega_k^2), off-diagonal 2 g_k sqrt(omega_r omega_k) between
    the resonator and mode k, where g_k projects the per-electron couplings
    onto the y components of mode k's eigenvector.  With zero couplings the
    spectrum reduces exactly to (omega_r, omega_k).
    """
    if modes.is_saddle:
        raise DomainError("coupled spectrum undefined at a saddle configuration")
    omega_r = res.omega_r
    if modes.frequencies.size == 0:
        return CoupledModes(
            frequencies=np.array([omega_r]), participations=np.array([1.0]),
            shift=0.0, mode_couplings=np.zeros(0),
        )
    g_i = electron_couplings(config, res, gradient_map, constants)
    y_components = modes.eigenvectors[1::2, :]  # rows: electron y coords
    g_k = y_components.T @ g_i
    mat = np.diag(np.concatenate(([omega_r**2], modes.frequencies**2)))
    mat[0, 1:] = mat[1:, 0] = 2.0 * g_k * np.sqrt(omega_r * modes.frequencies)
    evals, evecs = np.linalg.eigh(mat)
    if evals[0] <= 0:
        raise DomainError("coupled spectrum collapsed: non-positive squared frequency")
    freqs = np.sqrt(evals)
    participations = evecs[0, :] ** 2
    shift = float(freqs[int(np.argmax(participations))] - omega_r)
    return CoupledModes(
        frequencies=freqs, participations=participations,
        shift=shift, mode_couplings=g_k,
    )


# ---------------------------------------------------------------------------
# voltage sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShiftSweepRow:
    electrode: str
    voltage: float
    shift: float  # rad/s
    mode_frequencies: tuple  # rad/s
    converged: bool
    gradient_norm: float  # J/m, of the minimizer exit
    iterations: int  # accepted descent steps of the winning run
    is_saddle: bool
    flags: tuple  # ("failed:<ErrorName>",) for a point that raised, else ()


def shift_vs_voltage_sweep(
    maps: CouplingMapSet,
    base_voltages: dict,
    electrode: str,
    voltages: Sequence[float],
    n_electrons: int,
    res: ResonatorParams,
    gradient_map: CouplingGradientMap | None = None,
    e_x: float = 0.0,
    e_y: float = 0.0,
    seed: int = 0,
    restarts: int = 8,
    constants: PhysicalConstants = CONSTANTS,
) -> list[ShiftSweepRow]:
    """Resonator shift and cluster mode frequencies along one electrode sweep.

    Each point re-minimizes from the previous point's configuration with a
    single run; the first point, and any point after a failed one, starts
    cold with the full seeded multi-start.  A point whose equilibrium is a
    saddle, or whose field, minimum or spectrum raises DomainError or a float
    error (ArithmeticError), is recorded with shift = nan and converged=False
    instead of aborting the sweep; a raised error is named in the row's flags
    as ``failed:<ErrorName>``.  An electrode name the maps lack raises
    DomainError before the first point.
    """
    _check_counts(n_electrons, restarts)
    maps.check_electrodes({electrode, *base_voltages})
    if gradient_map is None:
        gradient_map = maps.resonator_gradient
    if gradient_map is None:
        raise DomainError("no resonator gradient map available for coupling")
    rows = []
    prev_positions = None
    for volt in voltages:
        volts = dict(base_voltages)
        volts[electrode] = float(volt)
        config = modes = None
        try:
            field_ = compose(maps, volts, e_x=e_x, e_y=e_y, constants=constants)
            config = minimize(
                field_, n_electrons, seed=seed,
                restarts=restarts if prev_positions is None else 1,
                init=prev_positions, constants=constants,
            )
            modes = normal_modes(field_, config, constants)
            shift = math.nan if modes.is_saddle else coupled_spectrum(
                modes, config, res, gradient_map, constants).shift
        except (DomainError, ArithmeticError) as exc:
            shift, flags = math.nan, (f"failed:{type(exc).__name__}",)
        else:
            flags = ()
        rows.append(
            ShiftSweepRow(
                electrode=electrode,
                voltage=float(volt),
                shift=shift,
                mode_frequencies=() if modes is None else tuple(map(float, modes.frequencies)),
                converged=not flags and config.converged and not modes.is_saddle,
                gradient_norm=math.nan if config is None else config.gradient_norm,
                iterations=0 if config is None else config.iterations,
                is_saddle=modes is not None and modes.is_saddle,
                flags=flags,
            )
        )
        prev_positions = None if flags else config.positions
    return rows
