"""Few-electron clusters in an electrostatic trap and their coupled mode spectrum.

A cluster is N electrons on the helium surface sharing one trap, at most
MAX_ELECTRONS.  The total energy is the single-particle trap energy plus
pairwise Coulomb repulsion; its pair terms in energy, gradient and Hessian
are broadcast over one (..., N, N) table of displacements and distances,
for one configuration (N, 2) or a stack of them (..., N, 2).  Each pair
term is defined once, in a private helper that the public totals and the
descent's query share, and the field terms of both come from the field's
one derivative query, ``energy_derivatives``, so they agree bit for bit.

Equilibrium configurations come from a seeded multi-start trust-region
Newton descent (Steihaug truncated conjugate gradients on the analytic
Hessian).  All restarts of one minimisation descend together as one
(R, N, 2) batch, and each restart keeps its own trust radius and stops on
its own.  Each iteration queries the proposals of the live restarts once:
one pair table, one field energy call and one field derivative query give
the energies, gradients and the field's Hessian blocks, and the 2N x 2N
Hessians are assembled only where a step is accepted.  The field's scan
region is the descent's domain; a restart that leaves it, or brings a pair
closer than MIN_SEPARATION, is masked out of the query as infinite energy.
The same descent, of one electron from the best node of a grid scan, finds
the trap minimum (``trap_minimum``) that centers a cold start and the level
solver's window.  In-plane
vibrational modes come from the mass-scaled Hessian, and the observable
resonator pull from a classical coupled-oscillator eigenproblem between the
resonator mode and every cluster mode.  Every function that takes a field
reads e, m_e and eps0 from the field's ``constants``; the coupling
functions, which take no field, and the sweep, which builds its fields,
take them as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .core import CONSTANTS, DomainError, PhysicalConstants, ResonatorParams
from .potential import (CouplingGradientMap, CouplingMapSet, PotentialField, compose,
                        sample_grid)

# Electrons closer than this are a modeling error, not a physical configuration.
MIN_SEPARATION = 1e-9  # m
GRAD_TOL = 1e-28  # J/m
MAX_ITER = 500  # trust-region iterations per restart
ETA = 0.15  # least actual / predicted decrease ratio of an accepted step
# Newton decrease [ulp of the energy] at or below which a point is
# stationary as far as the energy can resolve.
FLOOR_ULPS = 4.0
SCAN_NODES = 31  # trap_minimum: scan nodes per axis
STEP_ZPL = 1e-11  # trap_minimum: shortest final Newton step [zero-point lengths]
# trap_minimum: largest rise of U [ulp of U] at which the final Newton step
# is still taken.  Near the minimum U's rounding noise spans several ulp:
# FLOOR_ULPS there still refused the step on 2 of 40 seeded skewed domes.
STEP_RISE_ULPS = 16.0

# Largest cluster: the 2N x 2N Hessian, like each (N, N, 2, 2) pair array,
# is 8 * 2000^2 bytes = 32 MB.
MAX_ELECTRONS = 1000
# Largest descent batch: a minimize call holds restarts * (2N)^2 * 8 bytes
# of Hessians, the default 8 restarts of MAX_ELECTRONS electrons 256 MB.
# Its peak, with the accepted rows' assembly and the query's pair table, is
# about three times that: 7.5 MB under tracemalloc (2.9 times) for 8
# restarts of 100 electrons, whose Hessians take 2.56 MB.
MAX_BATCH_BYTES = 8 * (2 * MAX_ELECTRONS) ** 2 * 8


# ---------------------------------------------------------------------------
# energy, gradient, Hessian
# ---------------------------------------------------------------------------


def _pair_diffs(positions: np.ndarray):
    """Displacements r_i - r_j, shape (..., N, N, 2), and distances (..., N, N)
    with an inf diagonal, so every pair term vanishes there."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    idx = np.arange(positions.shape[-2])
    dist[..., idx, idx] = np.inf
    return diff, dist


def _check_positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2 or pos.shape[-1] != 2:
        raise DomainError("positions must have shape (N, 2) or (..., N, 2)")
    return pos


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v, the sum np.linalg.norm(v, axis=-1)
    takes, without its argument handling."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _ke2(field_: PotentialField) -> float:
    """k e^2 [J m] of the field's constants, the scale of every pair term."""
    c = field_.constants
    return c.coulomb * c.e**2


@cache
def _upper_pairs(n: int) -> tuple:
    """Index arrays (i, j) of the pairs i < j of n electrons, read-only since
    every caller shares them."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _pair_energy(dist: np.ndarray, ke2: float) -> np.ndarray:
    """Coulomb energy k e^2 sum_{i<j} 1 / r_ij [J] of each configuration of a
    distance table (..., N, N)."""
    # contiguous rows, so each sums in the order a single configuration's does
    iu, ju = _upper_pairs(dist.shape[-1])
    return ke2 * (1.0 / np.ascontiguousarray(dist[..., iu, ju])).sum(axis=-1)


def _pair_force(diff: np.ndarray, dist: np.ndarray, ke2: float) -> np.ndarray:
    """Coulomb force k e^2 sum_j d_ij / r_ij^3 [N] on each electron, shape
    (..., N, 2): minus the pair terms' gradient."""
    return ke2 * (diff / dist[..., None] ** 3).sum(axis=-2)


def _pair_blocks(pos: np.ndarray, ke2: float) -> np.ndarray:
    """The blocks B of every pair, shape (..., N, N, 2, 2), built in place in
    one array so that a Hessian stack peaks near twice the stack it returns."""
    diff, dist = _pair_diffs(pos)
    pair = diff[..., :, None] * diff[..., None, :]
    pair *= 3.0
    pair /= dist[..., None, None] ** 5
    inv_r3 = 1.0 / dist**3  # I / r^3 off the diagonal is 0, which subtracts nothing
    pair[..., 0, 0] -= inv_r3
    pair[..., 1, 1] -= inv_r3
    pair *= ke2
    return pair


def _assemble_hessian(blocks: np.ndarray, pos: np.ndarray, ke2: float) -> np.ndarray:
    """2N x 2N Hessians (..., 2N, 2N) of a stack (..., N, 2) from the field's
    Hessian blocks (..., N, 2, 2) and the pair blocks B."""
    n = pos.shape[-2]
    pair = _pair_blocks(pos, ke2)
    diagonal = blocks + pair.sum(axis=-3)
    hess = np.negative(pair, out=pair)  # (..., N, N, 2, 2)
    idx = np.arange(n)
    hess[..., idx, idx, :, :] = diagonal
    return hess.swapaxes(-3, -2).reshape(*pos.shape[:-2], 2 * n, 2 * n)


def total_energy(field_: PotentialField, positions):
    """Trap plus Coulomb energy of a configuration [J]: a float for positions
    of shape (N, 2), an array of shape (...) for a stack (..., N, 2).  The
    Coulomb constant and charge are the field's ``constants``.

    Raises DomainError when any electron leaves the field domain or any pair
    comes closer than MIN_SEPARATION.
    """
    pos = _check_positions(positions)
    u = field_.energy(pos[..., 0], pos[..., 1]).sum(axis=-1)
    _, dist = _pair_diffs(pos)
    if np.any(dist < MIN_SEPARATION):
        raise DomainError(f"electron pair closer than {MIN_SEPARATION} m")
    energy = u + _pair_energy(dist, _ke2(field_))
    return float(energy) if np.ndim(energy) == 0 else energy


def total_gradient(field_: PotentialField, positions) -> np.ndarray:
    """Gradient of the total energy, shape (..., N, 2) like positions [J/m]."""
    pos = _check_positions(positions)
    return field_.energy_derivatives(pos)[0] - _pair_force(*_pair_diffs(pos), _ke2(field_))


def total_hessian(field_: PotentialField, positions) -> np.ndarray:
    """Analytic 2N x 2N Hessian of the total energy [J/m^2], symmetric; shape
    (..., 2N, 2N) for a stack (..., N, 2).

    Pair (i, j) contributes the block B = k e^2 (3 d d^T / r^5 - I / r^3),
    d = r_i - r_j: -B off the diagonal, and +B to both diagonal blocks.
    """
    pos = _check_positions(positions)
    return _assemble_hessian(field_.energy_derivatives(pos)[1], pos, _ke2(field_))


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
    footprint = int(restarts) * (2 * int(n_electrons)) ** 2 * 8
    if footprint > MAX_BATCH_BYTES:
        raise DomainError(
            f"{restarts} restarts of {n_electrons} electrons need {footprint} bytes "
            f"of Hessians, over the {MAX_BATCH_BYTES}-byte cap"
        )


def _newton_decrease(grad: np.ndarray, hess: np.ndarray) -> float:
    """Energy change |g.H^-1.g| / 2 a full Newton step predicts [J]; inf if H is singular."""
    try:
        return 0.5 * abs(float(grad @ np.linalg.solve(hess, grad)))
    except np.linalg.LinAlgError:
        return math.inf


def _query(field_: PotentialField, positions: np.ndarray):
    """Energy (R,) [J], flat gradient (R, 2N) [J/m] and the field's Hessian
    blocks (R, N, 2, 2) [J/m^2] of each configuration of a stack (R, N, 2).

    One pair table serves the MIN_SEPARATION check and the Coulomb energy and
    gradient, and one ``energy`` and one ``energy_derivatives`` call serve
    the field terms, each over the configurations that pass the checks; the
    sums are total_energy's and total_gradient's.  A configuration with an
    electron outside the field's scan region or a pair closer than
    MIN_SEPARATION is masked out before the field is queried; it, and one
    whose gradient is not finite, gets infinite energy, a zero gradient and
    zero blocks, so it never raises for the others.
    """
    region = field_.scan_region
    ok = ((positions >= region[::2]) & (positions <= region[1::2])).all(axis=(-2, -1))
    if ok.any():
        diff, dist = _pair_diffs(positions[ok])
        apart = dist.min(axis=(-2, -1)) >= MIN_SEPARATION
        if not apart.all():
            ok[ok], diff, dist = apart, diff[apart], dist[apart]
    if not ok.any():
        return _masked(positions)
    pos, ke2 = positions[ok], _ke2(field_)
    g_field, h = field_.energy_derivatives(pos)
    e = field_.energy(pos[..., 0], pos[..., 1]).sum(axis=-1) + _pair_energy(dist, ke2)
    g = (g_field - _pair_force(diff, dist, ke2)).reshape(len(e), -1)
    finite = np.isfinite(g).all(axis=-1)
    if finite.all() and ok.all():
        return e, g, h
    energy, grad, blocks = _masked(positions)
    rows = np.flatnonzero(ok)[finite]
    energy[rows], grad[rows], blocks[rows] = e[finite], g[finite], h[finite]
    return energy, grad, blocks


def _masked(positions: np.ndarray):
    """_query's answer for a stack (R, N, 2) of masked configurations:
    infinite energies, zero gradients and zero Hessian blocks."""
    return (np.full(len(positions), np.inf), np.zeros((len(positions), positions[0].size)),
            np.zeros((*positions.shape, 2)))


def _model(energy, grad, hess, step):
    """Quadratic model E + g.p + p.H.p / 2 of each row at its step [J]."""
    return energy + np.vecdot(grad, step) + 0.5 * np.vecdot(step, np.matvec(hess, step))


def _to_boundary(z, d, radius):
    """Roots t_a <= t_b of |z + t d| = radius per row, in the form that
    avoids cancellation (Golub and Van Loan, Matrix Computations, p. 97)."""
    a = np.vecdot(d, d)
    b = 2.0 * np.vecdot(z, d)
    c = np.vecdot(z, z) - radius**2
    aux = b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b)
    ta, tb = -aux / (2.0 * a), -2.0 * c / aux
    return np.minimum(ta, tb), np.maximum(ta, tb)


def _steihaug(energy, grad, hess, radius):
    """Steihaug truncated-CG step of each row's trust-region subproblem, the
    least model value over |p| <= radius (Nocedal and Wright, Numerical
    Optimization, 2nd ed. 2006, Algorithm 7.2), with scipy trust-ncg's rules.

    A row stops on non-positive curvature (at whichever boundary point along
    d has the lower model value), on a step past its radius (at the boundary
    along d), or when its residual falls below min(0.5, sqrt|g|) |g|.  The
    rows still iterating share each Hessian-vector product; a pass in which
    every row goes on skips the stopping branches and the compaction, with
    the same arithmetic per row.  Returns the steps (R, 2N) and whether each
    ends on the boundary.
    """
    step = np.zeros_like(grad)
    hits = np.zeros(len(grad), dtype=bool)
    gnorm = _row_norms(grad)
    tol = np.minimum(0.5, np.sqrt(gnorm)) * gnorm
    rows = np.arange(len(grad))
    z, r, d = np.zeros_like(grad), grad, -grad
    rr = np.vecdot(r, r)
    while rows.size:
        hd = np.matvec(hess, d)
        dhd = np.vecdot(d, hd)
        curved = dhd > 0
        if curved.all():
            alpha = rr / dhd
        else:
            alpha = np.divide(rr, dhd, out=np.zeros_like(rr), where=curved)
        z_next = z + alpha[:, None] * d
        r_next = r + alpha[:, None] * hd
        rr_next = np.vecdot(r_next, r_next)
        past = _row_norms(z_next) >= radius
        small = np.sqrt(rr_next) < tol
        more = curved & ~past & ~small
        if not more.all():  # some rows stop: write their steps, drop them
            flat = ~curved
            past &= curved
            small &= curved & ~past
            if flat.any():
                zf, df = z[flat], d[flat]
                ta, tb = _to_boundary(zf, df, radius[flat])
                pa, pb = zf + ta[:, None] * df, zf + tb[:, None] * df
                args = energy[flat], grad[flat], hess[flat]
                lower = _model(*args, pa) < _model(*args, pb)
                step[rows[flat]] = np.where(lower[:, None], pa, pb)
            if past.any():
                _, tb = _to_boundary(z[past], d[past], radius[past])
                step[rows[past]] = z[past] + tb[:, None] * d[past]
            step[rows[small]] = z_next[small]
            hits[rows[flat | past]] = True
            rows, tol, radius = rows[more], tol[more], radius[more]
            energy, grad, hess = energy[more], grad[more], hess[more]
            z_next, r_next, rr_next, rr, d = (
                z_next[more], r_next[more], rr_next[more], rr[more], d[more])
        beta = rr_next / rr
        z, r, rr = z_next, r_next, rr_next
        d = -r + beta[:, None] * d
    return step, hits


def _descend(field_: PotentialField, starts: np.ndarray) -> list:
    """Trust-region Newton descent of every start of a stack (R, N, 2) at once.

    Each iteration takes one Steihaug step per live restart; checks and
    queries the proposals once (``_query``: one pair table and one field
    derivative call over them); and assembles the 2N x 2N Hessians of the
    accepted proposals only, from the field blocks the query returned and
    the pair blocks, so no Hessian is built at a rejected proposal and no
    pair table outlives its step.  Each restart keeps its own trust
    radius, span / 2 of the scan region at first, and follows scipy's
    trust-ncg: the actual over predicted energy decrease rho accepts a step
    when above ETA, shrinks the radius x0.25 below 0.25 and doubles it
    above 0.75 on the boundary.  An accepted step stays in the region, so
    the radius stays below twice its diagonal.  A restart stops on its own
    at a gradient norm below GRAD_TOL, after MAX_ITER iterations, or when
    no finite decrease is predicted or its radius falls below the float
    spacing of the region's coordinates.  It is recorded as it stops and
    leaves every state array, so they hold the live restarts only.

    Returns each start's ElectronConfiguration, or None where the start has
    no finite energy.
    """
    region = field_.scan_region
    ke2 = _ke2(field_)
    n = starts.shape[1]
    configs = [None] * len(starts)
    energy, grad, blocks = _query(field_, starts)
    rows = np.flatnonzero(np.isfinite(energy))
    x, energy, grad = starts[rows], energy[rows], grad[rows]
    hess = _assemble_hessian(blocks[rows], x, ke2)
    radius = np.full(rows.size, 0.5 * min(region[1] - region[0], region[3] - region[2]))
    min_radius = np.spacing(max(map(abs, region)))
    iters = np.zeros(rows.size, dtype=int)
    steps = np.zeros(rows.size, dtype=int)

    def retire(stop):
        """Record the restarts where stop is set and drop their rows."""
        nonlocal rows, x, energy, grad, hess, radius, iters, steps
        if not stop.any():
            return
        for k in np.flatnonzero(stop):
            # below GRAD_TOL, or stopped short of MAX_ITER at the energy's floor
            floor = FLOOR_ULPS * np.spacing(abs(energy[k]))
            converged = _row_norms(grad[k]) < GRAD_TOL or (
                iters[k] < MAX_ITER and _newton_decrease(grad[k], hess[k]) <= floor)
            configs[rows[k]] = ElectronConfiguration(
                positions=x[k].copy(), energy=float(energy[k]),
                gradient_norm=float(np.linalg.norm(grad[k])),
                converged=bool(converged), iterations=int(steps[k]),
            )
        keep = ~stop
        rows, x, energy, grad, hess = rows[keep], x[keep], energy[keep], grad[keep], hess[keep]
        radius, iters, steps = radius[keep], iters[keep], steps[keep]

    retire(_row_norms(grad) < GRAD_TOL)
    while rows.size:
        step, hits = _steihaug(energy, grad, hess, radius)
        predicted = energy - _model(energy, grad, hess, step)
        stop = ~(np.isfinite(predicted) & (predicted > 0))
        if stop.any():
            retire(stop)
            if not rows.size:
                break
            step, hits, predicted = step[~stop], hits[~stop], predicted[~stop]
        proposal = x + step.reshape(-1, n, 2)
        e_new, g_new, b_new = _query(field_, proposal)
        rho = (energy - e_new) / predicted
        grow = (rho > 0.75) & hits
        radius = np.where(rho < 0.25, 0.25 * radius, np.where(grow, 2.0 * radius, radius))
        take = rho > ETA
        x[take], energy[take], grad[take] = proposal[take], e_new[take], g_new[take]
        if take.any():
            hess[take] = _assemble_hessian(b_new[take], proposal[take], ke2)
        steps[take] += 1
        iters += 1
        # every step rejected (an energy kink) shrinks the radius until its
        # square underflows; below the resolution of the region it moves nothing
        retire((_row_norms(grad) < GRAD_TOL) | (iters >= MAX_ITER) | (radius < min_radius))
    return configs


def trap_minimum(field_: PotentialField) -> tuple:
    """The trap minimum (x, y) [m] and the energy Hessian there [J/m^2].

    One electron descends (``_descend``, one restart) from the lowest node
    of a SCAN_NODES x SCAN_NODES scan of the scan region; the node is kept
    when the descent has no finite start.  One Newton step H^-1 g, clipped
    to the region, then moves the center onto the minimum as closely as U
    resolves it.  It is taken only where H is positive definite, the step is
    finite and longer than STEP_ZPL zero-point lengths sqrt(hbar / sqrt(m_e
    H_ii)) on some axis, and U rises by at most STEP_RISE_ULPS ulp, its
    rounding noise near the minimum; a center already resolved to that, such
    as the node at a symmetric trap's top, stays put.
    """
    region = field_.scan_region
    xs, ys, u = sample_grid(field_, region, SCAN_NODES)
    iy, ix = np.unravel_index(int(np.argmin(u)), u.shape)
    center, energy = np.array([xs[ix], ys[iy]]), u[iy, ix]
    [found] = _descend(field_, center[None, None])
    if found is not None:
        center, energy = found.positions[0], found.energy
    grad, hess = field_.energy_derivatives(center)
    if hess[0, 0] > 0.0 and hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2 > 0.0:
        c = field_.constants
        step = np.linalg.solve(hess, grad)
        zpl = np.sqrt(c.hbar / np.sqrt(c.m_e * np.diag(hess)))
        if np.isfinite(step).all() and np.any(np.abs(step) > STEP_ZPL * zpl):
            trial = np.clip(center - step, region[::2], region[1::2])
            if field_.energy(*trial) <= energy + STEP_RISE_ULPS * np.spacing(abs(energy)):
                center, hess = trial, field_.energy_derivatives(trial)[1]
    return center, hess


def minimize(
    field_: PotentialField,
    n_electrons: int,
    seed: int = 0,
    restarts: int = 8,
    init: np.ndarray | None = None,
) -> ElectronConfiguration:
    """Find the minimum-energy configuration of n_electrons in the trap.

    Deterministic for a given (field, n_electrons, seed): the descent is
    seeded multi-start (``restarts`` starts, at least 1) around a
    triangular-lattice guess centered on ``trap_minimum`` and
    spaced by the curvature there, or around ``init`` when given.  All
    starts descend as one batch (``_descend``): trust-region Newton with
    Steihaug truncated-CG steps on the analytic gradient and Hessian, each
    restart with its own trust radius and its own stop.  Steps follow
    negative curvature, so a run leaves a saddle unless symmetry pins it
    there.

    The descent's domain is the field's ``scan_region``: a step out of it,
    onto a pair closer than MIN_SEPARATION, or to where the gradient is not
    finite counts as infinite energy and shrinks that restart's radius, and
    a start there is dropped.  For a GriddedField that region is where its
    derivatives are defined; for a QuarticField it bounds the descent to
    +-2 um.  A run has converged when the gradient norm fell below
    GRAD_TOL, or when it stopped because no step could be predicted to lower
    the energy and a full Newton step would lower it by at most FLOOR_ULPS
    units in the last place of the energy: the point is stationary as far
    as the energy can resolve.  MAX_ITER iterations, or a stop short of that
    floor, is not converged.  The best run wins by convergence then energy,
    the earlier start on a tie.
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
        if base.shape != (n_electrons, 2):
            raise DomainError(f"init must have shape ({n_electrons}, 2), got {base.shape}")
    else:
        center, hess = trap_minimum(field_)
        curv = abs(float(np.trace(hess))) / 2.0 or 1e-12
        spacing = (_ke2(field_) / curv) ** (1.0 / 3.0)
        spacing = float(np.clip(spacing, span / 50.0, span / 4.0))
        base = _triangular_lattice(center, spacing, n_electrons)
    lo, hi = region[::2], region[1::2]
    base = np.clip(base, lo, hi)
    rng = np.random.default_rng(seed)
    scale = 0.25 * (span / 10.0 if n_electrons == 1 else
                    float(np.ptp(base, axis=0).max()) or span / 10.0)
    jitter = rng.normal(0.0, scale, size=(restarts - 1, *base.shape))
    starts = np.concatenate([base[None], np.clip(base + jitter, lo, hi)])
    found = [c for c in _descend(field_, starts) if c is not None]
    if not found:
        raise DomainError("no finite-energy configuration found; check the trap region")
    return max(found, key=lambda c: (c.converged, -c.energy))  # the first on a tie


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


def normal_modes(field_: PotentialField, config: ElectronConfiguration) -> NormalModes:
    """Diagonalize the Hessian at an equilibrium: omega_k = sqrt(lambda_k / m_e),
    with m_e from the field's ``constants``.

    A configuration with a negative Hessian eigenvalue is a saddle; its
    unstable modes get frequency 0.
    """
    n = config.positions.shape[0]
    if n == 0:
        return NormalModes(np.zeros(0), np.zeros((0, 0)), False)
    hess = total_hessian(field_, config.positions)
    evals, evecs = np.linalg.eigh(hess)
    tol = 1e-10 * max(float(np.abs(evals).max()), 1e-300)
    unstable = evals < -tol
    freqs = np.sqrt(np.clip(evals, 0.0, None) / field_.constants.m_e)
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
    onto the y components of mode k's eigenvector.  Electron i at r_i couples
    at g_i = e / sqrt(m_e C_r) (d alpha-/dy)(r_i) [rad/s]: the local
    differential lever-arm derivative [1/m] times ``analytic.coupling_g``'s
    e l_y V_zpf / hbar at a 1 m coupling length, in which hbar cancels.
    With zero couplings the spectrum reduces exactly to (omega_r, omega_k).
    """
    if modes.is_saddle:
        raise DomainError("coupled spectrum undefined at a saddle configuration")
    omega_r = res.omega_r
    if modes.frequencies.size == 0:
        return CoupledModes(
            frequencies=np.array([omega_r]), participations=np.array([1.0]),
            shift=0.0, mode_couplings=np.zeros(0),
        )
    c = constants
    g_i = c.e / math.sqrt(c.m_e * res.c_r) * gradient_map.value_at(*config.positions.T)
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
            config = minimize(field_, n_electrons, seed=seed, init=prev_positions,
                              restarts=restarts if prev_positions is None else 1)
            modes = normal_modes(field_, config)
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
