"""Deterministic nonlinear least squares for spectroscopy traces.

A small damped Gauss-Newton engine (Levenberg-Marquardt damping on the
normal equations) drives every fit in the package.  Complex-valued models
are fit by stacking real and imaginary residuals.  Bounds are enforced by
smooth reparameterization (log for positive rates, scaled logit for
intervals), never by clipping, so the engine always works on an
unconstrained vector.  No randomness anywhere: identical inputs give
bit-identical results.

Parameter uncertainties come from the Jacobian at the optimum,
cov = s^2 (J^T J)^-1 with s^2 the reduced residual variance; sigmas are NaN
only when that matrix is singular, and the result is flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.signal

from .core import DomainError, FitError, ResonatorParams, TWO_PI
from .cavity import CrosstalkParams, SpectrumTrace, TwoLevelElectron, s21_resonant

_FD_REL = 1e-6
_FTOL = 1e-10
_GTOL = 1e-12


# ---------------------------------------------------------------------------
# bounded-parameter transforms
# ---------------------------------------------------------------------------


class _Transform:
    """Map between an external (possibly bounded) parameter and the engine's
    unconstrained internal coordinate."""

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        if math.isinf(lo) and math.isinf(hi):
            self.kind = "identity"
        elif lo == 0.0 and math.isinf(hi):
            self.kind = "log"
        elif math.isfinite(lo) and math.isfinite(hi) and hi > lo:
            self.kind = "logit"
        else:
            raise DomainError(f"unsupported bounds ({lo}, {hi})")

    def to_internal(self, value: float) -> float:
        if self.kind == "identity":
            return value
        if self.kind == "log":
            if value <= 0:
                raise DomainError(f"initial value {value} violates positivity bound")
            return math.log(value)
        if not self.lo < value < self.hi:
            raise DomainError(f"initial value {value} outside ({self.lo}, {self.hi})")
        return math.log((value - self.lo) / (self.hi - value))

    def to_external(self, internal: float) -> float:
        if self.kind == "identity":
            return internal
        # saturate so a wild trial step yields a huge-but-finite value the
        # engine can reject, instead of an OverflowError
        z = min(max(internal, -700.0), 700.0)
        if self.kind == "log":
            return math.exp(z)
        return self.lo + (self.hi - self.lo) / (1.0 + math.exp(-z))

    def dext_dint(self, internal: float) -> float:
        if self.kind == "identity":
            return 1.0
        z = min(max(internal, -700.0), 700.0)
        if self.kind == "log":
            return math.exp(z)
        value = self.to_external(internal)
        return (value - self.lo) * (self.hi - value) / (self.hi - self.lo)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FitResult:
    """Converged (or not) fit outcome.

    params/sigmas are keyed by parameter name in the recipe's units
    (angular rad/s for every frequency-like quantity).  rss is the sum of
    squared residuals in data units; iterations counts accepted steps.
    """

    params: dict
    sigmas: dict
    rss: float
    iterations: int
    converged: bool
    flags: dict = field(default_factory=dict)
    covariance: np.ndarray | None = None


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def least_squares(
    model: Callable,
    xdata: np.ndarray,
    ydata: np.ndarray,
    init: Mapping[str, float],
    bounds: Mapping[str, tuple] | None = None,
    max_iter: int = 200,
) -> FitResult:
    """Fit ``model(x, **params)`` to data by damped Gauss-Newton.

    ydata may be complex; residuals are then the stacked real and imaginary
    parts.  ``bounds`` maps parameter names to (lo, hi): (0, inf) gives a
    log transform, finite intervals a scaled logit, omitted names are
    unbounded.  Raises FitError when there are fewer residuals than free
    parameters, the model is not finite at the start, or the normal
    equations stay singular.
    """
    names = list(init)
    bounds = dict(bounds or {})
    transforms = [_Transform(*bounds.get(n, (-math.inf, math.inf))) for n in names]
    xdata = np.asarray(xdata)
    ydata = np.asarray(ydata)
    complex_data = np.iscomplexobj(ydata)
    if ydata.size * (2 if complex_data else 1) < len(names):
        raise FitError(f"{ydata.size} data points cannot fix {len(names)} free parameters")

    def residuals(internal: np.ndarray) -> np.ndarray:
        params = {
            n: tr.to_external(v) for n, tr, v in zip(names, transforms, internal)
        }
        r = np.asarray(model(xdata, **params)) - ydata
        if complex_data:
            return np.concatenate([r.real, r.imag])
        return np.asarray(r, dtype=float)

    def jacobian(internal: np.ndarray) -> np.ndarray:
        cols = []
        for i in range(internal.size):
            h = _FD_REL * max(1.0, abs(internal[i]))
            up = internal.copy()
            dn = internal.copy()
            up[i] += h
            dn[i] -= h
            cols.append((residuals(up) - residuals(dn)) / (2.0 * h))
        return np.column_stack(cols)

    theta = np.array([tr.to_internal(float(init[n])) for n, tr in zip(names, transforms)])
    r = residuals(theta)
    if not np.all(np.isfinite(r)):
        raise FitError("model not finite at the initial point")
    rss = float(r @ r)
    rss_scale = max(rss, float(np.abs(ydata).max()) ** 2, 1e-300)
    lam = 0.0
    iterations = 0
    converged = False
    flags: dict = {}

    for _ in range(max_iter):
        jac = jacobian(theta)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        if float(np.max(np.abs(jtr), initial=0.0)) < _GTOL * math.sqrt(rss_scale):
            converged = True
            break
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(initial=0.0), 1.0) * 1e-12
        accepted = False
        for _attempt in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam = 1e-4 if lam == 0.0 else lam * 10.0
                if lam > 1e12:
                    raise FitError("normal equations remained singular") from None
                continue
            trial = theta + step
            try:
                r_new = residuals(trial)
            except DomainError:
                r_new = np.array([math.inf])
            if np.all(np.isfinite(r_new)):
                rss_new = float(r_new @ r_new)
                if rss_new <= rss:
                    theta, r = trial, r_new
                    drop = rss - rss_new
                    rss = rss_new
                    iterations += 1
                    lam = 0.0 if lam < 1e-14 else lam / 3.0
                    accepted = True
                    if drop <= _FTOL * max(rss, 1e-300) or rss == 0.0:
                        converged = True
                    break
            lam = 1e-4 if lam == 0.0 else lam * 10.0
            if lam > 1e12:
                break
        if not accepted:
            # no downhill step found: treat the current point as the optimum
            converged = True
            flags["stalled"] = True
            break
        if converged:
            break
    else:
        flags["max_iter"] = True

    # covariance in internal coordinates, chain rule back to external
    jac = jacobian(theta)
    jtj = jac.T @ jac
    dof = jac.shape[0] - jac.shape[1]
    params = {n: tr.to_external(v) for n, tr, v in zip(names, transforms, theta)}
    scale_ext = np.array([tr.dext_dint(v) for tr, v in zip(transforms, theta)])
    sigmas = {n: math.nan for n in names}
    covariance = None
    if dof > 0:
        s2 = rss / dof
        # normalize columns before conditioning: raw parameter scales span
        # many decades (rad/s next to phases) without implying degeneracy
        d = np.sqrt(np.diag(jtj).copy())
        d[~(d > 0)] = 1.0
        jtj_s = jtj / np.outer(d, d)
        cond_ok = np.all(np.isfinite(jtj_s)) and np.linalg.cond(jtj_s) < 1e12
        if cond_ok:
            cov_int = s2 * np.linalg.inv(jtj_s) / np.outer(d, d)
            covariance = cov_int * np.outer(scale_ext, scale_ext)
            sigmas = {
                n: float(math.sqrt(max(covariance[i, i], 0.0)))
                for i, n in enumerate(names)
            }
        else:
            flags["singular_covariance"] = True
    else:
        flags["underdetermined"] = True

    return FitResult(
        params=params,
        sigmas=sigmas,
        rss=rss,
        iterations=iterations,
        converged=converged,
        flags=flags,
        covariance=covariance,
    )


# ---------------------------------------------------------------------------
# peak picking
# ---------------------------------------------------------------------------


def find_peaks(
    x: np.ndarray,
    y: np.ndarray,
    min_prominence: float,
    smooth_width: int = 0,
) -> list:
    """Local maxima of y(x) with at least the given prominence.

    Optional boxcar smoothing before picking; each peak location is refined
    by a parabola through the three samples around the maximum.  Returns a
    list of (x_peak, height) sorted by x.
    """
    x = np.asarray(x, dtype=float)
    y_raw = np.asarray(y, dtype=float)
    if min_prominence <= 0:
        raise DomainError("min_prominence must be positive")
    y_s = y_raw
    if smooth_width > 1:
        kernel = np.ones(smooth_width) / smooth_width
        y_s = np.convolve(y_raw, kernel, mode="same")
    idx, _props = scipy.signal.find_peaks(y_s, prominence=min_prominence)
    peaks = []
    for i in idx:
        if 0 < i < x.size - 1:
            y0, y1, y2 = y_s[i - 1], y_s[i], y_s[i + 1]
            denom = y0 - 2 * y1 + y2
            shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
            shift = float(np.clip(shift, -1.0, 1.0))
            dx = 0.5 * (x[i + 1] - x[i - 1])
            x_pk = x[i] + shift * dx
            h = y1 - 0.25 * (y0 - y2) * shift
            peaks.append((float(x_pk), float(h)))
        else:
            peaks.append((float(x[i]), float(y_s[i])))
    return sorted(peaks)


# ---------------------------------------------------------------------------
# recipe helpers
# ---------------------------------------------------------------------------


def _estimate_peak_and_width(probe: np.ndarray, mag: np.ndarray) -> tuple:
    """Crude peak center and full width of |S21|^2 at half its peak height."""
    power = mag**2
    i_pk = int(np.argmax(power))
    half = 0.5 * (power[i_pk] + float(np.median(power)))
    above = power >= half
    lo = i_pk
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = i_pk
    while hi < probe.size - 1 and above[hi + 1]:
        hi += 1
    width = probe[hi] - probe[lo]
    if width <= 0:
        width = (probe[-1] - probe[0]) / 10.0
    return float(probe[i_pk]), float(width)


def bare_model(x, omega_r, kappa_tot, amp, t, zeta):
    """Bare-resonator fit model: the resonant Lorentzian plus the crosstalk
    leak -i sqrt(t) e^(i zeta), over probe frequencies x [rad/s]."""
    leak = -1j * np.sqrt(t) * np.exp(1j * zeta)
    return amp / (kappa_tot / 2.0 + 1j * (omega_r - x)) + leak


def resonator_from_bare_fit(
    fit: FitResult, impedance: float = 3828.0
) -> tuple[ResonatorParams, CrosstalkParams]:
    """Physical parameter records from a bare fit.

    Symmetric ports kappa_1 = kappa_2 = amp reproduce the fitted amplitude
    exactly when amp <= kappa_tot/2 (the rest is internal loss).  A noisy
    fit can land slightly beyond that bound; then the ports are set to
    kappa_tot/2 (amplitude error at the noise level) and the result is
    flagged.
    """
    omega_r = fit.params["omega_r"]
    kappa_tot = fit.params["kappa_tot"]
    amp = fit.params["amp"]
    if amp <= kappa_tot / 2.0:
        k12 = amp
        k_int = kappa_tot - 2.0 * amp
    else:
        k12 = kappa_tot / 2.0
        k_int = 0.0
        fit.flags["overcoupled_amplitude"] = True
    res = ResonatorParams.from_mode(
        omega_r, impedance, kappa_1=k12, kappa_2=k12, kappa_int=k_int
    )
    ct = CrosstalkParams(t=fit.params["t"], zeta=fit.params["zeta"])
    return res, ct


# ---------------------------------------------------------------------------
# fit recipes
# ---------------------------------------------------------------------------


def fit_bare_resonator(
    trace: SpectrumTrace,
    init: Mapping[str, float] | None = None,
    window_kappa_mult: float = 2.0,
) -> FitResult:
    """Fit a far-detuned trace to the bare resonator plus crosstalk leakage.

    Parameters: omega_r, kappa_tot, amp = sqrt(kappa_1 kappa_2) (all rad/s),
    crosstalk power t and phase zeta.  The fit is restricted to probe points
    within window_kappa_mult * kappa_tot of the peak (kappa from a width
    estimate, or from ``init``); leakage initials come from the off-peak
    samples of the full trace.
    """
    probe = trace.probe
    mag = np.abs(trace.s21)
    peak, width = _estimate_peak_and_width(probe, mag)
    defaults = {
        "omega_r": peak,
        "kappa_tot": width,
        "amp": float(mag.max()) * width / 2.0,
    }
    far = np.abs(probe - peak) > 3.0 * width
    if np.any(far):
        leak_mean = complex(np.mean(trace.s21[far]))
        defaults["t"] = float(min(max(abs(leak_mean) ** 2, 1e-8), 0.5))
        defaults["zeta"] = float(np.angle(1j * leak_mean))
    else:
        defaults["t"] = 1e-4
        defaults["zeta"] = 0.0
    start = {**defaults, **dict(init or {})}

    window = np.abs(probe - start["omega_r"]) <= window_kappa_mult * start["kappa_tot"]
    if window.sum() < 10:
        raise FitError("fewer than 10 samples inside the fit window")
    bounds = {
        "kappa_tot": (0.0, math.inf),
        "amp": (0.0, math.inf),
        "t": (1e-12, 1.0),
    }
    order = ["omega_r", "kappa_tot", "amp", "t", "zeta"]
    fit = least_squares(
        bare_model, probe[window], trace.s21[window],
        init={k: start[k] for k in order}, bounds=bounds,
    )
    fit.flags["window_points"] = int(window.sum())
    return fit


def fit_rabi(
    trace: SpectrumTrace,
    res: ResonatorParams,
    init: Mapping[str, float] | None = None,
) -> FitResult:
    """Fit a compensated resonant trace to the electron-dressed transmission.

    Free parameters: coupling g, electron linewidth gamma_2, electron
    frequency omega_e (all rad/s); the resonator is held fixed.  Initials:
    g from half the separation of the two strongest |S21| peaks (falling
    back to kappa_tot when the doublet is unresolved), gamma_2 = 2 kappa_tot.
    """
    probe = trace.probe
    mag = np.abs(trace.s21)
    span = float(mag.max() - mag.min())
    peaks = find_peaks(probe, mag, min_prominence=0.1 * span) if span > 0 else []
    omega_r = res.omega_r
    if len(peaks) >= 2:
        top = sorted(peaks, key=lambda p: p[1], reverse=True)[:2]
        (f1, _), (f2, _) = sorted(top)
        g0 = abs(f2 - f1) / 2.0
        omega_e0 = f1 + f2 - omega_r
    else:
        g0 = res.kappa_tot
        omega_e0 = omega_r
    defaults = {"g": max(g0, res.kappa_tot / 10.0), "gamma_2": 2.0 * res.kappa_tot,
                "omega_e": omega_e0}
    start = {**defaults, **dict(init or {})}

    def model(x, g, gamma_2, omega_e):
        el = TwoLevelElectron(omega_e=omega_e, gamma_2=gamma_2)
        return s21_resonant(res, el, g, x)

    bounds = {"g": (0.0, math.inf), "gamma_2": (0.0, math.inf),
              "omega_e": (0.0, math.inf)}
    return least_squares(model, probe, trace.s21, init=start, bounds=bounds)


def fit_lorentzian_dip(
    drive: np.ndarray,
    response: np.ndarray,
    init: Mapping[str, float] | None = None,
) -> FitResult:
    """Fit a real-valued two-tone dip to a Lorentzian.

    Parameters: omega_e center, gamma half-width at half-depth (rad/s),
    depth, offset.
    """
    drive = np.asarray(drive, dtype=float)
    response = np.asarray(response, dtype=float)
    if drive.shape != response.shape:
        raise DomainError("drive and response lengths differ")
    if drive.size < 4:
        raise FitError(f"{drive.size} points cannot fix the 4 dip parameters")
    offset0 = float(np.percentile(response, 90))
    i_min = int(np.argmin(response))
    depth0 = max(offset0 - float(response[i_min]), 1e-12)
    below = response < offset0 - depth0 / 2.0
    n_below = int(np.count_nonzero(below))
    dstep = float(np.mean(np.diff(drive)))
    gamma0 = max(n_below * dstep / 2.0, dstep)
    defaults = {"omega_e": float(drive[i_min]), "gamma": gamma0,
                "depth": depth0, "offset": offset0}
    start = {**defaults, **dict(init or {})}

    def model(x, omega_e, gamma, depth, offset):
        return offset - depth * gamma**2 / ((x - omega_e) ** 2 + gamma**2)

    bounds = {"gamma": (0.0, math.inf), "depth": (0.0, math.inf)}
    return least_squares(model, drive, response, init=start, bounds=bounds)
