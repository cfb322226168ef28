"""Deterministic nonlinear least squares for spectroscopy traces.

Every fit in the package is one call of MINPACK's Levenberg-Marquardt
(Moré 1978), ``lmder``, through ``scipy.optimize.leastsq``.  Complex-valued
models are fit by stacking real and imaginary residuals.  Bounds are
enforced by smooth reparameterization (log for positive rates, scaled logit
for intervals), never by clipping, so MINPACK always works on an
unconstrained vector.  Identical inputs give bit-identical results.

Every fit hands MINPACK the closed-form Jacobian of its model
(:func:`bare_jacobian`, :func:`rabi_jacobian`, :func:`dip_jacobian`), so
no fit takes finite differences.

Parameter uncertainties come from the Jacobian at the optimum,
cov = s^2 (J^T J)^-1 with s^2 the reduced residual variance; sigmas are NaN
only when that matrix is singular, and the result is flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import DomainError, FitError, ResonatorParams, default_resonator
from .cavity import (
    CrosstalkParams,
    SpectrumTrace,
    TwoLevelElectron,
    crosstalk_leak,
    lorentzian,
    lorentzian_dip,
    s21_resonant,
)

# Half-width of the window of every bare fit about the peak, in estimated kappa_tot.
WINDOW_KAPPAS = 2.0

# ---------------------------------------------------------------------------
# bounded-parameter transforms
# ---------------------------------------------------------------------------


class _Transform:
    """Map between an external (possibly bounded) parameter and the engine's
    unconstrained internal coordinate."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi
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
        value = self.to_external(internal)
        if self.kind == "log":
            return value
        return (value - self.lo) * (self.hi - value) / (self.hi - self.lo)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FitResult:
    """Converged (or not) fit outcome.

    params/sigmas are keyed by parameter name in the recipe's units
    (angular rad/s for every frequency-like quantity).  rss is the sum of
    squared residuals in data units; iterations is MINPACK's count of
    residual evaluations, which counts no Jacobian.  converged is MINPACK's
    verdict (info 1-4).  flags: max_iter (evaluation budget spent, info 5),
    singular_covariance, underdetermined, plus recipe-specific entries.
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


def _last_call(fn: Callable) -> Callable:
    """``fn`` of an internal vector with a one-entry memo of its last
    argument, so evaluations at the same point cost one call."""
    key, value = None, None

    def call(internal: np.ndarray):
        nonlocal key, value
        k = internal.tobytes()  # a copy: MINPACK may pass a view of its own buffer
        if k != key:
            key, value = k, fn(internal)
        return value

    return call


def least_squares(
    model: Callable,
    xdata: np.ndarray,
    ydata: np.ndarray,
    init: Mapping[str, float],
    bounds: Mapping[str, tuple] | None = None,
    *,
    jac: Callable,
) -> FitResult:
    """Fit ``model(x, **params)`` to data by MINPACK's Levenberg-Marquardt.

    ydata may be complex; residuals are then the stacked real and imaginary
    parts.  ``bounds`` maps parameter names to (lo, hi): (0, inf) gives a
    log transform, finite intervals a scaled logit, omitted names are
    unbounded.  ``jac(x, **params)`` returns the model's derivative in
    each external parameter as a mapping from name to a column (or a scalar
    for a column constant in x); each column is chained through the
    parameter's transform.  The start is evaluated once: its residuals,
    checked for finiteness here, serve leastsq's shape check and MINPACK's
    first call, and likewise its Jacobian.
    Raises FitError when there are fewer residuals than free parameters or
    the model is not finite at the start.
    """
    names = list(init)
    transforms = [_Transform(*(bounds or {}).get(n, (-math.inf, math.inf))) for n in names]
    xdata = np.asarray(xdata)
    ydata = np.asarray(ydata)
    complex_data = np.iscomplexobj(ydata)
    n_res = ydata.size * (2 if complex_data else 1)
    if n_res < len(names):
        raise FitError(f"{ydata.size} data points cannot fix {len(names)} free parameters")

    def external(internal: np.ndarray) -> dict:
        return {n: tr.to_external(v) for n, tr, v in zip(names, transforms, internal)}

    def residuals(internal: np.ndarray) -> np.ndarray:
        try:
            r = np.asarray(model(xdata, **external(internal))) - ydata
        except DomainError:
            # a trial step outside the model's domain: MINPACK rejects it
            return np.full(n_res, math.inf)
        return np.concatenate([r.real, r.imag]) if complex_data else r.astype(float)

    def jacobian(internal: np.ndarray) -> np.ndarray:
        columns = jac(xdata, **external(internal))
        out = np.empty((ydata.size, len(names)), complex if complex_data else float)
        for k, (n, tr, v) in enumerate(zip(names, transforms, internal)):
            out[:, k] = columns[n]
            out[:, k] *= tr.dext_dint(v)
        return np.concatenate([out.real, out.imag]) if complex_data else out

    fun, dfun = _last_call(residuals), _last_call(jacobian)
    theta0 = np.array([tr.to_internal(float(init[n])) for n, tr in zip(names, transforms)])
    if not np.isfinite(fun(theta0)).all():
        raise FitError("model not finite at the initial point")
    import scipy.optimize  # late import: only `compensate` and `fit` run least squares

    # lmder with the settings of least_squares(method="lm", x_scale="jac"),
    # whose fits the package's outputs were pinned on
    x, _, out, _, info = scipy.optimize.leastsq(
        fun, theta0, Dfun=dfun, full_output=True, ftol=1e-10, xtol=1e-10, gtol=1e-12,
        maxfev=100 * len(names), factor=100,
    )
    rss = float(out["fvec"] @ out["fvec"])
    flags: dict = {"max_iter": True} if info == 5 else {}

    # covariance in internal coordinates, chain rule back to external; columns
    # are normalized before conditioning because raw parameter scales span
    # many decades (rad/s next to phases) without implying degeneracy
    j = dfun(x)
    dof = j.shape[0] - j.shape[1]
    d = np.linalg.norm(j, axis=0)
    d[~(d > 0)] = 1.0
    jtj_s = (j / d).T @ (j / d)
    scale = np.array([tr.dext_dint(v) for tr, v in zip(transforms, x)]) / d
    covariance = None
    if dof <= 0:
        flags["underdetermined"] = True
    elif np.all(np.isfinite(jtj_s)) and np.linalg.cond(jtj_s) < 1e12:
        covariance = rss / dof * np.linalg.inv(jtj_s) * np.outer(scale, scale)
    else:
        flags["singular_covariance"] = True
    sigmas = {n: math.nan for n in names}
    if covariance is not None:
        sigmas = {n: math.sqrt(max(float(c), 0.0)) for n, c in zip(names, np.diag(covariance))}

    return FitResult(
        params=external(x),
        sigmas=sigmas,
        rss=rss,
        iterations=int(out["nfev"]),
        converged=1 <= info <= 4,
        flags=flags,
        covariance=covariance,
    )


# ---------------------------------------------------------------------------
# recipe helpers
# ---------------------------------------------------------------------------


def _estimate_peak_and_width(probe: np.ndarray, mag: np.ndarray) -> tuple:
    """Crude peak center and full width of |S21|^2 at half its peak height."""
    power = mag**2
    i_pk = int(np.argmax(power))
    half = 0.5 * (power[i_pk] + float(np.median(power)))
    below = np.flatnonzero(power < half)
    lo = below[below < i_pk].max(initial=-1) + 1
    hi = below[below > i_pk].min(initial=probe.size) - 1
    width = probe[hi] - probe[lo]
    if width <= 0:
        width = (probe[-1] - probe[0]) / 10.0
    return float(probe[i_pk]), float(width)


# The parameters of bare_model, in the order a bare fit reports them.
BARE_PARAMS = ("omega_r", "kappa_tot", "amp", "t", "zeta")
CLAMP_ULPS = 64  # noiseless fits of lossless ports land within 16 ulp of kappa_tot/2


def bare_model(x, omega_r, kappa_tot, amp, t, zeta):
    """Bare-resonator fit model: the resonant Lorentzian plus the crosstalk
    leak -i sqrt(t) e^(i zeta), over probe frequencies x [rad/s]."""
    return lorentzian(x, omega_r, kappa_tot, amp) + crosstalk_leak(t, zeta)


def bare_jacobian(x, omega_r, kappa_tot, amp, t, zeta) -> dict:
    """Closed-form derivatives of :func:`bare_model`, keyed by parameter.

    With D = kappa_tot/2 + i (omega_r - x) and L the leak: d/d omega_r =
    -i amp/D^2, d/d kappa_tot = -amp/(2 D^2), d/d amp = 1/D, d/dt = L/(2t),
    d/d zeta = i L; the leak columns are scalars.  1/D is squared rather
    than D, so a huge trial D underflows instead of overflowing.
    """
    inv = 1.0 / (kappa_tot / 2.0 + 1j * (omega_r - np.asarray(x)))
    inv2 = inv * inv
    leak = crosstalk_leak(t, zeta)
    return {"omega_r": -1j * amp * inv2, "kappa_tot": -0.5 * amp * inv2, "amp": inv,
            "t": leak / (2.0 * t), "zeta": 1j * leak}


def dip_jacobian(x, omega_e, gamma, depth, offset) -> dict:
    """Closed-form derivatives of :func:`cavity.lorentzian_dip`, keyed by
    parameter.

    With u = x - omega_e, v = 1/(u^2 + gamma^2) and the line shape
    L = gamma^2 v: d/d omega_e = -2 depth L u v, d/d gamma = -2 depth gamma
    u^2 v^2, d/d depth = -L, d/d offset = 1 (a scalar).  The squares are
    taken as L v and (u^2 v) v, products with the factors L and u^2 v of at
    most 1, so the columns overflow nowhere the model does not.
    """
    u = np.asarray(x) - omega_e
    inv = 1.0 / (u * u + gamma**2)
    line = gamma**2 * inv
    return {"omega_e": -2.0 * depth * line * u * inv,
            "gamma": -2.0 * depth * gamma * (u * u * inv) * inv,
            "depth": -line, "offset": 1.0}


def rabi_jacobian(res: ResonatorParams, x, g, gamma_2, omega_e) -> dict:
    """Closed-form derivatives of the doublet model ``s21_resonant(res,
    TwoLevelElectron(omega_e, gamma_2), g, x)`` in g, gamma_2 and omega_e.

    With D = kappa_tot/2 + i (omega_r - x), P = omega_e - x - i gamma_2 and
    q = 1/(D - i g^2/P), the model is amp q and d/dg = 2i amp g q^2/P,
    d/d gamma_2 = -amp g^2 q^2/P^2, d/d omega_e = -i amp g^2 q^2/P^2.  Like
    :func:`bare_jacobian` it squares a reciprocal: w = g q/P, which is
    g/(P D - i g^2) and so bounded where P is tiny, then w^2, so the columns
    overflow nowhere the model does not.
    """
    x = np.asarray(x, dtype=float)
    amp = math.sqrt(res.kappa_1 * res.kappa_2)
    p = omega_e - x - 1j * gamma_2
    q = 1.0 / (res.kappa_tot / 2.0 + 1j * (res.omega_r - x) - 1j * (g**2 / p))
    w = g * q / p
    w2 = amp * w * w
    return {"g": 2j * amp * q * w, "gamma_2": -w2, "omega_e": -1j * w2}


def resonator_from_bare_params(
    params: Mapping[str, float],
) -> tuple[ResonatorParams, CrosstalkParams]:
    """Physical parameter records from bare-fit parameters, at the device
    impedance.

    Symmetric ports kappa_1 = kappa_2 = amp reproduce the fitted amplitude
    exactly when amp <= kappa_tot/2 (the rest is internal loss).  A noisy
    fit can land slightly beyond that bound; then the ports are set to
    kappa_tot/2, an amplitude error at the noise level.
    """
    kappa_tot, amp = params["kappa_tot"], params["amp"]
    k12 = min(amp, kappa_tot / 2.0)
    res = ResonatorParams.from_mode(
        params["omega_r"], default_resonator().impedance, kappa_1=k12, kappa_2=k12,
        kappa_int=kappa_tot - 2.0 * k12,
    )
    return res, CrosstalkParams(t=params["t"], zeta=params["zeta"])


def overcoupled(params: Mapping[str, float]) -> bool:
    """Whether :func:`resonator_from_bare_params` clamps these ports to
    kappa_tot/2 by more than CLAMP_ULPS ulp, the rounding of a noiseless fit."""
    half = params["kappa_tot"] / 2.0
    return params["amp"] > half + CLAMP_ULPS * np.spacing(abs(half))


def resonator_from_bare_fit(fit: FitResult) -> tuple[ResonatorParams, CrosstalkParams]:
    """:func:`resonator_from_bare_params` of a bare fit, flagging the fit
    ``overcoupled_amplitude`` when its ports had to be set to kappa_tot/2."""
    if overcoupled(fit.params):
        fit.flags["overcoupled_amplitude"] = True
    return resonator_from_bare_params(fit.params)


# ---------------------------------------------------------------------------
# fit recipes
# ---------------------------------------------------------------------------


def fit_bare_resonator(trace: SpectrumTrace) -> FitResult:
    """Fit a far-detuned trace to the bare resonator plus crosstalk leakage.

    Parameters: omega_r, kappa_tot, amp = sqrt(kappa_1 kappa_2) (all rad/s),
    crosstalk power t and phase zeta.  The fit is restricted to probe points
    within WINDOW_KAPPAS * kappa_tot of the peak (kappa from a width
    estimate); leakage initials come from the off-peak samples of the full
    trace.
    """
    probe = trace.probe
    mag = np.abs(trace.s21)
    peak, width = _estimate_peak_and_width(probe, mag)
    start = {
        "omega_r": peak,
        "kappa_tot": width,
        "amp": float(mag.max()) * width / 2.0,
    }
    far = np.abs(probe - peak) > 3.0 * width
    if np.any(far):
        leak_mean = complex(np.mean(trace.s21[far]))
        start["t"] = float(min(max(abs(leak_mean) ** 2, 1e-8), 0.5))
        start["zeta"] = float(np.angle(1j * leak_mean))
    else:
        start["t"] = 1e-4
        start["zeta"] = 0.0

    window = np.abs(probe - start["omega_r"]) <= WINDOW_KAPPAS * start["kappa_tot"]
    if window.sum() < 10:
        raise FitError("fewer than 10 samples inside the fit window")
    bounds = {
        "kappa_tot": (0.0, math.inf),
        "amp": (0.0, math.inf),
        "t": (1e-12, 1.0),
    }
    fit = least_squares(
        bare_model, probe[window], trace.s21[window],
        init={k: start[k] for k in BARE_PARAMS}, bounds=bounds, jac=bare_jacobian,
    )
    fit.flags["window_points"] = int(window.sum())
    return fit


def fit_rabi(trace: SpectrumTrace, res: ResonatorParams) -> FitResult:
    """Fit a compensated resonant trace to the electron-dressed transmission.

    Free parameters: coupling g, electron linewidth gamma_2, electron
    frequency omega_e (all rad/s); the resonator is held fixed.  Initials:
    g is the distance of the largest |S21| from omega_r, at least kappa_tot
    (a resolved doublet peaks near omega_r +- g), gamma_2 = 2 kappa_tot and
    omega_e = omega_r.  A fitted omega_e outside the probe span, which the
    trace cannot pin, is flagged ``omega_e_outside_span``.
    """
    probe = trace.probe
    f_max = probe[np.argmax(np.abs(trace.s21))]
    start = {"g": max(abs(f_max - res.omega_r), res.kappa_tot),
             "gamma_2": 2.0 * res.kappa_tot, "omega_e": res.omega_r}

    def model(x, g, gamma_2, omega_e):
        el = TwoLevelElectron(omega_e=omega_e, gamma_2=gamma_2)
        return s21_resonant(res, el, g, x)

    def jac(x, g, gamma_2, omega_e):
        return rabi_jacobian(res, x, g, gamma_2, omega_e)

    bounds = {"g": (0.0, math.inf), "gamma_2": (0.0, math.inf),
              "omega_e": (0.0, math.inf)}
    fit = least_squares(model, probe, trace.s21, init=start, bounds=bounds, jac=jac)
    if not probe[0] <= fit.params["omega_e"] <= probe[-1]:  # the probe axis rises
        fit.flags["omega_e_outside_span"] = True
    return fit


def fit_lorentzian_dip(drive: np.ndarray, response: np.ndarray) -> FitResult:
    """Fit a real-valued two-tone dip to a Lorentzian.

    Parameters: omega_e center, gamma half-width at half-depth (rad/s),
    depth, offset.  The drive may run up or down in frequency, or there and
    back: the initial half-width counts the samples below half depth at a
    step of the drive's spread over its sample count, so a there-and-back
    sweep, with twice the samples at half the step, starts where its
    one-way half does.  DomainError when the drive has no spread.
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
    dstep = float(np.ptp(drive)) / (drive.size - 1)
    if not dstep > 0:
        raise DomainError("the drive axis has no spread: every drive frequency is the same")
    gamma0 = max(n_below * dstep / 2.0, dstep)
    start = {"omega_e": float(drive[i_min]), "gamma": gamma0,
             "depth": depth0, "offset": offset0}
    bounds = {"gamma": (0.0, math.inf), "depth": (0.0, math.inf)}
    return least_squares(lorentzian_dip, drive, response, init=start, bounds=bounds,
                         jac=dip_jacobian)
