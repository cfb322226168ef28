"""Steady-state microwave response of the resonator dressed by one electron.

The electron's in-plane motion acts on the resonator as a two-level
susceptibility

    chi(omega_p) = g^2 / ((omega_e - omega_p) - i Gamma_2)

entering the two-port transmission and reflection through the mode
denominator

    d(omega_p) = kappa_tot/2 + i (omega_r - omega_p) + i chi <sigma_z>
    S21 = sqrt(kappa_1 kappa_2) / d          S11 = -1 + kappa_1 / d

with <sigma_z> = -1 for a ground-state electron.  Im chi > 0 then adds loss
(the electron broadens the resonance), and Re chi pushes the dressed peak
away from the electron: for omega_e > omega_r the |S21| maximum sits BELOW
the bare omega_r.

Direct port-to-port crosstalk leaks a -i sqrt(T) e^(i zeta) term past the
resonator; background compensation strips it together with any slowly
varying spurious transmission by referencing a far-detuned trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import CONSTANTS, DomainError, Frequency, ResonatorParams, TWO_PI


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelElectron:
    """Two-level description of the trapped electron's in-plane transition.

    omega_e [rad/s] transition frequency; gamma_2 [rad/s] total dephasing
    (half-width of the electron response); sigma_z in [-1, 0] population
    inversion (-1: ground state).
    """

    omega_e: float
    gamma_2: float
    sigma_z: float = -1.0

    def __post_init__(self) -> None:
        if not 0 < self.omega_e < math.inf:
            raise DomainError("omega_e must be positive and finite")
        if not 0 < self.gamma_2 < math.inf:
            raise DomainError("gamma_2 must be positive and finite")
        if not -1.0 <= self.sigma_z <= 0.0:
            raise DomainError("sigma_z must lie in [-1, 0]")


@dataclass(frozen=True)
class CrosstalkParams:
    """Direct port-to-port leakage: amplitude sqrt(T), global phase zeta,
    and reciprocal phase asymmetry theta."""

    t: float
    zeta: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("crosstalk power T must lie in [0, 1]")
        if not (math.isfinite(self.zeta) and math.isfinite(self.theta)):
            raise DomainError("crosstalk phases must be finite")

    def scattering_matrix(self) -> np.ndarray:
        """2x2 unitary background scattering matrix."""
        root_t = math.sqrt(self.t)
        root_r = math.sqrt(1.0 - self.t)
        phase = np.exp(1j * self.zeta)
        return phase * np.array(
            [
                [root_r * np.exp(1j * self.theta), -1j * root_t],
                [-1j * root_t, root_r * np.exp(-1j * self.theta)],
            ]
        )

    @property
    def s21_leak(self) -> complex:
        """The transmission element -i sqrt(T) e^(i zeta)."""
        return -1j * math.sqrt(self.t) * np.exp(1j * self.zeta)


@dataclass(eq=False)
class SpectrumTrace:
    """A measured or synthesized complex transmission trace.

    probe [rad/s], strictly increasing; s21 complex, same length; metadata
    free-form (synthesis parameters, provenance, compensation records).
    """

    probe: np.ndarray
    s21: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.probe = np.asarray(self.probe, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.probe.ndim != 1 or self.probe.size < 2:
            raise DomainError("trace needs a 1-D probe axis with >= 2 points")
        if not np.all(np.diff(self.probe) > 0):
            raise DomainError("probe axis must be strictly increasing")
        if self.s21.shape != self.probe.shape:
            raise DomainError("s21 and probe lengths differ")


# ---------------------------------------------------------------------------
# response models
# ---------------------------------------------------------------------------


def susceptibility(el: TwoLevelElectron, g: float, omega_p):
    """Electron susceptibility chi(omega_p) [rad/s], vectorized over omega_p."""
    if not 0 <= g < math.inf:
        raise DomainError("coupling g must be non-negative and finite")
    delta_ep = el.omega_e - np.asarray(omega_p, dtype=float)
    return g**2 / (delta_ep - 1j * el.gamma_2)


def _denominator(res: ResonatorParams, el: TwoLevelElectron | None, g: float, omega_p):
    omega_p = np.asarray(omega_p, dtype=float)
    d = res.kappa_tot / 2.0 + 1j * (res.omega_r - omega_p)
    if el is not None and g != 0.0:
        d = d + 1j * susceptibility(el, g, omega_p) * el.sigma_z
    return d


def s21_resonant(
    res: ResonatorParams,
    el: TwoLevelElectron | None,
    g: float,
    omega_p,
):
    """Two-port transmission through the dressed resonator (no crosstalk)."""
    if res.kappa_tot <= 0:
        raise DomainError("resonator needs a positive total linewidth")
    amp = math.sqrt(res.kappa_1 * res.kappa_2)
    return amp / _denominator(res, el, g, omega_p)


def s11_resonant(
    res: ResonatorParams,
    el: TwoLevelElectron | None,
    g: float,
    omega_p,
):
    """Single-port reflection off the dressed resonator."""
    if res.kappa_tot <= 0:
        raise DomainError("resonator needs a positive total linewidth")
    return -1.0 + res.kappa_1 / _denominator(res, el, g, omega_p)


def s21_with_crosstalk(
    res: ResonatorParams,
    el: TwoLevelElectron | None,
    g: float,
    ct: CrosstalkParams | None,
    omega_p,
):
    """Transmission including the direct leakage path: S21_res + leak."""
    out = s21_resonant(res, el, g, omega_p)
    if ct is not None:
        out = out + ct.s21_leak
    return out


def dispersive_electron_freq(delta_omega_r: float, g: float, omega_r: float) -> Frequency:
    """Invert a dispersive resonator pull into the electron frequency.

    omega_e = omega_r + g^2 / delta_omega_r.  Sign convention: the argument
    is the pull toward the electron, delta_omega_r = omega_r - omega_peak
    for the measured dressed-peak location.  An electron above the resonator
    pushes the peak down, giving delta_omega_r > 0 and omega_e > omega_r;
    below the resonator both signs flip.  Valid far from resonance where
    |delta_omega_r| << g.
    """
    if delta_omega_r == 0.0:
        raise DomainError("zero dispersive shift carries no electron-frequency information")
    if g <= 0:
        raise DomainError("coupling g must be positive")
    return Frequency(omega_r + g**2 / delta_omega_r)


def two_tone_dip(el: TwoLevelElectron, drive_freq, depth: float, offset: float):
    """Lorentzian transmission dip of a driven electron probed in two-tone.

    offset - depth * gamma^2 / ((omega_d - omega_e)^2 + gamma^2), with the
    electron's gamma_2 as half-width at half-minimum.  Real-valued.
    """
    if depth < 0:
        raise DomainError("dip depth must be non-negative")
    delta = np.asarray(drive_freq, dtype=float) - el.omega_e
    return offset - depth * el.gamma_2**2 / (delta**2 + el.gamma_2**2)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def synthesize_trace(
    res: ResonatorParams,
    el: TwoLevelElectron | None,
    g: float,
    ct: CrosstalkParams | None,
    probe,
    snr: float = math.inf,
    seed: int = 0,
    other: np.ndarray | Callable | None = None,
    metadata: dict | None = None,
) -> SpectrumTrace:
    """Generate a noisy synthetic trace of the full model.

    ``other`` adds a spurious-transmission background (array over the probe
    axis, or a callable of omega_p).  Noise model: complex Gaussian with
    per-quadrature standard deviation peak|S21| / (snr sqrt(2)), i.e. snr is
    the ratio of the peak amplitude to the RMS complex noise magnitude.
    Deterministic for a given seed (numpy default_rng).
    """
    probe = np.asarray(probe, dtype=float)
    s21 = np.asarray(s21_with_crosstalk(res, el, g, ct, probe), dtype=complex)
    if other is not None:
        s21 = s21 + (other(probe) if callable(other) else np.asarray(other, dtype=complex))
    meta = dict(metadata or {})
    meta.setdefault("snr", None if math.isinf(snr) else snr)
    meta.setdefault("seed", seed)
    meta.setdefault("far_detuned", el is None)
    if not math.isinf(snr):
        if snr <= 0:
            raise DomainError("snr must be positive (or omitted for noiseless)")
        rng = np.random.default_rng(seed)
        sigma = float(np.max(np.abs(s21))) / (snr * math.sqrt(2.0))
        with np.errstate(over="raise"):  # an snr near 1e-308 overflows the noise
            s21 = s21 + sigma * (rng.standard_normal(probe.size)
                                 + 1j * rng.standard_normal(probe.size))
    return SpectrumTrace(probe=probe, s21=s21, metadata=meta)


# ---------------------------------------------------------------------------
# background compensation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CompensationResult:
    """Output of the three-step background removal.

    compensated: the target trace with leakage and spurious transmission
    subtracted; reference_fit: the bare-resonator fit of the far-detuned
    trace; leak: the fitted crosstalk transmission constant; other: the
    spurious background sampled on the shared probe axis.
    """

    compensated: SpectrumTrace
    reference_fit: "object"
    leak: complex
    other: np.ndarray


def compensate_background(
    far_detuned: SpectrumTrace,
    target: SpectrumTrace,
    window_kappa_mult: float = 2.0,
) -> CompensationResult:
    """Remove crosstalk and spurious transmission from a resonant trace.

    Three steps: (1) fit the far-detuned trace to the bare resonator plus
    leakage, restricted to probe points within window_kappa_mult * kappa_tot
    of the peak; (2) whatever the fit does not explain, evaluated over the
    full axis, is the spurious background; (3) subtract leakage and
    background from the target.  The map applied to the target is affine, so
    differences between targets pass through exactly.
    """
    from . import fitters  # late import: fitters builds on the models above

    if far_detuned.probe.shape != target.probe.shape or not np.allclose(
        far_detuned.probe, target.probe, rtol=0, atol=0
    ):
        raise DomainError("far-detuned and target traces must share one probe axis")

    fit = fitters.fit_bare_resonator(far_detuned, window_kappa_mult=window_kappa_mult)
    probe = target.probe
    leak = CrosstalkParams(t=fit.params["t"], zeta=fit.params["zeta"]).s21_leak
    other = far_detuned.s21 - fitters.bare_model(probe, **fit.params)
    compensated = target.s21 - leak - other
    meta = dict(target.metadata)
    meta["compensated"] = True
    meta["reference_fit"] = {k: v for k, v in fit.params.items()}
    return CompensationResult(
        compensated=SpectrumTrace(probe=probe.copy(), s21=compensated, metadata=meta),
        reference_fit=fit,
        leak=complex(leak),
        other=other,
    )
