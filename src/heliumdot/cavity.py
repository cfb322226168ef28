"""Steady-state microwave response of the resonator dressed by one electron.

The electron's in-plane motion acts on the resonator as a two-level
susceptibility

    chi(omega_p) = g^2 / ((omega_e - omega_p) - i Gamma_2)

entering the two-port transmission through the mode denominator

    d(omega_p) = kappa_tot/2 + i (omega_r - omega_p) - i chi
    S21 = sqrt(kappa_1 kappa_2) / d

for a ground-state electron (<sigma_z> = -1).  Im chi > 0 then adds loss
(the electron broadens the resonance), and Re chi pushes the dressed peak
away from the electron: for omega_e > omega_r the |S21| maximum sits BELOW
the bare omega_r.

Direct port-to-port crosstalk leaks a -i sqrt(T) e^(i zeta) term past the
resonator; background compensation strips it together with any slowly
varying spurious transmission by referencing a far-detuned trace.  Every
``SpectrumTrace`` is finite: it refuses other values when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, ResonatorParams


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelElectron:
    """Two-level description of the trapped electron's in-plane transition.

    omega_e [rad/s] transition frequency; gamma_2 [rad/s] total dephasing
    (half-width of the electron response).  The electron is in its ground
    state.
    """

    omega_e: float
    gamma_2: float

    def __post_init__(self) -> None:
        if not 0 < self.omega_e < math.inf:
            raise DomainError("omega_e must be positive and finite")
        if not 0 < self.gamma_2 < math.inf:
            raise DomainError("gamma_2 must be positive and finite")


@dataclass(frozen=True)
class CrosstalkParams:
    """Direct port-to-port leakage: amplitude sqrt(T) and phase zeta."""

    t: float
    zeta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("crosstalk power T must lie in [0, 1]")
        if not math.isfinite(self.zeta):
            raise DomainError("crosstalk phase must be finite")


@dataclass(eq=False)
class SpectrumTrace:
    """A measured or synthesized complex transmission trace.

    probe [rad/s], strictly increasing; s21 complex, same length; all
    finite, so nothing downstream checks again; metadata free-form
    (synthesis parameters, provenance, compensation records).
    """

    probe: np.ndarray
    s21: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.probe = np.asarray(self.probe, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.probe.ndim != 1 or self.probe.size < 2:
            raise DomainError("trace needs a 1-D probe axis with >= 2 points")
        if self.s21.shape != self.probe.shape:
            raise DomainError("s21 and probe lengths differ")
        if not (np.isfinite(self.probe).all() and np.isfinite(self.s21).all()):
            raise DomainError("trace probe and s21 values must be finite")
        if not np.all(np.diff(self.probe) > 0):
            raise DomainError("probe axis must be strictly increasing")


# ---------------------------------------------------------------------------
# response models
# ---------------------------------------------------------------------------


def lorentzian(x, omega_r, kappa_tot, amp, pull=0.0):
    """Resonator transmission amp / (kappa_tot/2 + i (omega_r - x) + pull) over
    probe frequencies x [rad/s]: the bare mode for pull = 0, dressed by a
    ground-state electron for pull = -i chi."""
    return amp / (kappa_tot / 2.0 + 1j * (omega_r - x) + pull)


def crosstalk_leak(t, zeta):
    """Direct port-to-port transmission -i sqrt(t) e^(i zeta)."""
    return -1j * np.sqrt(t) * np.exp(1j * zeta)


def lorentzian_dip(x, omega_e, gamma, depth, offset):
    """Real dip offset - depth gamma^2 / ((x - omega_e)^2 + gamma^2), with
    gamma the half-width at half-depth."""
    return offset - depth * gamma**2 / ((x - omega_e) ** 2 + gamma**2)


def susceptibility(el: TwoLevelElectron, g: float, omega_p):
    """Electron susceptibility chi(omega_p) [rad/s], vectorized over omega_p."""
    if not 0 <= g < math.inf:
        raise DomainError("coupling g must be non-negative and finite")
    delta_ep = el.omega_e - np.asarray(omega_p, dtype=float)
    return g**2 / (delta_ep - 1j * el.gamma_2)


def s21_resonant(
    res: ResonatorParams,
    el: TwoLevelElectron | None,
    g: float,
    omega_p,
):
    """Two-port transmission through the dressed resonator (no crosstalk)."""
    if res.kappa_tot <= 0:
        raise DomainError("resonator needs a positive total linewidth")
    omega_p = np.asarray(omega_p, dtype=float)
    pull = 0.0
    if el is not None and g != 0.0:
        pull = -1j * susceptibility(el, g, omega_p)
    amp = math.sqrt(res.kappa_1 * res.kappa_2)
    return lorentzian(omega_p, res.omega_r, res.kappa_tot, amp, pull)


def dispersive_electron_freq(delta_omega_r: float, g: float, omega_r: float) -> float:
    """Invert a dispersive resonator pull into the electron frequency.

    omega_e = omega_r + g^2 / delta_omega_r, all in rad/s.  Sign
    convention: the argument is the pull toward the electron, delta_omega_r
    = omega_r - omega_peak for the measured dressed-peak location.  An
    electron above the resonator pushes the peak down, giving delta_omega_r
    > 0 and omega_e > omega_r; below the resonator both signs flip.  Valid
    far from resonance where |delta_omega_r| << g.
    """
    if delta_omega_r == 0.0:
        raise DomainError("zero dispersive shift carries no electron-frequency information")
    if g <= 0:
        raise DomainError("coupling g must be positive")
    return omega_r + g**2 / delta_omega_r


def two_tone_dip(el: TwoLevelElectron, drive_freq, depth: float, offset: float):
    """Lorentzian transmission dip of a driven electron probed in two-tone.

    offset - depth * gamma^2 / ((omega_d - omega_e)^2 + gamma^2), with the
    electron's gamma_2 as half-width at half-minimum.  Real-valued.
    """
    if depth < 0:
        raise DomainError("dip depth must be non-negative")
    return lorentzian_dip(np.asarray(drive_freq, dtype=float), el.omega_e, el.gamma_2,
                          depth, offset)


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
) -> SpectrumTrace:
    """Generate a noisy synthetic trace of S21_res plus the leak of ``ct``.

    Noise model: complex Gaussian with per-quadrature standard deviation
    peak|S21| / (snr sqrt(2)), i.e. snr is the ratio of the peak amplitude to
    the RMS complex noise magnitude; snr = +inf means no noise, and an snr
    not above 0 (-inf and nan included) is a DomainError.  Deterministic for
    a given seed (numpy default_rng).
    """
    if not snr > 0:
        raise DomainError(f"snr must be positive (inf for noiseless), got {snr!r}")
    probe = np.asarray(probe, dtype=float)
    s21 = s21_resonant(res, el, g, probe)
    if ct is not None:
        s21 = s21 + crosstalk_leak(ct.t, ct.zeta)
    meta = {"snr": None if math.isinf(snr) else snr, "seed": seed, "far_detuned": el is None}
    if not math.isinf(snr):
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
    subtracted, its metadata marked ``compensated`` and carrying the
    reference fit's parameters as ``reference_fit``; reference_fit: the
    bare-resonator fit of the far-detuned trace; leak: the fitted crosstalk
    transmission constant; other: the spurious background sampled on the
    shared probe axis.  The ``compensate`` command adds ``far_sha256``, the
    SHA-256 of the far trace's CSV text, next to ``reference_fit``, so that
    ``fit rabi --far`` given that same file takes the stored fit instead of
    fitting the far trace again.
    """

    compensated: SpectrumTrace
    reference_fit: "object"
    leak: complex
    other: np.ndarray


def compensate_background(
    far_detuned: SpectrumTrace,
    target: SpectrumTrace,
) -> CompensationResult:
    """Remove crosstalk and spurious transmission from a resonant trace.

    Three steps: (1) fit the far-detuned trace to the bare resonator plus
    leakage, restricted to probe points within fitters.WINDOW_KAPPAS * kappa_tot
    of the peak; (2) whatever the fit does not explain, evaluated over the
    full axis, is the spurious background; (3) subtract leakage and
    background from the target.  The map applied to the target is affine, so
    differences between targets pass through exactly.
    """
    from . import fitters  # late import: fitters builds on the models above

    if not np.array_equal(far_detuned.probe, target.probe):
        raise DomainError("far-detuned and target traces must share one probe axis")

    fit = fitters.fit_bare_resonator(far_detuned)
    probe = target.probe
    leak = crosstalk_leak(fit.params["t"], fit.params["zeta"])
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
