from __future__ import annotations

import math

import numpy as np
import pytest

from heliumdot.cavity import (
    CrosstalkParams,
    SpectrumTrace,
    TwoLevelElectron,
    compensate_background,
    dispersive_electron_freq,
    s11_resonant,
    s21_resonant,
    s21_with_crosstalk,
    susceptibility,
    synthesize_trace,
    two_tone_dip,
)
from heliumdot.core import DomainError, TWO_PI

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


def test_electron_validation():
    with pytest.raises(DomainError):
        TwoLevelElectron(omega_e=0.0, gamma_2=1.0)
    with pytest.raises(DomainError):
        TwoLevelElectron(omega_e=1.0, gamma_2=0.0)
    with pytest.raises(DomainError):
        TwoLevelElectron(omega_e=1.0, gamma_2=1.0, sigma_z=0.5)


def test_susceptibility_on_resonance(electron_above):
    el = electron_above
    g = 118.0 * MHZ
    chi = susceptibility(el, g, el.omega_e)
    # purely imaginary at zero probe detuning
    assert chi.real == pytest.approx(0.0, abs=1e-6)
    assert chi.imag == pytest.approx(g**2 / el.gamma_2, rel=1e-12)
    with pytest.raises(DomainError):
        susceptibility(el, -1.0, el.omega_e)


def test_bare_transmission_peak_and_height(res_7162, probe_half_ghz):
    s21 = s21_resonant(res_7162, None, 0.0, probe_half_ghz)
    i_pk = int(np.argmax(np.abs(s21)))
    assert probe_half_ghz[i_pk] == pytest.approx(res_7162.omega_r, abs=3 * MHZ)
    # symmetric lossless ports transmit fully on resonance
    peak = s21_resonant(res_7162, None, 0.0, res_7162.omega_r)
    assert abs(peak) == pytest.approx(1.0, rel=1e-12)


def test_dressed_peak_pushed_below_resonator(res_7162, electron_above, probe_half_ghz):
    """An electron above the mode repels the transmission peak downward."""
    s21 = s21_resonant(res_7162, electron_above, 118.0 * MHZ, probe_half_ghz)
    peak = probe_half_ghz[int(np.argmax(np.abs(s21)))]
    assert peak < res_7162.omega_r - 1.0 * MHZ


def test_reflection_limits(res_7162):
    on = s11_resonant(res_7162, None, 0.0, res_7162.omega_r)
    assert abs(on) == pytest.approx(0.0, abs=1e-12)
    far = s11_resonant(res_7162, None, 0.0, res_7162.omega_r + 50 * GHZ)
    assert far == pytest.approx(-1.0, abs=1e-3)


@pytest.mark.parametrize("t,zeta,theta", [(0.008, -0.3, 0.0), (0.2, 1.1, 0.4), (0.0, 0.0, 0.0)])
def test_crosstalk_matrix_unitary(t, zeta, theta):
    ct = CrosstalkParams(t=t, zeta=zeta, theta=theta)
    s = ct.scattering_matrix()
    assert np.allclose(s @ s.conj().T, np.eye(2), atol=1e-12)
    assert s[1, 0] == pytest.approx(ct.s21_leak, rel=1e-12)


def test_crosstalk_validation():
    with pytest.raises(DomainError):
        CrosstalkParams(t=1.5, zeta=0.0)


def test_crosstalk_adds_leak(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    with_ct = s21_with_crosstalk(res_7162, None, 0.0, ct, probe_half_ghz)
    without = s21_resonant(res_7162, None, 0.0, probe_half_ghz)
    assert np.allclose(with_ct - without, ct.s21_leak)


def test_dispersive_inversion_roundtrip(res_7162):
    g = 118.0 * MHZ
    omega_e = res_7162.omega_r + 2.0 * GHZ
    shift = g**2 / (omega_e - res_7162.omega_r)
    out = dispersive_electron_freq(shift, g, res_7162.omega_r)
    assert float(out) == pytest.approx(omega_e, rel=1e-12)
    with pytest.raises(DomainError):
        dispersive_electron_freq(0.0, g, res_7162.omega_r)
    with pytest.raises(DomainError):
        dispersive_electron_freq(shift, 0.0, res_7162.omega_r)


def test_two_tone_dip_shape(electron_above):
    el = electron_above
    drive = np.array([el.omega_e, el.omega_e + el.gamma_2, el.omega_e - el.gamma_2])
    out = two_tone_dip(el, drive, depth=0.4, offset=1.0)
    assert out[0] == pytest.approx(0.6, rel=1e-12)
    # half depth exactly one half-width away
    assert out[1] == pytest.approx(0.8, rel=1e-12)
    assert out[2] == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(DomainError):
        two_tone_dip(el, drive, depth=-0.1, offset=1.0)


def test_spectrum_trace_validation():
    with pytest.raises(DomainError):
        SpectrumTrace(probe=np.array([2.0, 1.0]), s21=np.array([1 + 0j, 1 + 0j]))
    with pytest.raises(DomainError):
        SpectrumTrace(probe=np.array([1.0, 2.0]), s21=np.array([1 + 0j]))
    with pytest.raises(DomainError):
        SpectrumTrace(probe=np.array([1.0]), s21=np.array([1 + 0j]))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_noiseless_equals_model(res_7162, electron_above, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, electron_above, 118.0 * MHZ, ct, probe_half_ghz)
    model = s21_with_crosstalk(res_7162, electron_above, 118.0 * MHZ, ct, probe_half_ghz)
    assert np.array_equal(trace.s21, model)
    assert trace.metadata["snr"] is None


def test_synthesize_seed_reproducible(res_7162, probe_half_ghz):
    a = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz, snr=50.0, seed=3)
    b = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz, snr=50.0, seed=3)
    c = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz, snr=50.0, seed=4)
    assert np.array_equal(a.s21, b.s21)
    assert not np.array_equal(a.s21, c.s21)


def test_synthesize_noise_level(res_7162):
    probe = np.linspace(res_7162.omega_r - 0.5 * GHZ, res_7162.omega_r + 0.5 * GHZ, 20001)
    snr = 50.0
    trace = synthesize_trace(res_7162, None, 0.0, None, probe, snr=snr, seed=1)
    clean = s21_resonant(res_7162, None, 0.0, probe)
    rms = float(np.sqrt(np.mean(np.abs(trace.s21 - clean) ** 2)))
    peak = float(np.max(np.abs(clean)))
    assert rms == pytest.approx(peak / snr, rel=0.05)


def test_synthesize_rejects_bad_snr(res_7162, probe_half_ghz):
    with pytest.raises(DomainError):
        synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz, snr=-1.0)


def test_synthesize_other_background(res_7162, probe_half_ghz):
    other = 0.01 * np.exp(1j * probe_half_ghz / (10 * GHZ))
    trace = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz, other=other)
    clean = s21_resonant(res_7162, None, 0.0, probe_half_ghz)
    assert np.allclose(trace.s21 - clean, other)


# ---------------------------------------------------------------------------
# background compensation
# ---------------------------------------------------------------------------


def _spurious(probe, res):
    # slowly varying off-mode transmission
    return 0.02 * np.exp(1j * (probe - res.omega_r) / (5.0 * GHZ) + 0.7j)


def test_compensation_recovers_resonant_model(res_7162, electron_above, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    g = 118.0 * MHZ
    other = _spurious(probe_half_ghz, res_7162)
    far = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz, other=other)
    target = synthesize_trace(res_7162, electron_above, g, ct, probe_half_ghz, other=other)
    out = compensate_background(far, target)
    clean = s21_resonant(res_7162, electron_above, g, probe_half_ghz)
    err = float(np.max(np.abs(out.compensated.s21 - clean)))
    assert err < 5e-3
    assert out.reference_fit.converged
    assert out.compensated.metadata["compensated"] is True
    # the leak/background split is not unique against a smooth background,
    # but together they must account for everything off the bare mode
    assert np.max(np.abs(out.other)) < 0.1


def test_compensation_identifies_leak_without_background(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    far = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz)
    target = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz)
    out = compensate_background(far, target)
    assert out.leak == pytest.approx(ct.s21_leak, abs=2e-3)
    assert np.max(np.abs(out.other)) < 1e-3


def test_compensation_map_is_affine(res_7162, electron_above, probe_half_ghz):
    """Differences between targets pass through the compensation unchanged."""
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    other = _spurious(probe_half_ghz, res_7162)
    far = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz, other=other)
    t1 = synthesize_trace(res_7162, electron_above, 118.0 * MHZ, ct, probe_half_ghz, other=other)
    t2 = synthesize_trace(res_7162, electron_above, 60.0 * MHZ, ct, probe_half_ghz, other=other)
    c1 = compensate_background(far, t1).compensated.s21
    c2 = compensate_background(far, t2).compensated.s21
    assert np.allclose(c1 - c2, t1.s21 - t2.s21, atol=1e-14)


def test_compensation_requires_shared_axis(res_7162, probe_half_ghz):
    far = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz)
    target = synthesize_trace(res_7162, None, 0.0, None, probe_half_ghz[:-1])
    with pytest.raises(DomainError):
        compensate_background(far, target)
