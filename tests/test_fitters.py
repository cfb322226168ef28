from __future__ import annotations

import math

import numpy as np
import pytest

from heliumdot.cavity import (
    CrosstalkParams,
    TwoLevelElectron,
    s21_resonant,
    synthesize_trace,
    two_tone_dip,
)
from heliumdot.core import DomainError, TWO_PI
from heliumdot.fitters import (
    FitError,
    bare_model,
    find_peaks,
    fit_bare_resonator,
    fit_lorentzian_dip,
    fit_rabi,
    least_squares,
    resonator_from_bare_fit,
)

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def test_linear_model_exact_recovery():
    x = np.linspace(0.0, 1.0, 50)
    y = 2.5 * x - 0.7

    def model(x, a, b):
        return a * x + b

    fit = least_squares(model, x, y, init={"a": 0.0, "b": 0.0})
    assert fit.converged
    assert fit.params["a"] == pytest.approx(2.5, abs=1e-9)
    assert fit.params["b"] == pytest.approx(-0.7, abs=1e-9)
    assert fit.rss < 1e-18
    assert fit.iterations <= 3


def test_complex_data_stacks_quadratures():
    x = np.linspace(0.0, 1.0, 40)
    y = (1.5 + 2.0j) * x

    def model(x, re, im):
        return (re + 1j * im) * x

    fit = least_squares(model, x, y, init={"re": 0.5, "im": 0.5})
    assert fit.params["re"] == pytest.approx(1.5, abs=1e-9)
    assert fit.params["im"] == pytest.approx(2.0, abs=1e-9)


def test_log_bound_keeps_parameter_positive():
    x = np.linspace(0.1, 3.0, 60)
    y = np.exp(-0.8 * x)

    def model(x, rate):
        return np.exp(-rate * x)

    fit = least_squares(model, x, y, init={"rate": 5.0}, bounds={"rate": (0.0, math.inf)})
    assert fit.converged
    assert fit.params["rate"] == pytest.approx(0.8, rel=1e-7)
    assert fit.params["rate"] > 0


def test_logit_bound_keeps_parameter_in_interval():
    x = np.linspace(0.0, 1.0, 30)
    y = 0.3 * np.ones_like(x)

    def model(x, frac):
        return frac * np.ones_like(x)

    fit = least_squares(model, x, y, init={"frac": 0.9}, bounds={"frac": (0.0, 1.0)})
    assert 0.0 < fit.params["frac"] < 1.0
    assert fit.params["frac"] == pytest.approx(0.3, abs=1e-9)


def test_degenerate_parameters_flag_singular_covariance():
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x

    def model(x, a, b):
        return (a + b) * x  # a and b are indistinguishable

    fit = least_squares(model, x, y, init={"a": 1.0, "b": 1.0})
    # the damped step still walks down the degenerate valley; what must not
    # happen is a confident error bar
    assert fit.rss < 1e-18
    assert fit.flags.get("singular_covariance")
    assert math.isnan(fit.sigmas["a"])
    assert fit.covariance is None


def test_nonfinite_initial_point_raises():
    x = np.linspace(0.0, 1.0, 20)

    def model(x, a):
        return np.full_like(x, np.nan)

    with pytest.raises(FitError):
        least_squares(model, x, np.zeros_like(x), init={"a": 1.0})


def test_fewer_residuals_than_parameters_raises():
    def model(x, a, b, c):
        return a + b * x + c * x**2

    x = np.array([0.0, 1.0])
    with pytest.raises(FitError):
        least_squares(model, x, np.array([1.0, 2.0]), init={"a": 0.0, "b": 0.0, "c": 0.0})
    # complex data stack two residuals per point, so two points fix three parameters
    fit = least_squares(model, x, np.array([1.0 + 1j, 2.0]), init={"a": 0.0, "b": 0.0, "c": 0.0})
    assert fit.params.keys() == {"a", "b", "c"}


def test_sigma_matches_analytic_linear_case():
    # y = a x + noise: sigma_a has the textbook closed form
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 200)
    noise = 0.05
    y = 1.7 * x + rng.normal(0.0, noise, x.size)

    def model(x, a):
        return a * x

    fit = least_squares(model, x, y, init={"a": 1.0})
    expected = noise / math.sqrt(float(np.sum(x**2)))
    assert fit.sigmas["a"] == pytest.approx(expected, rel=0.3)


def test_step_out_of_model_domain_is_rejected():
    # from p = 10 the full Gauss-Newton step for log(p) x lands near p = -13,
    # where the model raises; the fit must reject that step and still converge
    x = np.linspace(0.1, 1.0, 30)
    y = math.log(1.01) * x
    rejected = []

    def model(x, p):
        if p <= 0:
            rejected.append(p)
            raise DomainError("log of a non-positive value")
        return math.log(p) * x

    fit = least_squares(model, x, y, init={"p": 10.0})
    assert rejected
    assert fit.converged
    assert fit.params["p"] == pytest.approx(1.01, rel=1e-9)


def test_interval_coverage_and_bias():
    """1-sigma coverage near 0.68 and negligible bias over 200 noisy fits."""
    x = np.linspace(-1.0, 1.0, 101)
    truth = {"a": 1.3, "b": -0.4}
    noise = 0.03

    def model(x, a, b):
        return a * x + b

    hits = 0
    errors = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        y = truth["a"] * x + truth["b"] + rng.normal(0.0, noise, x.size)
        fit = least_squares(model, x, y, init={"a": 0.5, "b": 0.0})
        errors.append(fit.params["a"] - truth["a"])
        if abs(fit.params["a"] - truth["a"]) <= fit.sigmas["a"]:
            hits += 1
    coverage = hits / 200.0
    assert 0.55 <= coverage <= 0.80
    sigma_emp = float(np.std(errors))
    assert abs(float(np.mean(errors))) < 0.5 * sigma_emp


# ---------------------------------------------------------------------------
# peak picking
# ---------------------------------------------------------------------------


def test_find_peaks_two_lorentzians():
    x = np.linspace(0.0, 10.0, 2001)
    y = 1.0 / (1.0 + (x - 3.0) ** 2 / 0.04) + 0.8 / (1.0 + (x - 7.2) ** 2 / 0.04)
    peaks = find_peaks(x, y, min_prominence=0.3)
    assert len(peaks) == 2
    assert peaks[0][0] == pytest.approx(3.0, abs=1e-3)
    assert peaks[1][0] == pytest.approx(7.2, abs=1e-3)
    assert peaks[0][1] > peaks[1][1]


def test_find_peaks_prominence_filter():
    x = np.linspace(0.0, 10.0, 2001)
    rng = np.random.default_rng(2)
    y = 1.0 / (1.0 + (x - 5.0) ** 2 / 0.04) + rng.normal(0.0, 0.01, x.size)
    peaks = find_peaks(x, y, min_prominence=0.3, smooth_width=5)
    assert len(peaks) == 1
    with pytest.raises(DomainError):
        find_peaks(x, y, min_prominence=0.0)


# ---------------------------------------------------------------------------
# bare resonator recipe
# ---------------------------------------------------------------------------


def test_fit_bare_noiseless_roundtrip(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz)
    fit = fit_bare_resonator(trace)
    assert fit.converged
    assert fit.params["omega_r"] == pytest.approx(res_7162.omega_r, abs=0.05 * MHZ)
    assert fit.params["kappa_tot"] == pytest.approx(res_7162.kappa_tot, rel=1e-3)
    assert fit.params["t"] == pytest.approx(0.008, rel=1e-2)
    assert fit.params["zeta"] == pytest.approx(-0.30, abs=1e-2)
    assert fit.flags["window_points"] >= 10


def test_fit_bare_noisy(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz, snr=50.0, seed=9)
    fit = fit_bare_resonator(trace)
    assert fit.params["omega_r"] == pytest.approx(res_7162.omega_r, abs=2.0 * MHZ)
    assert fit.params["kappa_tot"] == pytest.approx(res_7162.kappa_tot, rel=0.1)


def test_fit_bare_too_few_points(res_7162):
    probe = np.linspace(res_7162.omega_r - 0.5 * GHZ, res_7162.omega_r + 0.5 * GHZ, 15)
    trace = synthesize_trace(res_7162, None, 0.0, None, probe)
    with pytest.raises(FitError):
        fit_bare_resonator(trace)


def test_bare_model_arrays_match_fit_model(res_7162, probe_half_ghz):
    params = {
        "omega_r": res_7162.omega_r,
        "kappa_tot": res_7162.kappa_tot,
        "amp": res_7162.kappa_1,
        "t": 0.008,
        "zeta": -0.30,
    }
    resonant = bare_model(probe_half_ghz, **{**params, "t": 0.0})
    clean = s21_resonant(res_7162, None, 0.0, probe_half_ghz)
    assert np.allclose(resonant, clean, rtol=1e-12)
    leak = bare_model(probe_half_ghz, **params) - resonant
    assert leak == pytest.approx(
        np.full(probe_half_ghz.size, CrosstalkParams(t=0.008, zeta=-0.30).s21_leak)
    )


def test_resonator_from_bare_fit_roundtrip(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz)
    fit = fit_bare_resonator(trace)
    res, ct_out = resonator_from_bare_fit(fit)
    assert res.omega_r == pytest.approx(res_7162.omega_r, rel=1e-6)
    assert res.kappa_tot == pytest.approx(res_7162.kappa_tot, rel=1e-3)
    assert math.sqrt(res.kappa_1 * res.kappa_2) == pytest.approx(
        fit.params["amp"], rel=1e-9
    )
    assert ct_out.t == pytest.approx(0.008, rel=1e-2)


# ---------------------------------------------------------------------------
# hybridized doublet recipe
# ---------------------------------------------------------------------------


def test_fit_rabi_noiseless(res_7162, probe_half_ghz):
    g, gamma_2 = 118.0 * MHZ, 75.0 * MHZ
    el = TwoLevelElectron(omega_e=res_7162.omega_r, gamma_2=gamma_2)
    trace = synthesize_trace(res_7162, el, g, None, probe_half_ghz)
    fit = fit_rabi(trace, res_7162)
    assert fit.converged
    assert fit.params["g"] == pytest.approx(g, rel=1e-6)
    assert fit.params["gamma_2"] == pytest.approx(gamma_2, rel=1e-6)
    assert fit.params["omega_e"] == pytest.approx(el.omega_e, abs=0.01 * MHZ)


def test_fit_rabi_detuned_electron(res_7162, probe_half_ghz):
    g, gamma_2 = 118.0 * MHZ, 75.0 * MHZ
    el = TwoLevelElectron(omega_e=res_7162.omega_r + 80.0 * MHZ, gamma_2=gamma_2)
    trace = synthesize_trace(res_7162, el, g, None, probe_half_ghz)
    fit = fit_rabi(trace, res_7162)
    assert fit.params["omega_e"] == pytest.approx(el.omega_e, abs=0.5 * MHZ)


# ---------------------------------------------------------------------------
# two-tone dip recipe
# ---------------------------------------------------------------------------


def test_fit_dip_noiseless():
    el = TwoLevelElectron(omega_e=8.66 * GHZ, gamma_2=102.0 * MHZ)
    drive = np.linspace(8.0 * GHZ, 9.3 * GHZ, 601)
    response = two_tone_dip(el, drive, depth=0.5, offset=1.0)
    fit = fit_lorentzian_dip(drive, response)
    assert fit.converged
    assert fit.params["omega_e"] == pytest.approx(el.omega_e, abs=0.01 * MHZ)
    assert fit.params["gamma"] == pytest.approx(el.gamma_2, rel=1e-6)
    assert fit.params["depth"] == pytest.approx(0.5, rel=1e-6)
    assert fit.params["offset"] == pytest.approx(1.0, rel=1e-6)


def test_fit_dip_shape_mismatch():
    with pytest.raises(DomainError):
        fit_lorentzian_dip(np.zeros(5), np.zeros(4))
