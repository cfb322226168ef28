from __future__ import annotations

import math

import numpy as np
import pytest

from heliumdot import fitters
from heliumdot.cavity import (
    CrosstalkParams,
    TwoLevelElectron,
    compensate_background,
    crosstalk_leak,
    lorentzian_dip,
    s21_resonant,
    synthesize_trace,
    two_tone_dip,
)
from heliumdot.core import DomainError, TWO_PI, default_resonator
from heliumdot.fitters import (
    FitError,
    bare_jacobian,
    bare_model,
    dip_jacobian,
    fit_bare_resonator,
    fit_lorentzian_dip,
    fit_rabi,
    least_squares,
    rabi_jacobian,
    resonator_from_bare_fit,
)

GHZ = 1e9 * TWO_PI
MHZ = 1e6 * TWO_PI


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _line(x, a, b):
    return a * x + b


def _line_jacobian(x, a, b):
    return {"a": x, "b": 1.0}


def test_linear_model_exact_recovery():
    x = np.linspace(0.0, 1.0, 50)
    y = 2.5 * x - 0.7
    fit = least_squares(_line, x, y, init={"a": 0.0, "b": 0.0}, jac=_line_jacobian)
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

    def jac(x, re, im):
        return {"re": x, "im": 1j * x}

    fit = least_squares(model, x, y, init={"re": 0.5, "im": 0.5}, jac=jac)
    assert fit.params["re"] == pytest.approx(1.5, abs=1e-9)
    assert fit.params["im"] == pytest.approx(2.0, abs=1e-9)


def test_log_bound_keeps_parameter_positive():
    x = np.linspace(0.1, 3.0, 60)
    y = np.exp(-0.8 * x)

    def model(x, rate):
        return np.exp(-rate * x)

    def jac(x, rate):
        return {"rate": -x * np.exp(-rate * x)}

    fit = least_squares(model, x, y, init={"rate": 5.0}, bounds={"rate": (0.0, math.inf)},
                        jac=jac)
    assert fit.converged
    assert fit.params["rate"] == pytest.approx(0.8, rel=1e-7)
    assert fit.params["rate"] > 0


def test_logit_bound_keeps_parameter_in_interval():
    x = np.linspace(0.0, 1.0, 30)
    y = 0.3 * np.ones_like(x)

    def model(x, frac):
        return frac * np.ones_like(x)

    def jac(x, frac):
        return {"frac": 1.0}

    fit = least_squares(model, x, y, init={"frac": 0.9}, bounds={"frac": (0.0, 1.0)}, jac=jac)
    assert 0.0 < fit.params["frac"] < 1.0
    assert fit.params["frac"] == pytest.approx(0.3, abs=1e-9)


def test_degenerate_parameters_flag_singular_covariance():
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x

    def model(x, a, b):
        return (a + b) * x  # a and b are indistinguishable

    def jac(x, a, b):
        return {"a": x, "b": x}

    fit = least_squares(model, x, y, init={"a": 1.0, "b": 1.0}, jac=jac)
    # the damped step still walks down the degenerate valley; what must not
    # happen is a confident error bar
    assert fit.rss < 1e-18
    assert fit.flags.get("singular_covariance")
    assert math.isnan(fit.sigmas["a"])
    assert fit.covariance is None


def test_overflowing_covariance_flags_singular_covariance():
    # a = 1e200 under the log transform: the fit is well posed, but a's
    # variance, about a^2 times the residual variance, lies past the float
    # range, so no covariance can be written
    x = np.linspace(0.1, 1.0, 30)
    y = 1e200 * 1e-200 * x + 1e-3 * np.random.default_rng(5).standard_normal(x.size)

    def model(x, a):
        return a * 1e-200 * x

    def jac(x, a):
        return {"a": 1e-200 * x}

    with np.errstate(over="raise", divide="raise", invalid="raise"):  # as cli.main runs
        fit = least_squares(model, x, y, init={"a": 2e200}, bounds={"a": (0.0, math.inf)},
                            jac=jac)
    assert fit.converged
    assert fit.params["a"] == pytest.approx(1e200, rel=1e-2)
    assert fit.flags == {"singular_covariance": True}
    assert fit.covariance is None and math.isnan(fit.sigmas["a"])


def test_nonfinite_initial_point_raises():
    x = np.linspace(0.0, 1.0, 20)

    def model(x, a):
        return np.full_like(x, np.nan)

    def jac(x, a):
        return {"a": x}

    with pytest.raises(FitError, match="not finite at the initial point"):
        least_squares(model, x, np.zeros_like(x), init={"a": 1.0}, jac=jac)


def test_start_point_evaluated_once(monkeypatch):
    import scipy.optimize

    calls = []
    jac_calls = []

    def model(x, a, b):
        calls.append((a, b))
        return a * x + b

    def jac(x, a, b):
        jac_calls.append((a, b))
        return _line_jacobian(x, a, b)

    real = scipy.optimize.leastsq
    calls_before_scipy = []

    def spy(*args, **kwargs):
        calls_before_scipy.append(len(calls))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "leastsq", spy)
    x = np.linspace(0.0, 1.0, 11)
    fit = least_squares(model, x, 2.0 * x + 1.0, init={"a": 1.0, "b": 0.0}, jac=jac)
    # the finiteness check looks at the start ahead of leastsq; that one model
    # call serves leastsq's shape check and MINPACK's first evaluation, so
    # the model runs exactly as often as MINPACK counts
    assert calls_before_scipy == [1]
    assert calls.count((1.0, 0.0)) == 1 and jac_calls.count((1.0, 0.0)) == 1
    assert len(calls) == fit.iterations
    assert fit.params["a"] == pytest.approx(2.0, rel=1e-9)
    assert fit.params["b"] == pytest.approx(1.0, rel=1e-9)


def test_spent_evaluation_budget_reports_max_iter():
    # residual exp(-a) against zero data: each Gauss-Newton step adds 1 to a
    # and cuts the residual by e, so no tolerance is ever met and MINPACK
    # stops at its budget of 100 evaluations per parameter
    x = np.linspace(0.0, 1.0, 10)

    def model(x, a):
        return np.full(x.shape, math.exp(-a))

    def jac(x, a):
        return {"a": -math.exp(-a)}

    fit = least_squares(model, x, np.zeros_like(x), init={"a": 0.0}, jac=jac)
    assert not fit.converged
    assert fit.flags == {"max_iter": True}
    assert fit.iterations == 100
    assert fit.params["a"] > 90.0


def test_fewer_residuals_than_parameters_raises():
    def model(x, a, b, c):
        return a + b * x + c * x**2

    def jac(x, a, b, c):
        return {"a": 1.0, "b": x, "c": x**2}

    x = np.array([0.0, 1.0])
    init = {"a": 0.0, "b": 0.0, "c": 0.0}
    with pytest.raises(FitError):
        least_squares(model, x, np.array([1.0, 2.0]), init=init, jac=jac)
    # complex data stack two residuals per point, so two points fix three parameters
    fit = least_squares(model, x, np.array([1.0 + 1j, 2.0]), init=init, jac=jac)
    assert fit.params.keys() == {"a", "b", "c"}


def test_sigma_matches_analytic_linear_case():
    # y = a x + noise: sigma_a has the textbook closed form
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 200)
    noise = 0.05
    y = 1.7 * x + rng.normal(0.0, noise, x.size)

    def model(x, a):
        return a * x

    def jac(x, a):
        return {"a": x}

    fit = least_squares(model, x, y, init={"a": 1.0}, jac=jac)
    expected = noise / math.sqrt(float(np.sum(x**2)))
    assert fit.sigmas["a"] == pytest.approx(expected, rel=0.3)


@pytest.mark.parametrize("error", [DomainError, OverflowError, FloatingPointError])
def test_step_out_of_model_domain_is_rejected(error):
    # from p = 10 the full Gauss-Newton step for log(p) x lands near p = -13,
    # where the model raises; the fit must reject that step and still converge,
    # whether the model raised a DomainError or a float error
    x = np.linspace(0.1, 1.0, 30)
    y = math.log(1.01) * x
    rejected = []

    def model(x, p):
        if p <= 0:
            rejected.append(p)
            raise error("log of a non-positive value")
        return math.log(p) * x

    def jac(x, p):
        return {"p": x / p}

    fit = least_squares(model, x, y, init={"p": 10.0}, jac=jac)
    assert rejected
    assert fit.converged
    assert fit.params["p"] == pytest.approx(1.01, rel=1e-9)


def test_interval_coverage_and_bias():
    """1-sigma coverage near 0.68 and negligible bias over 200 noisy fits."""
    x = np.linspace(-1.0, 1.0, 101)
    truth = {"a": 1.3, "b": -0.4}
    noise = 0.03
    hits = 0
    errors = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        y = truth["a"] * x + truth["b"] + rng.normal(0.0, noise, x.size)
        fit = least_squares(_line, x, y, init={"a": 0.5, "b": 0.0}, jac=_line_jacobian)
        errors.append(fit.params["a"] - truth["a"])
        if abs(fit.params["a"] - truth["a"]) <= fit.sigmas["a"]:
            hits += 1
    coverage = hits / 200.0
    assert 0.55 <= coverage <= 0.80
    sigma_emp = float(np.std(errors))
    assert abs(float(np.mean(errors))) < 0.5 * sigma_emp


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
        np.full(probe_half_ghz.size, crosstalk_leak(0.008, -0.30))
    )


_BARE_BOUNDS = {"kappa_tot": (0.0, math.inf), "amp": (0.0, math.inf), "t": (1e-12, 1.0)}


@pytest.mark.parametrize("params", [
    dict(omega_r=7.162 * GHZ, kappa_tot=23.0 * MHZ, amp=11.5 * MHZ, t=0.008, zeta=-0.30),
    dict(omega_r=7.17 * GHZ, kappa_tot=5.0 * MHZ, amp=2.0 * MHZ, t=1e-10, zeta=2.9),
    dict(omega_r=7.15 * GHZ, kappa_tot=80.0 * MHZ, amp=45.0 * MHZ, t=0.999, zeta=-3.1),
    dict(omega_r=7.162 * GHZ, kappa_tot=23.0 * MHZ, amp=11.5 * MHZ, t=1e-11 + 1e-12,
         zeta=0.0),
], ids=["device", "t_low", "t_near_upper_bound", "t_near_lower_bound"])
def test_bare_jacobian_matches_central_differences(params, probe_half_ghz):
    # each closed-form column, chained into the fit's internal (log, logit)
    # coordinate, against a central difference of bare_model in that coordinate;
    # the bound allows the difference's truncation and its rounding of |model|
    x = probe_half_ghz[::8]
    exact = bare_jacobian(x, **params)
    rounding = 10.0 * np.finfo(float).eps * np.max(np.abs(bare_model(x, **params)))
    for name, value in params.items():
        to_value, slope, start = fitters._transform(*_BARE_BOUNDS.get(name, (-math.inf,
                                                                              math.inf)))
        v = start(value)
        h = 1e-4 * params["kappa_tot"] if name == "omega_r" else 1e-4
        up = bare_model(x, **{**params, name: to_value(v + h)})
        down = bare_model(x, **{**params, name: to_value(v - h)})
        numeric = (up - down) / (2.0 * h)
        column = np.broadcast_to(exact[name] * slope(v), x.shape)
        scale = np.max(np.abs(column))
        assert scale > 0
        assert np.max(np.abs(column - numeric)) <= 1e-6 * scale + rounding / h, name


def _central_differences(model):
    """A Jacobian of ``model`` in the form least_squares takes, each column
    a central difference in one external parameter with a step of 1e-6 of
    its value."""
    def jac(x, **params):
        columns = {}
        for name, value in params.items():
            h = 1e-6 * (abs(value) or 1.0)
            up = model(x, **{**params, name: value + h})
            down = model(x, **{**params, name: value - h})
            columns[name] = (up - down) / (2.0 * h)
        return columns

    return jac


def test_exact_bare_jacobian_fits_as_finite_differences(res_7162, probe_half_ghz):
    # least_squares chains the supplied columns through the transforms: the
    # fit lands where the central-difference fit lands, with the same sigmas
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz, snr=50.0, seed=3)
    init = dict(omega_r=res_7162.omega_r + 2.0 * MHZ, kappa_tot=30.0 * MHZ, amp=10.0 * MHZ,
                t=0.01, zeta=-0.2)
    window = np.abs(probe_half_ghz - res_7162.omega_r) <= 50.0 * MHZ
    args = (bare_model, probe_half_ghz[window], trace.s21[window], init, _BARE_BOUNDS)
    exact = least_squares(*args, jac=bare_jacobian)
    numeric = least_squares(*args, jac=_central_differences(bare_model))
    assert exact.converged and numeric.converged
    for name in init:
        assert exact.params[name] == pytest.approx(numeric.params[name], rel=1e-8, abs=1e-9)
        assert exact.sigmas[name] == pytest.approx(numeric.sigmas[name], rel=1e-4)


def test_resonator_from_bare_fit_roundtrip(res_7162, probe_half_ghz):
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    trace = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz)
    fit = fit_bare_resonator(trace)
    res, ct_out = resonator_from_bare_fit(fit)
    assert res.omega_r == pytest.approx(res_7162.omega_r, rel=1e-6)
    assert res.impedance == pytest.approx(default_resonator().impedance, rel=1e-12)
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


def test_fit_rabi_recovers_a_seeded_noiseless_family(res_7162, probe_half_ghz):
    # g 5-150 MHz, detuning +-400 MHz, gamma_2 5-150 MHz: resolved, detuned
    # and unresolved doublets (34 of the 60 peak within kappa_tot of omega_r,
    # where the start takes g = kappa_tot), each recovered to 1e-6
    rng = np.random.default_rng(37)
    for _ in range(60):
        g, detuning, gamma_2 = rng.uniform((5.0, -400.0, 5.0), (150.0, 400.0, 150.0)) * MHZ
        el = TwoLevelElectron(omega_e=res_7162.omega_r + detuning, gamma_2=gamma_2)
        fit = fit_rabi(synthesize_trace(res_7162, el, g, None, probe_half_ghz), res_7162)
        assert fit.params["g"] == pytest.approx(g, rel=1e-6)
        assert fit.params["gamma_2"] == pytest.approx(gamma_2, rel=1e-6)
        assert fit.params["omega_e"] == pytest.approx(el.omega_e, abs=1e-6 * g)


def _rabi_model(res, x, g, gamma_2, omega_e):
    return s21_resonant(res, TwoLevelElectron(omega_e=omega_e, gamma_2=gamma_2), g, x)


@pytest.mark.parametrize("g_mhz, gamma2_mhz, detuning_mhz", [
    (118.0, 75.0, 0.0),
    (8.0, 75.0, 20.0),
    (118.0, 75.0, 1000.0),
    (60.0, 0.5, -30.0),
], ids=["resolved_doublet", "g_below_kappa", "far_detuned", "small_gamma_2"])
def test_rabi_jacobian_matches_central_differences(res_7162, probe_half_ghz, g_mhz,
                                                   gamma2_mhz, detuning_mhz):
    # each closed-form column, chained into the fit's log coordinate, against
    # a central difference of the model there; each parameter steps at most a
    # relative 1e-4 and at most 1e-4 of the narrowest feature of the trace
    params = dict(g=g_mhz * MHZ, gamma_2=gamma2_mhz * MHZ,
                  omega_e=res_7162.omega_r + detuning_mhz * MHZ)
    x = probe_half_ghz[::4]
    exact = rabi_jacobian(res_7162, x, **params)
    rounding = 10.0 * np.finfo(float).eps * np.max(np.abs(_rabi_model(res_7162, x, **params)))
    feature = min(params["gamma_2"], res_7162.kappa_tot)
    to_value, slope, start = fitters._transform(0.0, math.inf)
    for name, value in params.items():
        v = start(value)
        h = 1e-4 * min(1.0, feature / value)
        up = _rabi_model(res_7162, x, **{**params, name: to_value(v + h)})
        down = _rabi_model(res_7162, x, **{**params, name: to_value(v - h)})
        numeric = (up - down) / (2.0 * h)
        column = exact[name] * slope(v)
        scale = np.max(np.abs(column))
        assert scale > 0
        assert np.max(np.abs(column - numeric)) <= 1e-6 * scale + rounding / h, name


def test_rabi_jacobian_raises_no_float_error_the_model_does_not(res_7162, probe_half_ghz):
    # a probe point on omega_e with a vanishing gamma_2 and g, and an omega_e
    # of e^700, near the float range's end: the model stays finite, so must
    # the columns
    x = probe_half_ghz
    for params in (dict(g=1e-150, gamma_2=1e-300, omega_e=float(x[200])),
                   dict(g=1e-150, gamma_2=1e-300, omega_e=float(x[7])),
                   dict(g=118.0 * MHZ, gamma_2=75.0 * MHZ, omega_e=math.exp(700.0))):
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            model = _rabi_model(res_7162, x, **params)
            columns = rabi_jacobian(res_7162, x, **params)
        assert np.isfinite(model).all()
        for name, column in columns.items():
            assert np.isfinite(column).all(), name


@pytest.mark.parametrize("seed", range(8))
def test_exact_rabi_jacobian_fits_as_finite_differences(res_7162, probe_half_ghz,
                                                        monkeypatch, seed):
    # README chain (seed 4 is the README's own): compensate a seeded doublet
    # against a seeded far trace, then fit it with the closed-form columns and
    # with central differences.  Each fit stops within ftol = 1e-10
    # of the optimum, which over 802 residuals leaves about 3e-4 sigma of
    # slack, so the bound is in sigmas: the two land within 1e-5 sigma (at
    # most 1.5e-8 relative) of each other, and their sigmas agree to 1e-6
    ct = CrosstalkParams(t=0.008, zeta=-0.30)
    el = TwoLevelElectron(omega_e=res_7162.omega_r, gamma_2=75.0 * MHZ)
    far = synthesize_trace(res_7162, None, 0.0, ct, probe_half_ghz, snr=50.0, seed=1000 + seed)
    target = synthesize_trace(res_7162, el, 118.0 * MHZ, ct, probe_half_ghz, snr=50.0,
                              seed=seed)
    comp = compensate_background(far, target)
    res, _ct = resonator_from_bare_fit(comp.reference_fit)
    exact = fit_rabi(comp.compensated, res)
    engine = fitters.least_squares
    monkeypatch.setattr(fitters, "least_squares", lambda *args, jac, **kwargs: engine(
        *args, jac=_central_differences(args[0]), **kwargs))
    numeric = fit_rabi(comp.compensated, res)
    assert exact.converged and numeric.converged
    for name, value in numeric.params.items():
        assert abs(exact.params[name] - value) <= 1e-4 * numeric.sigmas[name], name
        assert exact.sigmas[name] == pytest.approx(numeric.sigmas[name], rel=1e-5), name


# ---------------------------------------------------------------------------
# two-tone dip recipe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", [
    dict(omega_e=8.66 * GHZ, gamma=102.0 * MHZ, depth=0.3, offset=1.0),
    dict(omega_e=8.2 * GHZ, gamma=5.0 * MHZ, depth=2.0, offset=-0.5),
    dict(omega_e=9.1 * GHZ, gamma=900.0 * MHZ, depth=1e-3, offset=0.0),
], ids=["criterion_10", "narrow_at_edge", "wide_shallow"])
def test_dip_jacobian_matches_central_differences(params):
    # each closed-form column against a central difference of lorentzian_dip
    # in that parameter; the bound allows the difference's truncation and
    # its rounding of |model|
    x = np.linspace(7.8 * GHZ, 9.5 * GHZ, 341)
    exact = dip_jacobian(x, **params)
    rounding = 10.0 * np.finfo(float).eps * np.max(np.abs(lorentzian_dip(x, **params)))
    for name, value in params.items():
        h = 1e-4 * params["gamma"] if name in ("omega_e", "gamma") else 1e-4
        up = lorentzian_dip(x, **{**params, name: value + h})
        down = lorentzian_dip(x, **{**params, name: value - h})
        numeric = (up - down) / (2.0 * h)
        column = np.broadcast_to(exact[name], x.shape)
        scale = np.max(np.abs(column))
        assert scale > 0
        assert np.max(np.abs(column - numeric)) <= 1e-6 * scale + rounding / h, name


def test_dip_jacobian_raises_no_float_error_the_model_does_not():
    # a drive point on omega_e with a vanishing gamma, and a huge gamma: the
    # model stays finite, so must the columns
    x = np.linspace(8.0 * GHZ, 9.3 * GHZ, 601)
    for params in (dict(omega_e=float(x[300]), gamma=1e-150, depth=0.3, offset=1.0),
                   dict(omega_e=8.66 * GHZ, gamma=math.exp(300.0), depth=0.3, offset=1.0)):
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            model = lorentzian_dip(x, **params)
            columns = dip_jacobian(x, **params)
        assert np.isfinite(model).all()
        for name, column in columns.items():
            assert np.isfinite(column).all(), name


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


def test_fit_dip_descending_drive():
    # the criterion-10 data recorded from high to low drive frequency
    el = TwoLevelElectron(omega_e=8.66 * GHZ, gamma_2=102.0 * MHZ)
    drive = np.linspace(el.omega_e - 1.2 * GHZ, el.omega_e + 1.2 * GHZ, 481)
    noisy = two_tone_dip(el, drive, depth=0.3, offset=1.0)
    noisy = noisy + 0.01 * np.random.default_rng(5).standard_normal(drive.size)
    up = fit_lorentzian_dip(drive, noisy)
    down = fit_lorentzian_dip(drive[::-1], noisy[::-1])
    assert down.converged
    for name, value in up.params.items():
        assert down.params[name] == pytest.approx(value, rel=1e-8)


def _there_and_back(values):
    return np.concatenate([values, values[::-1][1:]])


def test_fit_dip_there_and_back_drive():
    # a 61-point sweep up and back down starts and ends on the same drive
    # frequency; its fit agrees with its one-way half within that half's noise
    el = TwoLevelElectron(omega_e=8.66 * GHZ, gamma_2=102.0 * MHZ)
    drive = _there_and_back(np.linspace(el.omega_e - 0.6 * GHZ, el.omega_e + 0.6 * GHZ, 31))
    assert drive[0] == drive[-1]
    noisy = two_tone_dip(el, drive, depth=0.3, offset=1.0)
    noisy = noisy + 0.01 * np.random.default_rng(5).standard_normal(drive.size)
    both = fit_lorentzian_dip(drive, noisy)
    half = fit_lorentzian_dip(drive[:31], noisy[:31])
    assert both.converged and half.converged
    for name, value in half.params.items():
        assert abs(both.params[name] - value) <= 3.0 * half.sigmas[name], name


def test_fit_dip_drive_without_spread():
    with pytest.raises(DomainError, match="drive axis has no spread"):
        fit_lorentzian_dip(np.full(6, 8.66 * GHZ), np.linspace(1.0, 0.5, 6))


def test_fit_dip_shape_mismatch():
    with pytest.raises(DomainError):
        fit_lorentzian_dip(np.zeros(5), np.zeros(4))
