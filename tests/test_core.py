from __future__ import annotations

import json
import math

import pytest

from heliumdot import analytic, cavity, core
from heliumdot.cli import main
from heliumdot.core import (
    CONSTANTS,
    DomainError,
    FormatError,
    GHZ,
    MHZ,
    PhysicalConstants,
    ResonatorParams,
    TWO_PI,
    default_resonator,
    derived_resonator_quantities,
    read_json_object,
)


def test_cyclic_unit_constants():
    assert GHZ == 2.0 * math.pi * 1e9
    assert MHZ == 2.0 * math.pi * 1e6
    assert 7.162 * GHZ / TWO_PI == pytest.approx(7.162e9, rel=1e-15)


def test_constants_consistency():
    assert CONSTANTS.hbar == pytest.approx(CONSTANTS.h / TWO_PI, rel=1e-15)
    # Coulomb constant, CODATA
    assert CONSTANTS.coulomb == pytest.approx(8.9875517923e9, rel=1e-9)


def test_constants_reject_bad_values():
    with pytest.raises(DomainError):
        PhysicalConstants(e=-1.0)
    with pytest.raises(DomainError):
        PhysicalConstants(h=0.0)
    with pytest.raises(TypeError):
        PhysicalConstants(hbar=2.0e-34)  # no field: hbar follows h


def test_resonator_from_mode_inverts_properties():
    res = ResonatorParams.from_mode(TWO_PI * 7.0e9, 3500.0)
    assert res.omega_r == pytest.approx(TWO_PI * 7.0e9, rel=1e-12)
    assert res.impedance == pytest.approx(3500.0, rel=1e-12)


def test_resonator_validation():
    with pytest.raises(DomainError):
        ResonatorParams(l_r=-85e-9, c_r=5.8e-15)
    with pytest.raises(DomainError):
        ResonatorParams(l_r=85e-9, c_r=5.8e-15, kappa_1=-1.0)
    with pytest.raises(DomainError):
        ResonatorParams.from_mode(-1.0, 3800.0)


def test_default_resonator_mode_quantities():
    """Frozen values for the 85 nH / 5.8 fF device defaults."""
    res = default_resonator()
    assert res.omega_r == pytest.approx(45037734911.1045, rel=1e-12)
    assert res.omega_r / TWO_PI == pytest.approx(7.167978136764705e9, rel=1e-12)
    assert res.impedance == pytest.approx(3828.2074674438823, rel=1e-12)
    assert res.kappa_tot == pytest.approx(TWO_PI * 23e6, rel=1e-12)


def test_derived_quantities_zero_point_voltage():
    res = default_resonator()
    omega_r, z, v_zpf = derived_resonator_quantities(res)
    assert type(omega_r) is float and omega_r == res.omega_r
    assert z == res.impedance
    assert v_zpf == pytest.approx(4.0469454623366644e-05, rel=1e-12)
    # definition check: v_zpf^2 = 2 hbar omega / C
    assert v_zpf**2 == pytest.approx(
        2.0 * CONSTANTS.hbar * res.omega_r / res.c_r, rel=1e-12
    )


def test_kappa_tot_is_sum():
    res = ResonatorParams(
        l_r=85e-9, c_r=5.8e-15, kappa_1=1.0, kappa_2=2.0, kappa_int=3.5
    )
    assert res.kappa_tot == 6.5


def _run_with_config(tmp_path, argv, cfg) -> int:
    """Run ``argv`` through the CLI with ``cfg`` as its --config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])


def _spy(monkeypatch, module, name) -> list:
    """Record the (args, kwargs) of each call to ``module.name``."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
    return calls


def _one_format_error(capsys, tmp_path) -> str:
    """The message of the one FormatError line a refused config writes."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "FormatError"
    assert not (tmp_path / "out").exists()
    return error["message"]


_CALC_G = ["calc", "g", "--coupling-length-nm", "2200"]
_SYNTH = ["synth", "--points", "11"]


def test_config_roundtrip(tmp_path, monkeypatch):
    # a partial section keeps the other defaults, on both records
    default = default_resonator()
    calls = _spy(monkeypatch, analytic, "coupling_g")
    cfg = {"constants": {"m_e": 2.0 * CONSTANTS.m_e}, "resonator": {"l_r": 90e-9}}
    assert _run_with_config(tmp_path, _CALC_G, cfg) == 0
    ((res, _ell), kwargs), = calls
    consts = kwargs["constants"]
    assert consts.m_e == 2.0 * CONSTANTS.m_e
    assert (consts.e, consts.h, consts.rho_he) == (CONSTANTS.e, CONSTANTS.h, CONSTANTS.rho_he)
    assert res == ResonatorParams(l_r=90e-9, c_r=5.8e-15, kappa_1=default.kappa_1,
                                  kappa_2=default.kappa_2)

    calls = _spy(monkeypatch, cavity, "synthesize_trace")
    assert _run_with_config(tmp_path, _SYNTH, {"resonator": {"l_r": 90e-9,
                                                             "kappa_int": 1e5}}) == 0
    res = calls[0][0][0]
    assert (res.l_r, res.kappa_int) == (90e-9, 1e5)
    assert res.c_r == 5.8e-15  # default carried through
    assert (res.kappa_1, res.kappa_2) == (default.kappa_1, default.kappa_2)


def test_config_h_hbar_coderivation(tmp_path, monkeypatch, capsys):
    # hbar is h / 2pi, the same expression as the default, so it is no field:
    # an h override moves it, and with it the zero-point voltage of calc g
    assert CONSTANTS.hbar == 6.62607015e-34 / TWO_PI
    calls = _spy(monkeypatch, analytic, "coupling_g")
    assert _run_with_config(tmp_path, _CALC_G, {"constants": {"h": 2.0 * CONSTANTS.h}}) == 0
    assert calls[0][1]["constants"].hbar == 2.0 * CONSTANTS.h / TWO_PI
    doubled = json.loads((tmp_path / "out").read_text())
    (tmp_path / "out").unlink()
    assert main(_CALC_G) == 0
    plain = json.loads(capsys.readouterr().out)
    assert doubled["v_zpf_uV"] == pytest.approx(math.sqrt(2.0) * plain["v_zpf_uV"], rel=1e-14)

    assert _run_with_config(tmp_path, _CALC_G, {"constants": {"hbar": CONSTANTS.hbar}}) == 1
    assert "'constants' fields ['hbar'] are not read" in _one_format_error(capsys, tmp_path)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    for argv, section, name in ((_CALC_G, "constants", "speed_of_sound"),
                                (_SYNTH, "resonator", "quality")):
        assert _run_with_config(tmp_path, argv, {section: {name: 343.0}}) == 1
        assert f"{section!r} fields [{name!r}] are not read" in _one_format_error(capsys,
                                                                                  tmp_path)


def test_config_rejects_removed_resonator_fields(tmp_path, capsys):
    # l_tail and c_dot were provenance-only fields that no model read
    for name in ("l_tail", "c_dot"):
        assert _run_with_config(tmp_path, _SYNTH, {"resonator": {name: 1e-9}}) == 1
        assert f"'resonator' fields [{name!r}] are not read" in _one_format_error(capsys,
                                                                                 tmp_path)


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_json_object(str(path), "config")
    path.write_text("[1, 2, 3]")
    with pytest.raises(FormatError):
        read_json_object(str(path), "config")


def test_error_hierarchy():
    assert issubclass(DomainError, ValueError)
    assert issubclass(FormatError, ValueError)
    assert issubclass(core.FitError, RuntimeError)
