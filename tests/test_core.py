from __future__ import annotations

import json
import math

import pytest

from heliumdot import core
from heliumdot.core import (
    CONSTANTS,
    DomainError,
    FormatError,
    Frequency,
    PhysicalConstants,
    ResonatorParams,
    TWO_PI,
    constants_from_config,
    convert_frequency,
    default_resonator,
    derived_resonator_quantities,
    load_config,
    resonator_from_config,
)


def test_frequency_roundtrip():
    f = Frequency.from_ghz(7.162)
    assert f.hz == pytest.approx(7.162e9, rel=1e-15)
    assert f.mhz == pytest.approx(7162.0, rel=1e-15)
    assert float(f) == pytest.approx(TWO_PI * 7.162e9, rel=1e-15)
    assert Frequency.from_cyclic(f.hz).ghz == pytest.approx(7.162, rel=1e-15)


def test_convert_frequency_pairs():
    assert convert_frequency(1.0, "GHz", "MHz") == pytest.approx(1000.0)
    assert convert_frequency(2.0e9, "Hz", "rad/s") == pytest.approx(TWO_PI * 2.0e9)
    assert convert_frequency(TWO_PI, "rad/s", "Hz") == pytest.approx(1.0)
    with pytest.raises(DomainError):
        convert_frequency(1.0, "GHz", "parsec")


def test_constants_consistency():
    assert CONSTANTS.hbar == pytest.approx(CONSTANTS.h / TWO_PI, rel=1e-15)
    # Coulomb constant, CODATA
    assert CONSTANTS.coulomb == pytest.approx(8.9875517923e9, rel=1e-9)


def test_constants_reject_bad_values():
    with pytest.raises(DomainError):
        PhysicalConstants(e=-1.0)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar=2.0e-34)  # inconsistent with h


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
    assert float(omega_r) == res.omega_r
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


def test_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "constants": {"rho_he": 146.0},
                "resonator": {"l_r": 90e-9, "kappa_int": 1e5},
            }
        )
    )
    cfg = load_config(str(path))
    consts = constants_from_config(cfg)
    assert consts.rho_he == 146.0
    assert consts.e == CONSTANTS.e
    res = resonator_from_config(cfg)
    assert res.l_r == 90e-9
    assert res.c_r == 5.8e-15  # default carried through
    assert res.kappa_int == 1e5


def test_config_h_hbar_coderivation(tmp_path):
    cfg = {"constants": {"h": 2.0 * CONSTANTS.h}}
    consts = constants_from_config(cfg)
    assert consts.hbar == pytest.approx(2.0 * CONSTANTS.hbar, rel=1e-15)
    with pytest.raises(DomainError):
        constants_from_config(
            {"constants": {"h": CONSTANTS.h, "hbar": 2.0 * CONSTANTS.hbar}}
        )


def test_config_rejects_unknown_keys():
    with pytest.raises(FormatError):
        constants_from_config({"constants": {"speed_of_sound": 343.0}})
    with pytest.raises(FormatError):
        resonator_from_config({"resonator": {"quality": 1e6}})


def test_config_rejects_removed_resonator_fields():
    # l_tail and c_dot were provenance-only fields that no model read
    for name in ("l_tail", "c_dot"):
        with pytest.raises(FormatError, match="unknown resonator fields"):
            resonator_from_config({"resonator": {name: 1e-9}})


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_config(str(path))
    path.write_text("[1, 2, 3]")
    with pytest.raises(FormatError):
        load_config(str(path))


def test_error_hierarchy():
    assert issubclass(DomainError, ValueError)
    assert issubclass(FormatError, ValueError)
    assert issubclass(core.FitError, RuntimeError)
