from __future__ import annotations

import json
import math

import numpy as np
import pytest

from heliumdot import analytic, cli, core
from heliumdot.cli import build_parser, main
from heliumdot.core import CONSTANTS, TWO_PI
from heliumdot.io import read_trace

GHZ = 1e9 * TWO_PI


def _synth_args(out, kind="bare", seed=0):
    args = [
        "synth", "--f-res-ghz", "7.162", "--points", "401",
        "--span-mhz", "1000", "--crosstalk-t", "0.008",
        "--crosstalk-zeta", "-0.30", "--seed", str(seed), "--out", out,
    ]
    if kind == "rabi":
        args += ["--f-el-ghz", "7.162", "--g-mhz", "118", "--gamma2-mhz", "75"]
    return args


def test_synth_writes_trace_and_sidecar(tmp_path):
    out = str(tmp_path / "trace.csv")
    assert main(_synth_args(out)) == 0
    trace = read_trace(out)
    assert trace.probe.size == 401
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["config"]["tool"] == "heliumdot"
    assert sidecar["config"]["options"]["seed"] == 0


def test_synth_rerun_byte_identical(tmp_path):
    out = str(tmp_path / "trace.csv")
    main(_synth_args(out, seed=7))
    first = (tmp_path / "trace.csv").read_bytes()
    main(_synth_args(out, seed=7))
    assert (tmp_path / "trace.csv").read_bytes() == first


def test_synth_svg(tmp_path):
    out = str(tmp_path / "trace.svg")
    argv = _synth_args(out, kind="rabi") + ["--format", "svg"]
    assert main(argv) == 0
    text = (tmp_path / "trace.svg").read_text()
    assert text.startswith("<svg")


def test_fit_bare_pipeline(tmp_path):
    trace = str(tmp_path / "far.csv")
    main(_synth_args(trace))
    out = str(tmp_path / "fit.json")
    assert main(["fit", "bare", "--trace", trace, "--out", out]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["converged"]
    assert fit["params"]["omega_r"]["value"] == pytest.approx(7.162e9, abs=2e5)
    assert fit["params"]["kappa_tot"]["value"] == pytest.approx(23e6, rel=1e-2)
    assert fit["units"]["omega_r"] == "Hz"


def test_fit_rabi_with_reference(tmp_path):
    far = str(tmp_path / "far.csv")
    target = str(tmp_path / "target.csv")
    comp = str(tmp_path / "comp.csv")
    out = str(tmp_path / "rabi.json")
    main(_synth_args(far))
    main(_synth_args(target, kind="rabi"))
    assert main(["compensate", "--far", far, "--target", target, "--out", comp]) == 0
    assert main(["fit", "rabi", "--trace", comp, "--far", far, "--out", out]) == 0
    fit = json.loads((tmp_path / "rabi.json").read_text())
    assert fit["params"]["g"]["value"] == pytest.approx(118e6, abs=2e6)
    assert fit["params"]["gamma_2"]["value"] == pytest.approx(75e6, abs=4e6)
    assert fit["params"]["omega_e"]["value"] == pytest.approx(7.162e9, abs=3e6)
    # compensation also drops a record of what was removed
    removed = json.loads((tmp_path / "comp.csv.comp.json").read_text())
    assert "leak" in removed


def test_fit_twotone(tmp_path):
    center, hwhm = 8.66, 0.102
    freqs = np.linspace(8.0, 9.3, 401)
    resp = 1.0 - 0.5 * hwhm**2 / ((freqs - center) ** 2 + hwhm**2)
    data = tmp_path / "dip.csv"
    data.write_text(
        "freq_GHz,response\n"
        + "".join(f"{float(f)!r},{float(r)!r}\n" for f, r in zip(freqs, resp))
    )
    out = str(tmp_path / "dip.json")
    assert main(["fit", "twotone", "--data", str(data), "--out", out]) == 0
    fit = json.loads((tmp_path / "dip.json").read_text())
    assert fit["params"]["omega_e"]["value"] == pytest.approx(8.66e9, abs=1e6)
    assert fit["params"]["gamma"]["value"] == pytest.approx(102e6, rel=1e-2)


def test_calc_cooperativity_stdout_deterministic(capsys):
    argv = ["calc", "cooperativity", "--g-mhz", "118", "--kappa-mhz", "23",
            "--gamma2-mhz", "75"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["cooperativity"] == pytest.approx(32.28753623188406)


def test_calc_g(capsys):
    assert main(["calc", "g", "--coupling-length-nm", "2200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l_y_nm"] == pytest.approx(35.865, rel=1e-3)
    assert out["v_zpf_uV"] == pytest.approx(40.469, rel=1e-3)
    assert out["g_MHz"] == pytest.approx(
        CONSTANTS.e * out["l_y_nm"] * 1e-9 * out["v_zpf_uV"] * 1e-6
        / (CONSTANTS.hbar * 2.2e-6) / (1e6 * TWO_PI),
        rel=1e-6,
    )


def test_calc_cardano(capsys):
    assert main(["calc", "cardano", "--a1", "0", "--a2", "2750", "--ey", "300"]) == 0
    out = json.loads(capsys.readouterr().out)
    y_expect = (CONSTANTS.e * 300.0 / (4 * 2750.0)) ** (1 / 3) * 1e9
    assert out["y0_nm"] == pytest.approx(y_expect, rel=1e-9)
    assert out["regime"] == "single-real"
    assert out["f_trap_GHz"] > 0


def test_calc_purcell_and_spin(capsys):
    assert main(["calc", "purcell-res", "--g-mhz", "110", "--kappa-mhz", "23",
                 "--delta-ghz", "1.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t1_us"] == pytest.approx(0.6920536449242446, rel=1e-9)

    assert main(["calc", "purcell-bias", "--f-el-ghz", "5.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t1_ms"] > 1.0
    assert out["filter_resonance_GHz"] == pytest.approx(1.6243683, rel=1e-6)

    assert main(["calc", "spin", "--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1",
                 "--ax-nm", "50", "--delta-cs-ghz", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["g_cs_MHz"] == pytest.approx(49.484198527224414, rel=1e-9)
    assert out["g_s_MHz"] == pytest.approx(2.969051911633465, rel=1e-9)


def test_calc_depression_and_dispersive(capsys):
    assert main(["calc", "depression", "--height-um", "3000", "--width-um", "1.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["depression_nm"] == pytest.approx(2.765875, rel=1e-9)

    assert main(["calc", "dispersive", "--f-res-ghz", "7.162",
                 "--f-peak-ghz", "7.155", "--g-mhz", "118"]) == 0
    out = json.loads(capsys.readouterr().out)
    expect = 7.162e9 + (118e6) ** 2 / 7e6
    assert out["f_el_GHz"] == pytest.approx(expect / 1e9, rel=1e-9)


def test_qsolve_harmonic(tmp_path):
    a1 = 0.5 * CONSTANTS.m_e * (5.0 * GHZ) ** 2
    out = str(tmp_path / "levels.json")
    assert main(["qsolve", "--a1x", repr(a1), "--a1y", repr(a1),
                 "--nx", "101", "--ny", "101", "--out", out]) == 0
    levels = json.loads((tmp_path / "levels.json").read_text())
    assert levels["f01_GHz"] == pytest.approx(5.0, rel=5e-3)
    assert max(levels["residuals"]) < 1e-8


def _maps_file(tmp_path):
    n = 21
    axis = np.linspace(-1.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis)
    dome = np.exp(-(xx / 0.5) ** 2 - (yy / 0.4) ** 2)
    payload = {
        "x_axis_um": axis.tolist(),
        "y_axis_um": axis.tolist(),
        "electrodes": {"trap": dome.tolist()},
    }
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_sweep_shift_cli(tmp_path):
    maps = _maps_file(tmp_path)
    out = str(tmp_path / "shift.csv")
    argv = ["sweep", "shift", "--maps", maps, "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
            "--grad-per-um", "0.01", "--restarts", "2", "--out", out]
    assert main(argv) == 0
    lines = (tmp_path / "shift.csv").read_text().splitlines()
    assert lines[1].startswith("electrode,voltage_V")
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "trap"


def test_sweep_freq_cli(tmp_path):
    maps = _maps_file(tmp_path)
    out = str(tmp_path / "freq.csv")
    argv = ["sweep", "freq", "--maps", maps, "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
            "--nx", "61", "--ny", "61", "--k", "3", "--out", out]
    assert main(argv) == 0
    lines = (tmp_path / "freq.csv").read_text().splitlines()
    assert lines[1].startswith("voltage_V,f01_GHz")
    row = lines[2].split(",")
    assert float(row[1]) > 0


def test_missing_input_reports_json_error(tmp_path, capsys):
    code = main(["fit", "bare", "--trace", str(tmp_path / "nope.csv")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


@pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
def test_malformed_trace_sidecar_reports_json_error(tmp_path, capsys, sidecar):
    far = str(tmp_path / "far.csv")
    target = str(tmp_path / "target.csv")
    main(_synth_args(far))
    main(_synth_args(target, kind="rabi"))
    (tmp_path / "target.csv.json").write_text(sidecar)
    code = main(["compensate", "--far", far, "--target", target,
                 "--out", str(tmp_path / "comp.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def test_empty_twotone_data_reports_json_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("freq_GHz,response\n")
    code = main(["fit", "twotone", "--data", str(data),
                 "--out", str(tmp_path / "dip.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_underdetermined_twotone_data_reports_json_error(tmp_path, capsys, rows):
    # fewer rows than the 4 Lorentzian parameters
    data = tmp_path / "short.csv"
    data.write_text("freq_GHz,response\n" + "".join(
        f"{8.6 + 0.01 * i!r},{1.0 - 0.1 * i!r}\n" for i in range(rows)
    ))
    code = main(["fit", "twotone", "--data", str(data),
                 "--out", str(tmp_path / "dip.json")])
    assert code == 1
    assert not (tmp_path / "dip.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "FitError"


@pytest.mark.parametrize("argv", [
    ["synth", "--format", "xml"],
    ["synth", "--format", "json", "--out", "t.json"],
    ["synth", "--bogus"],
    ["fit", "bare"],
    ["synth", "--points", "abc"],
    [],
])
def test_usage_error_reports_json_error(tmp_path, monkeypatch, capsys, argv):
    # a bad choice, the dropped json format, an unknown flag, a missing
    # required argument, a bad type, and no command at all
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert "--format" in capsys.readouterr().out


@pytest.mark.parametrize("restarts", ["0", "-5"])
def test_sweep_shift_rejects_nonpositive_restarts(tmp_path, capsys, restarts):
    maps = _maps_file(tmp_path)
    out = tmp_path / "shift.csv"
    code = main(["sweep", "shift", "--maps", maps, "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
                 "--grad-per-um", "0.01", "--restarts", restarts, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


@pytest.mark.parametrize("kind, n, vmax", [
    ("shift", "-1", "0.3"), ("freq", "-1", "0.3"), ("freq", "0", "0.3"), ("freq", "2", "inf"),
])
def test_sweep_rejects_bad_voltage_axis(tmp_path, capsys, kind, n, vmax):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", kind, "--maps", _maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", vmax, "--n", n, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_format_flag_only_on_synth():
    args = build_parser().parse_args(["calc", "g", "--coupling-length-nm", "5"])
    assert "format" not in vars(args)


def test_bad_voltage_spec_reports_error(tmp_path, capsys):
    maps = _maps_file(tmp_path)
    code = main(["sweep", "shift", "--maps", maps, "--electrode", "trap",
                 "--vmin", "0", "--vmax", "1", "--n", "2",
                 "--voltage", "guardhalf", "--grad-per-um", "0.01"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def _strict_json(text):
    """json.loads that rejects the NaN/Infinity tokens JSON does not allow."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_nonfinite_outputs_print_strict_json(capsys):
    # g = 0 gives no Purcell decay (T1 = inf); g = inf gives C = inf
    assert main(["calc", "purcell-res", "--g-mhz", "0", "--kappa-mhz", "1",
                 "--delta-ghz", "1"]) == 0
    assert _strict_json(capsys.readouterr().out)["t1_us"] is None
    assert main(["calc", "cooperativity", "--g-mhz", "inf", "--kappa-mhz", "23",
                 "--gamma2-mhz", "75"]) == 0
    assert _strict_json(capsys.readouterr().out)["cooperativity"] is None


def test_nan_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["synth", "--snr", "nan", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert _strict_json(err[0])["error"] == "UsageError"
    assert not out.exists()
    # cooperativity with a NaN coupling used to print a bare NaN token
    assert main(["calc", "cooperativity", "--g-mhz", "nan", "--kappa-mhz", "23",
                 "--gamma2-mhz", "75"]) == 1
    assert _strict_json(capsys.readouterr().err)["error"] == "UsageError"


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_synth_rejects_too_few_points(tmp_path, capsys, points):
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", points, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "DomainError"
    assert not out.exists()


def _config_file(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_constants_and_resonator_flags_combine(tmp_path, capsys):
    cfg = {"constants": {"m_e": 1.8e-30}, "resonator": {"l_r": 85e-9}}
    assert main(["calc", "g", "--coupling-length-nm", "2200", "--f-res-ghz", "5",
                 "--kappa1-mhz", "4", "--config", _config_file(tmp_path, cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f_res_GHz"] == pytest.approx(5.0, rel=1e-12)
    res = core.ResonatorParams.from_mode(5.0 * GHZ, core.default_resonator().impedance)
    expect = analytic.coupling_g(res, 2.2e-6, constants=core.constants_from_config(cfg))
    assert out["g_MHz"] == pytest.approx(expect.g / (1e6 * TWO_PI), rel=1e-12)
    assert out["impedance_ohm"] == pytest.approx(expect.impedance, rel=1e-12)


def test_config_kappa_flags_apply_on_top_of_resonator_section(tmp_path):
    cfg = _config_file(tmp_path, {"resonator": {"kappa_2": 1e6, "kappa_int": 2e6}})
    args = build_parser().parse_args(["synth", "--config", cfg, "--kappa1-mhz", "3"])
    args._config = json.loads((tmp_path / "config.json").read_text())
    res = cli._resonator(args)
    assert res.kappa_1 == pytest.approx(3e6 * TWO_PI)
    assert (res.kappa_2, res.kappa_int) == (1e6, 2e6)
    assert (res.l_r, res.c_r) == (85e-9, 5.8e-15)


@pytest.mark.parametrize("argv, key", [
    (["calc", "cardano", "--a1", "0", "--a2", "2750", "--ey", "300"], "y0_nm"),
    (["calc", "spin", "--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1", "--ax-nm", "50",
      "--delta-cs-ghz", "2"], "g_cs_MHz"),
    (["calc", "depression", "--height-um", "3000", "--width-um", "1.4"], "depression_nm"),
    (["calc", "purcell-bias", "--f-el-ghz", "5.0"], "c_c_fF"),
])
def test_config_constants_reach_calc(tmp_path, capsys, argv, key):
    # doubling e, mu_b and rho_he moves every one of these closed forms
    cfg = _config_file(tmp_path, {"constants": {"e": 2 * CONSTANTS.e,
                                                "mu_b": 2 * CONSTANTS.mu_b,
                                                "rho_he": 2 * CONSTANTS.rho_he}})
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)[key]
    assert main(argv + ["--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)[key] != pytest.approx(plain, rel=0.1)


def test_config_constants_reach_qsolve_and_sweeps(tmp_path, capsys):
    # four times the electron mass halves every classical mode frequency and
    # the harmonic level spacing
    cfg = _config_file(tmp_path, {"constants": {"m_e": 4 * CONSTANTS.m_e}})
    a1 = repr(0.5 * CONSTANTS.m_e * (5.0 * GHZ) ** 2)
    qsolve = ["qsolve", "--a1x", a1, "--a1y", a1, "--nx", "61", "--ny", "61", "--k", "3"]
    assert main(qsolve) == 0
    plain = json.loads(capsys.readouterr().out)["f01_GHz"]
    assert main(qsolve + ["--config", cfg]) == 0
    heavy = json.loads(capsys.readouterr().out)["f01_GHz"]
    assert heavy / plain == pytest.approx(0.5, rel=1e-2)

    maps = _maps_file(tmp_path)
    sweep = ["--maps", maps, "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.25",
             "--n", "1"]
    rows = {}
    for name, extra in (("plain", []), ("heavy", ["--config", cfg])):
        out = tmp_path / f"shift_{name}.csv"
        assert main(["sweep", "shift", *sweep, "--grad-per-um", "0.01", "--restarts", "1",
                     "--out", str(out), *extra]) == 0
        modes = out.read_text().splitlines()[2].split(",")[3]
        rows[name] = [float(f) for f in modes.split(";")]
        out = tmp_path / f"freq_{name}.csv"
        assert main(["sweep", "freq", *sweep, "--nx", "41", "--ny", "41", "--k", "3",
                     "--out", str(out), *extra]) == 0
        rows[name + "_f01"] = float(out.read_text().splitlines()[2].split(",")[1])
    assert np.allclose(np.array(rows["heavy"]) / rows["plain"], 0.5, rtol=1e-6)
    assert rows["heavy_f01"] / rows["plain_f01"] == pytest.approx(0.5, rel=0.1)


def test_fit_json_carries_flags_and_covariance(tmp_path):
    trace = str(tmp_path / "far.csv")
    main(_synth_args(trace) + ["--snr", "50"])
    out = tmp_path / "fit.json"
    assert main(["fit", "bare", "--trace", trace, "--out", str(out)]) == 0
    fit = _strict_json(out.read_text())
    assert fit["flags"]["window_points"] > 10
    cov = fit["covariance"]
    assert sorted(cov) == sorted(fit["params"])
    for name, p in fit["params"].items():
        # the diagonal is sigma^2 in the file's units (Hz^2 for angular rates)
        assert cov[name][name] == pytest.approx(p["sigma"] ** 2, rel=1e-12)
    assert cov["omega_r"]["t"] == pytest.approx(cov["t"]["omega_r"], rel=1e-12)
